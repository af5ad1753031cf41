import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from decksym.cli import RunConfig, build_parser, main, render_text, run
from decksym.fixtures import fixture_path


def run_cli(command, system, tmp_path, name="report.json", **kw):
    cfg = RunConfig(
        command=command,
        system_path=system,
        seed_path=kw.pop("seed", system),
        out_path=str(tmp_path / name),
        **kw,
    )
    report, code = run(cfg)
    return report, code, tmp_path / name


def strip_timings(report: dict) -> dict:
    out = dict(report)
    out.pop("timings", None)
    return out


def test_analyze_ex41(tmp_path):
    report, code, out = run_cli(
        "analyze", "ex4_1", tmp_path, expected_degree=2, degree_bound=1,
        parameter_dependent=True,
    )
    assert code == 0
    assert report["status"] == "ok"
    assert report["monodromy"]["degree"] == 2
    assert report["group"]["centralizer_order"] == 2
    coords = report["deck_maps"][0]["coordinates"]
    assert coords["x"] == "1/x"
    assert all(v["pairing_ok"] for v in report["verification"])
    # dense interpolation runs the graded loop over the empty lattice; the
    # report still shows no grading and no classes
    block = report["interpolation"]
    assert block["graded"] is False
    assert block["class_count"] == 0
    assert block["largest_class"] == 0
    assert block["largest_vandermonde"] == 6
    assert out.exists()
    assert json.loads(out.read_text())["schema_version"] == 2
    assert {"degree_bound", "parameter_dependent", "graded"} <= report["config"].keys()


def test_monodromy_command_only(tmp_path):
    report, code, _ = run_cli("monodromy", "ex4_2", tmp_path, expected_degree=2)
    assert code == 0
    assert "deck_maps" not in report
    # Only the flags a command takes are echoed.
    assert sorted(report["config"]) == [
        "expected_degree", "rng_seed", "seed_pair", "system", "tolerances"
    ]
    assert report["group"]["order"] == 2


def test_monodromy_counts_in_report_and_text(tmp_path):
    """The monodromy block counts rounds, edges and paths; the text names them."""
    report, code, _ = run_cli("monodromy", "sextic", tmp_path, expected_degree=6)
    assert code == 0
    m = report["monodromy"]
    assert m["loop_count"] >= 1
    # a round adds one edge, or a new node with two edges
    assert m["loop_count"] <= m["edges"] <= 2 * m["loop_count"]
    # an edge tracks each solution of its nodes at most once each way
    assert 0 <= m["paths_failed"] < m["paths_tracked"] <= 2 * 6 * m["edges"]
    assert (
        f"6 solutions after {m['loop_count']} rounds ({m['edges']} edges, "
        f"{m['paths_tracked']} paths, {m['paths_failed']} failed); "
        f"{len(m['generators_images'])} generators"
    ) in render_text(report)


def test_scalings_command_ex57(tmp_path):
    report, code, _ = run_cli("scalings", "ex5_7", tmp_path, expected_degree=6)
    assert code == 0
    sc = report["scaling"]
    assert sc["free_rank"] == 1
    assert sc["commuting_blocks"] == []
    statuses = {c["status"] for c in sc["candidates"]}
    assert statuses == {"failed_stability", "failed_commutation"}


Z8_TEXT = "unknowns x; parameters p; equations x^8 + p*x^4 + 1;"


@pytest.mark.parametrize("rng_seed", [1, 2])
def test_scalings_composite_modulus_keeps_only_original_rows(tmp_path, rng_seed):
    """x^8 + p x^4 + 1 has one Z8 torsion row, (7, 4): a composite modulus.
    Of its 7 multiples only (4, 0), x -> -x, preserves the fiber and commutes
    with the deck maps; it is no original row, so no commuting block is kept
    and the report notes why."""
    (tmp_path / "z8.sys").write_text(Z8_TEXT)
    report, code, _ = run_cli(
        "scalings", str(tmp_path / "z8.sys"), tmp_path, seed=None,
        expected_degree=8, rng_seed=rng_seed,
    )
    assert code == 0
    sc = report["scaling"]
    assert (sc["free_rows"], sc["free_rank"]) == ([], 0)
    assert sc["torsion_blocks"] == [{"modulus": 8, "rows": [[7, 4]]}]
    assert [(c["modulus"], c["vector"], c["status"]) for c in sc["candidates"]] == [
        (8, [7, 4], "failed_commutation"),
        (8, [6, 0], "failed_commutation"),
        (8, [5, 4], "failed_commutation"),
        (8, [4, 0], "passed"),
        (8, [3, 4], "failed_commutation"),
        (8, [2, 0], "failed_commutation"),
        (8, [1, 4], "failed_commutation"),
    ]
    assert sc["commuting_blocks"] == [] and sc["commuting_ranks"] == []
    assert sc["enumeration_truncated"] is False
    assert sc["composite_modulus_note"] == "composite modulus: only original passing rows kept"


def test_trivial_centralizer_skips_interpolation(tmp_path):
    # the triangular fixture is decomposable but has no deck transformations
    report, code, _ = run_cli(
        "analyze", "triangular", tmp_path, expected_degree=32
    )
    assert code == 0
    assert report["group"]["centralizer_order"] == 1
    assert report["group"]["deck_note"] == "no nontrivial deck transformations"
    assert report["deck_maps"] == []
    assert report["interpolation"]["skipped"]


def test_verify_command_roundtrip(tmp_path):
    cfg = RunConfig(
        command="verify",
        system_path="p3p_quasihom",
        seed_path="p3p_quasihom",
        formulas_path="p3p_quasihom",
        expected_degree=8,
        verify_trials=2,
        out_path=str(tmp_path / "verify.json"),
    )
    report, code = run(cfg)
    assert code == 0
    entry = report["verification"][0]
    assert entry["pairing_ok"] and entry["passed"]
    assert (entry["trials"], entry["trials_requested"]) == (2, 2)
    # verify runs no scaling stage, so there is no lattice to check against
    assert entry["quasi_homogeneity_ok"] is None
    assert entry["worst_quasi_homogeneity"] == 0.0
    assert report["config"]["graded"] is False
    assert not {"degree_bound", "parameter_dependent"} & report["config"].keys()


def test_verify_command_wrong_sign_fails(tmp_path):
    bad = tmp_path / "bad.deck"
    bad.write_text("x = -1/x\n")
    cfg = RunConfig(
        command="verify",
        system_path="ex4_1",
        seed_path="ex4_1",
        formulas_path=str(bad),
        expected_degree=2,
        verify_trials=2,
    )
    report, code = run(cfg)
    assert code == 1
    assert report["status"] == "failed"


@pytest.mark.parametrize(
    "system, degree, formula, message",
    [
        # exact at the seed's p = -5/2 and wrong at every other p
        ("ex4_1", 2, "x = 1/x + (p + 5/2)", "failed verification"),
        # the seed has p1 = -3/2 exactly
        ("ex5_7", 6, "x2 = 1/(p1 + 3/2)", "denominator vanishes on the base fiber"),
    ],
    ids=["wrong-off-base", "zero-denominator"],
)
def test_failed_verify_names_the_verify_stage(tmp_path, system, degree, formula, message):
    """A formula that fails ``verify`` fails its one stage, ``verify``, and
    the partial report is still written."""
    bad = tmp_path / "bad.deck"
    bad.write_text(formula + "\n")
    report, code, out = run_cli(
        "verify", system, tmp_path, formulas_path=str(bad), expected_degree=degree,
    )
    assert code == 1
    assert report["status"] == "failed"
    assert report["failed_stage"] == "verify"
    assert message in report["error"]
    assert json.loads(out.read_text())["failed_stage"] == "verify"


def test_verification_tracks_one_set_of_fibers_for_every_deck_map(tmp_path, monkeypatch):
    """ex5_7 has five deck maps; the verification stage draws its
    ``verify_trials`` held-out fibers once and checks every map on them."""
    from decksym import cli, tracker

    calls = []
    sample_fiber = tracker.sample_fiber
    run_verification = cli.Pipeline.run_verification

    def counting(system, fiber, count, rng, **kwargs):
        calls.append(count)
        return sample_fiber(system, fiber, count, rng, **kwargs)

    def verification_counting_draws(self):
        monkeypatch.setattr(tracker, "sample_fiber", counting)
        return run_verification(self)

    monkeypatch.setattr(cli.Pipeline, "run_verification", verification_counting_draws)
    report, code, _ = run_cli(
        "analyze", "ex5_7", tmp_path, expected_degree=6, degree_bound=1,
        parameter_dependent=True,
    )
    assert code == 0
    assert len(report["verification"]) == 5
    assert all(v["passed"] and v["trials"] == 5 for v in report["verification"])
    assert calls == [5]  # one call draws all five fibers


def test_p3p_samples_go_out_in_one_call_per_degree(tmp_path, monkeypatch):
    """P3P graded at rng seed 0 redraws nothing: interpolation tracks each
    degree's orbit shortfall out in one ``track_paths`` call and back in one
    more, and verification tracks its 5 fibers of 8 solutions in one 40-row
    call.  Each degree fits on both points of ceil(2t/2) = t samples
    (largest class t = 1, 10 and 25) and holds out 3, 3 and 5 more.  At
    degree 1 the 9 fits of size 2 > t take an orbit mate, and the mate's
    row adds no rank, so they are refit on point 0 of 2t = 2 samples: one
    more sample, out and back in one more call pair.  The later degrees
    count it in their budgets, so the degrees draw 4 + 1, 8 and 17 samples
    of 2 points: 120 paths out and back."""
    from decksym import cli, tracker

    rows = {"interpolation": [], "verification": []}
    track_paths = tracker.track_paths

    def counting(stage, method):
        def run_stage(self):
            def recording(system, starts, *args):
                rows[stage].append(len(starts))
                return track_paths(system, starts, *args)

            monkeypatch.setattr(tracker, "track_paths", recording)
            try:
                return method(self)
            finally:
                monkeypatch.setattr(tracker, "track_paths", track_paths)

        return run_stage

    for stage in rows:
        method = getattr(cli.Pipeline, f"run_{stage}")
        monkeypatch.setattr(cli.Pipeline, f"run_{stage}", counting(stage, method))
    report, code, _ = run_cli(
        "analyze", "p3p_quasihom", tmp_path, expected_degree=8, graded=True, degree_bound=3
    )
    assert code == 0
    assert rows == {"interpolation": [8, 8, 2, 2, 16, 16, 34, 34], "verification": [40]}
    assert sum(rows["interpolation"]) == 120
    assert report["interpolation"]["rows_per_sample"] == [2, 2, 2]
    assert report["interpolation"]["orbit_samples"] == 30
    assert report["interpolation"]["point_0_refits"] == 9


def test_verification_without_tracked_fibers_fails_stage(tmp_path, monkeypatch):
    """Fault injection: every held-out fiber fails to track, so the
    verification stage fails instead of passing with zero trials."""
    from decksym import cli, tracker

    def fail(system, fibers, targets, gammas):
        return [None] * len(fibers)

    run_verification = cli.Pipeline.run_verification

    def verification_without_fibers(self):
        monkeypatch.setattr(tracker, "track_fiber", fail)
        return run_verification(self)

    monkeypatch.setattr(cli.Pipeline, "run_verification", verification_without_fibers)
    report, code, _ = run_cli(
        "analyze", "ex4_1", tmp_path, expected_degree=2, degree_bound=1,
        parameter_dependent=True,
    )
    assert code == 1
    assert report["status"] == "failed"
    assert report["failed_stage"] == "verification"
    assert [v["trials"] for v in report["verification"]] == [0]
    assert [v["trials_requested"] for v in report["verification"]] == [5]
    # pairing and fiber checks pass vacuously on zero fibers; the verdict
    # and the text do not
    assert [v["passed"] for v in report["verification"]] == [False]
    assert "verification (1 2): FAIL" in render_text(report)


def test_interpolation_without_tracked_orbits_fails_stage(tmp_path, monkeypatch):
    """Fault injection: no deck orbit tracks after monodromy, so the
    interpolation stage fails and the run exits with a stage failure."""
    from decksym import cli, tracker

    def fail(system, fibers, targets, gammas):
        return [None] * len(fibers)

    run_interpolation = cli.Pipeline.run_interpolation

    def interpolation_without_orbits(self):
        monkeypatch.setattr(tracker, "track_fiber", fail)
        return run_interpolation(self)

    monkeypatch.setattr(cli.Pipeline, "run_interpolation", interpolation_without_orbits)
    report, code, _ = run_cli(
        "analyze", "ex4_1", tmp_path, expected_degree=2, degree_bound=1,
        parameter_dependent=True,
    )
    assert code == 1
    assert report["status"] == "failed"
    assert report["failed_stage"] == "interpolation"
    assert "orbit sampling failed" in report["error"]


def test_interpolate_command_graded_ex41(tmp_path):
    """The interpolation stage of ``analyze`` under ``--graded``."""
    report, code, _ = run_cli(
        "analyze", "ex4_1", tmp_path, expected_degree=2, degree_bound=1,
        parameter_dependent=True, graded=True,
    )
    assert code == 0
    # the mod-2 scaling (x, p) -> (-x, -p) survives the filter and splits the
    # degree-1 monomials into {1} and {x, p}: a 3x3 Vandermonde suffices
    assert report["scaling"]["commuting_ranks"] == [{"modulus": 2, "rank": 1}]
    assert report["interpolation"]["largest_vandermonde"] <= 4
    assert report["deck_maps"][0]["coordinates"]["x"] == "1/x"


def test_verify_graded_checks_quasi_homogeneity(tmp_path):
    """``verify --graded`` runs the scaling stage first, so the formulas are
    also checked against the filtered lattice (without the flag the check is
    ``None``: see ``test_verify_command_roundtrip``)."""
    out = tmp_path / "verify.json"
    code = main(
        [
            "verify", "--system", "p3p_quasihom", "--seed-pair", "p3p_quasihom",
            "--expected-degree", "8", "--formulas", "p3p_quasihom",
            "--verify-trials", "2", "--graded", "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["scaling"]["commuting_ranks"] == [{"modulus": 2, "rank": 4}]
    entry = report["verification"][0]
    assert entry["passed"]
    assert entry["quasi_homogeneity_ok"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["interpolate", "--system", "ex4_1"],
        ["monodromy", "--system", "ex4_1", "--graded"],
        ["scalings", "--system", "ex4_1", "--degree-bound", "1"],
        ["verify", "--system", "ex4_1", "--formulas", "x.deck", "--param-dependent"],
        ["analyze", "--system", "ex4_1", "--threads", "2"],
    ],
)
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    """Each command takes only the flags its stages read; anything else is
    argparse's usage error (exit 2) before any stage runs."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_input_error_exit_code(tmp_path):
    cfg = RunConfig(command="analyze", system_path="no_such_fixture")
    report, code = run(cfg)
    assert code == 2
    assert report["failed_stage"] == "input"


@pytest.mark.parametrize(
    "command, seed, formulas, error",
    [
        ("monodromy", "x: 1;\np: zzz;\n", None, "could not convert string to float: 'zzz'"),
        ("monodromy", "x: 1, 2;\np: 1;\n", None, "seed pair dimensions do not match"),
        ("verify", None, None, "no such file or bundled fixture"),
        ("verify", None, "x = 1/x +\n", "line 1, column 10: in formula for x"),
    ],
    ids=["malformed-seed", "seed-of-wrong-length", "missing-formulas", "malformed-formulas"],
)
def test_bad_input_files_fail_the_input_stage(tmp_path, command, seed, formulas, error):
    """The input stage reads every input file, so a missing or malformed one
    exits 2 before monodromy tracks any path, and the error names the file."""
    kw = {"seed": "ex4_1"}
    if seed is not None:
        bad = tmp_path / "bad.seed"
        bad.write_text(seed)
        kw["seed"] = str(bad)
    if command == "verify":
        bad = tmp_path / "bad.deck"
        if formulas is not None:
            bad.write_text(formulas)
        kw["formulas_path"] = str(bad)
    report, code, out = run_cli(command, "ex4_1", tmp_path, expected_degree=2, **kw)
    assert code == 2
    assert report["failed_stage"] == "input"
    assert list(report["timings"]) == ["input"]
    assert report["error"].startswith(f"{bad}: ")
    assert error in report["error"]
    assert json.loads(out.read_text())["failed_stage"] == "input"


def test_verify_without_a_formula_file_is_an_input_error():
    """``cli.run`` called directly, with no formula file for verify: the
    input stage fails (exit 2, with a report) before monodromy runs."""
    cfg = RunConfig(command="verify", system_path="ex4_1", seed_path="ex4_1", expected_degree=2)
    report, code = run(cfg)
    assert code == 2
    assert report["status"] == "failed"
    assert report["failed_stage"] == "input"
    assert report["error"] == "verify needs a formula file (--formulas)"
    assert list(report["timings"]) == ["input"]


def test_bundled_names_resolve_with_or_without_suffix(tmp_path, monkeypatch):
    """A bundled fixture file can be named with or without its suffix; an
    existing file of that name wins over it."""
    monkeypatch.chdir(tmp_path)
    reports = [
        strip_timings(run_cli("monodromy", system, tmp_path, seed=seed, expected_degree=2)[0])
        for system, seed in (("ex4_1", "ex4_1"), ("ex4_1.sys", "ex4_1.seed"))
    ]
    for report in reports:
        del report["config"]
    assert reports[0] == reports[1]
    assert reports[0]["status"] == "ok"
    (tmp_path / "ex4_1").write_text(fixture_path("ex4_2").read_text())
    report, code, _ = run_cli("monodromy", "ex4_1", tmp_path, seed="ex4_2", expected_degree=2)
    assert code == 0
    assert report["system"]["unknowns"] == ["x", "y"]


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--rng-seed", "-1"),
        ("--expected-degree", "0"),
        ("--expected-degree", "1"),
        ("--verify-trials", "0"),
        ("--verify-trials", "-3"),
        ("--degree-bound", "0"),
    ],
)
def test_out_of_range_integers_are_input_errors(tmp_path, capsys, flag, value):
    """An integer no run can use exits 2 before any stage runs: a negative
    rng seed, an expected degree below 2 (monodromy never returns fewer
    solutions), fewer than one verification trial, a degree bound below 1."""
    out = tmp_path / "r.json"
    code = main(
        [
            "analyze", "--system", "ex4_1", "--seed-pair", "ex4_1",
            "--degree-bound", "1", "--param-dependent", "--out", str(out), flag, value,
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_readme_names_every_cli_flag():
    """The README names exactly the flags the parser defines."""
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    defined = {
        opt
        for sub in commands.choices.values()
        for action in sub._actions
        for opt in action.option_strings
        if opt.startswith("--")
    } - {"--help"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert set(re.findall(r"--[a-z][a-z-]*", readme)) == defined


def test_reports_deterministic(tmp_path):
    r1, c1, _ = run_cli(
        "analyze", "ex4_1", tmp_path, name="a.json",
        expected_degree=2, degree_bound=1, parameter_dependent=True, rng_seed=7,
    )
    r2, c2, _ = run_cli(
        "analyze", "ex4_1", tmp_path, name="b.json",
        expected_degree=2, degree_bound=1, parameter_dependent=True, rng_seed=7,
    )
    assert c1 == c2 == 0
    a = json.dumps(strip_timings(r1), sort_keys=True)
    b = json.dumps(strip_timings(r2), sort_keys=True)
    assert a == b


def test_threads_flag_does_not_change_report(tmp_path):
    """``RunConfig.threads`` (no CLI flag) appears nowhere in the report;
    paths are tracked in one thread either way."""
    reports = []
    for threads in (1, 2):
        report, code, _ = run_cli(
            "analyze", "ex4_1", tmp_path, name=f"t{threads}.json",
            expected_degree=2, degree_bound=1, parameter_dependent=True, threads=threads,
        )
        assert code == 0
        assert "threads" not in report["config"]
        reports.append(json.dumps(strip_timings(report), sort_keys=True))
    assert reports[0] == reports[1]


def test_cli_entry_point(tmp_path, capsys):
    code = main(
        [
            "analyze",
            "--system", "ex4_1",
            "--seed-pair", "ex4_1",
            "--expected-degree", "2",
            "--degree-bound", "1",
            "--param-dependent",
            "--out", str(tmp_path / "r.json"),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "deck (1 2)" in text
    assert "1/x" in text


def test_fixture_snapshots_structural():
    """Every CI fixture ships an expected-report snapshot; the structural
    fields must match a fresh run."""
    from decksym.fixtures import EXPECTED_DEGREE

    expected_dir = Path(fixture_path("ex4_1")).parent / "expected"
    for snap_file in sorted(expected_dir.glob("*.json")):
        snap = json.loads(snap_file.read_text())
        name = snap["fixture"]
        cfg = RunConfig(
            command=snap["command"],
            system_path=name,
            seed_path=name,
            expected_degree=EXPECTED_DEGREE[name],
            degree_bound=snap["config"]["degree_bound"],
            parameter_dependent=snap["config"]["parameter_dependent"],
            graded=snap["config"]["graded"],
            rng_seed=snap["config"]["rng_seed"],
        )
        report, code = run(cfg)
        assert code == 0, f"{name}: run failed"
        got = {
            "degree": report["monodromy"]["degree"],
            "order": report["group"]["order"],
            "centralizer_order": report["group"]["centralizer_order"],
            "decomposable": report["group"]["decomposable"],
            "block_shapes": sorted(
                sorted(len(b) for b in part)
                for part in report["group"]["block_systems"]
            ),
        }
        if "scaling" in report:
            got["free_rank"] = report["scaling"]["free_rank"]
            got["commuting_ranks"] = report["scaling"].get("commuting_ranks", [])
        for key, value in snap["structural"].items():
            assert got[key] == value, f"{name}: {key} mismatch: {got[key]} != {value}"


# Imports decksym, runs the README example and exits 1 if scipy was loaded.
# CI runs the same line against the installed package.
NO_SCIPY_CHECK = (
    "import sys, decksym, decksym.cli as cli; "
    "_, code = cli.run(cli.RunConfig(command='analyze', system_path='ex4_1', "
    "seed_path='ex4_1', expected_degree=2, degree_bound=1, parameter_dependent=True)); "
    "sys.exit(code or any(m.split('.')[0] == 'scipy' for m in sys.modules))"
)


def test_analyze_runs_without_importing_scipy(tmp_path):
    """scipy is only the SVD fallback's, so a run that never needs that
    fallback must not pay for importing it."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_CHECK], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
