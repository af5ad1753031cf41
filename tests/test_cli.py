import json
from pathlib import Path

from decksym.cli import RunConfig, main, render_text, run
from decksym.fixtures import deck_path, fixture_path, seed_path


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
    assert json.loads(out.read_text())["schema_version"] == 1


def test_monodromy_command_only(tmp_path):
    report, code, _ = run_cli("monodromy", "ex4_2", tmp_path, expected_degree=2)
    assert code == 0
    assert "deck_maps" not in report
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
        formulas_path=str(deck_path("p3p_quasihom")),
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


def test_verification_without_tracked_fibers_fails_stage(tmp_path, monkeypatch):
    """Fault injection: every held-out fiber fails to track, so the
    verification stage fails instead of passing with zero trials."""
    from decksym import cli, tracker
    from decksym.tracker import FiberTrackingError

    def fail(*args, **kwargs):
        raise FiberTrackingError("injected")

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
    from decksym.tracker import FiberTrackingError

    def fail(*args, **kwargs):
        raise FiberTrackingError("injected")

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
    report, code, _ = run_cli(
        "interpolate", "ex4_1", tmp_path, expected_degree=2, degree_bound=1,
        parameter_dependent=True, graded=True,
    )
    assert code == 0
    # the mod-2 scaling (x, p) -> (-x, -p) survives the filter and splits the
    # degree-1 monomials into {1} and {x, p}: a 3x3 Vandermonde suffices
    assert report["scaling"]["commuting_ranks"] == [{"modulus": 2, "rank": 1}]
    assert report["interpolation"]["largest_vandermonde"] <= 4
    assert report["deck_maps"][0]["coordinates"]["x"] == "1/x"


def test_input_error_exit_code(tmp_path):
    cfg = RunConfig(command="analyze", system_path="no_such_fixture")
    report, code = run(cfg)
    assert code == 2
    assert report["failed_stage"] == "input"


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
    """--threads is accepted for compatibility and echoed in the config;
    paths are tracked in one thread either way."""
    reports = []
    for threads in (1, 2):
        report, code, _ = run_cli(
            "analyze", "ex4_1", tmp_path, name=f"t{threads}.json",
            expected_degree=2, degree_bound=1, parameter_dependent=True, threads=threads,
        )
        assert code == 0
        assert report["config"]["threads"] == threads
        report = strip_timings(report)
        report["config"] = {k: v for k, v in report["config"].items() if k != "threads"}
        reports.append(json.dumps(report, sort_keys=True))
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
