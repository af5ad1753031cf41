"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavyweight pipelines (P3P, five-point) run once per module in shared
fixtures; their elapsed wall time is asserted against the stated budgets.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import os
import time

import numpy as np
import pytest

from conftest import (
    assert_cycles_retrace,
    build_vandermonde,
    constant_denominator_representative,
    equation_weight,
    fixture_system,
    is_block_system,
    snf_verifies,
)
from decksym import scaling
from decksym.cli import RunConfig, run
from decksym.expr import (
    monomials_up_to_degree,
    parse_deck_formulas,
    parse_expression,
    parse_seed_pair,
)
from decksym.fixtures import EXPECTED_DEGREE, deck_path, seed_path
from decksym.interp import (
    held_out_fibers,
    interpolate_dense,
    interpolate_graded,
    representative_to_rational,
    snap_rational,
    verify_deck,
)
from decksym.monodromy import run_monodromy, sample_orbit
from decksym.numcore import nullspace, rref
from decksym.permgrp import (
    centralizer_in_symmetric,
    compose,
    group_order_capped,
    identity,
    inverse,
    is_permutation,
    minimal_block_systems,
)
from decksym.tracker import draw_gamma, track_fiber


def announce(number: int, text: str):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def load_fixture(name):
    system = fixture_system(name)
    x, p = parse_seed_pair(seed_path(name).read_text())
    return system, (x, p)


def pipeline(name, rng_seed=0, graded=False):
    """monodromy -> centralizer (-> scaling filter), returning a state dict."""
    system, seed = load_fixture(name)
    rng = np.random.default_rng(rng_seed)
    t0 = time.perf_counter()
    mono = run_monodromy(system, seed, rng, expected_degree=EXPECTED_DEGREE[name])
    cent = centralizer_in_symmetric(mono.group())
    deck_perms = [p for p in cent if p != identity(mono.degree)]
    state = {
        "system": system,
        "rng": rng,
        "mono": mono,
        "centralizer": cent,
        "deck_perms": deck_perms,
        "t0": t0,
    }
    if graded:
        lattice = scaling.detect_scalings(system)
        filt = scaling.commuting_discrete_scalings(
            lattice, system, mono, deck_perms, rng
        )
        state["lattice"] = lattice
        state["filtered"] = filt
    return state


def fresh_fiber_points(state, count):
    system, mono, rng = state["system"], state["mono"], state["rng"]
    pts = []
    while len(pts) < count:
        target = rng.standard_normal(system.m) + 1j * rng.standard_normal(system.m)
        (sample,) = track_fiber(system, [mono.base], [target], [draw_gamma(rng)])
        if sample is None:
            continue
        for sol in sample.solutions:
            pts.append(np.concatenate([sol, sample.params]))
    return pts[:count]


def assert_formulas_agree(rf1, rf2, points, rtol):
    for pt in points:
        v1, v2 = rf1.evaluate(pt), rf2.evaluate(pt)
        assert abs(v1 - v2) <= rtol * (1 + abs(v2)), f"{v1} != {v2}"


@pytest.fixture(scope="module")
def p3p_state():
    return pipeline("p3p_quasihom", graded=True)


@pytest.fixture(scope="module")
def fivepoint_state():
    return pipeline("fivepoint_quasihom", graded=True)


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_ex41(tmp_path):
    t0 = time.perf_counter()
    report, code = run(
        RunConfig(
            command="analyze",
            system_path="ex4_1",
            seed_path="ex4_1",
            expected_degree=2,
            degree_bound=1,
            parameter_dependent=True,
            out_path=str(tmp_path / "ex41.json"),
        )
    )
    assert code == 0
    assert report["monodromy"]["degree"] == 2
    formula = report["deck_maps"][0]["coordinates"]["x"]
    assert formula is not None
    system, _ = load_fixture("ex4_1")
    rf = parse_expression(formula, system.names)
    # oracle: exact quadratic roots at random parameters; x' = 1/x by Vieta
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = rng.standard_normal() + 1j * rng.standard_normal()
        x = (-p + np.sqrt(p * p - 4 + 0j)) / 2
        got = rf.evaluate(np.array([x, p]))
        want = 1 / x
        assert abs(got - want) <= 1e-8 * (1 + abs(want))

    # paper's two-row reduced nullspace at D = 1
    state = pipeline("ex4_1", rng_seed=1)
    samples = sample_orbit(
        state["system"], state["mono"], state["deck_perms"], 6, state["rng"]
    )
    monos = monomials_up_to_degree(1, 1, 1, True)
    pairs = [
        (np.concatenate([s.solutions[0], s.params]), np.concatenate([s.solutions[1], s.params]))
        for s in samples
    ]
    a = build_vandermonde(pairs, 0, monos, monos)
    assert nullspace(a).shape[1] == 2

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.1f}s"
    announce(1, f"d=2, deck formula {formula!r} == 1/x on X, nullspace dim 2 ({elapsed:.1f}s)")


# -- 2 ----------------------------------------------------------------------


def test_criterion_2_ex42():
    t0 = time.perf_counter()
    state = pipeline("ex4_2")
    system, mono, rng = state["system"], state["mono"], state["rng"]
    decks, _ = interpolate_dense(system, mono, state["deck_perms"], 1, True, rng)
    assert decks[0].complete
    expected = parse_expression("1 - y - 2*p", system.names)
    pts = fresh_fiber_points(state, 20)
    assert_formulas_agree(decks[0].coords[1], expected, pts, 1e-8)

    samples = sample_orbit(system, mono, state["deck_perms"], 8, rng)
    monos = monomials_up_to_degree(2, 1, 1, True)
    pairs = [
        (np.concatenate([s.solutions[0], s.params]), np.concatenate([s.solutions[1], s.params]))
        for s in samples
    ]
    reduced = rref(nullspace(build_vandermonde(pairs, 0, monos, monos)).T)
    got = constant_denominator_representative(reduced, len(monos))
    assert got is not None
    rf = snap_rational(representative_to_rational(got[0], got[1], monos, monos, 3))
    target = parse_expression("-x - 1", system.names)
    assert rf.numerator == target.numerator and rf.denominator == target.denominator

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.1f}s"
    announce(2, f"psi2 == 1 - y - 2p on X; constant-denominator row == -x - 1 ({elapsed:.1f}s)")


# -- 3 ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sextic_state():
    return pipeline("sextic")


def test_criterion_3_sextic(sextic_state):
    state = sextic_state
    system, mono, rng = state["system"], state["mono"], state["rng"]
    assert mono.degree == 6
    group = mono.group()
    assert group_order_capped(group, 10**5) == 48
    systems = minimal_block_systems(group)
    shapes = {tuple(sorted(len(b) for b in part)) for part in systems}
    assert (2, 2, 2) in shapes  # the pair blocks {x, 1/x}
    assert len(state["centralizer"]) == 2

    decks, _ = interpolate_dense(system, mono, state["deck_perms"], 1, True, rng)
    assert decks[0].complete
    one_over_x = parse_expression("1/x", system.names)
    pts = fresh_fiber_points(state, 20)
    assert_formulas_agree(decks[0].coords[0], one_over_x, pts, 1e-8)

    elapsed = time.perf_counter() - state["t0"]
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.1f}s"
    announce(3, f"d=6, order 48, pair blocks, centralizer 2, deck == 1/x ({elapsed:.1f}s)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "no order-48 subgroup of S6 preserves a partition into two blocks of"
        " three: the stabilizer of such a partition has order 72 and 48 does"
        " not divide 72; the detected block system is the three pair blocks"
    ),
)
def test_criterion_3_literal_two_blocks_of_three(sextic_state):
    systems = minimal_block_systems(sextic_state["mono"].group())
    shapes = {tuple(sorted(len(b) for b in part)) for part in systems}
    assert (3, 3) in shapes


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_triangular(tmp_path):
    t0 = time.perf_counter()
    report, code = run(
        RunConfig(
            command="analyze",
            system_path="triangular",
            seed_path="triangular",
            expected_degree=32,
            out_path=str(tmp_path / "triangular.json"),
        )
    )
    assert code == 0
    assert report["monodromy"]["degree"] == 32
    shapes = [sorted(len(b) for b in part) for part in report["group"]["block_systems"]]
    assert [4] * 8 in shapes
    assert report["group"]["decomposable"]
    assert report["group"]["centralizer_order"] == 1
    assert report["group"]["deck_note"] == "no nontrivial deck transformations"
    assert report["deck_maps"] == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0, f"criterion 4 took {elapsed:.1f}s"
    announce(4, f"d=32, 8 blocks of 4, trivial deck group reported ({elapsed:.1f}s)")


# -- 5 ----------------------------------------------------------------------

# The discrete-scaling filter's decision on each of the 31 Z2 candidates, in
# enumeration order (P passed, S failed_stability).  Tracking the whole fiber
# to each scaled parameter point decides exactly so on P3P and five-point;
# tracking only the scaled deck orbit must not change one label.
QUASIHOM_FILTER_LABELS = "SPSSPSPPSPSSPSPSPSPPSPSSPSPPSPS"
_LABEL = {"P": "passed", "S": "failed_stability"}


def assert_filter_labels(filt, labels):
    assert [c.status for c in filt.candidates] == [_LABEL[c] for c in labels]


def test_criterion_5_p3p(p3p_state):
    state = p3p_state
    system, mono, rng = state["system"], state["mono"], state["rng"]
    assert mono.degree == 8
    filt = state["filtered"]
    assert len(state["lattice"].free) == 7
    assert_filter_labels(filt, QUASIHOM_FILTER_LABELS)
    assert [(d, len(rows)) for d, rows in filt.lattice.torsion.items()] == [(2, 4)]

    decks, stats = interpolate_graded(
        system, mono, state["deck_perms"], filt.lattice, 3, False, rng
    )
    assert len(decks) == 1 and decks[0].complete
    assert stats.largest_vandermonde <= 50

    reference = parse_deck_formulas(deck_path("p3p_quasihom").read_text(), system)
    pts = fresh_fiber_points(state, 20)
    for j, name in enumerate(system.unknowns):
        assert_formulas_agree(decks[0].coords[j], reference[name], pts, 1e-6)

    state["decks"] = decks
    elapsed = time.perf_counter() - state["t0"]
    assert elapsed < 120.0, f"criterion 5 took {elapsed:.1f}s"
    announce(
        5,
        f"d=8, free rank 7, commuting Z2^4, Vandermonde <= {stats.largest_vandermonde}, "
        f"full deck map matches the reference formulas ({elapsed:.1f}s)",
    )


# -- 6 ----------------------------------------------------------------------


def test_criterion_6_fivepoint(fivepoint_state):
    state = fivepoint_state
    system, mono, rng = state["system"], state["mono"], state["rng"]
    assert mono.degree == 20
    filt = state["filtered"]
    assert len(state["lattice"].free) == 11
    assert_filter_labels(filt, QUASIHOM_FILTER_LABELS)
    assert [(d, len(rows)) for d, rows in filt.lattice.torsion.items()] == [(2, 4)]

    reference = parse_deck_formulas(deck_path("fivepoint_quasihom").read_text(), system)
    pts = fresh_fiber_points(state, 20)

    decks_i, stats_i = interpolate_graded(
        system, mono, state["deck_perms"], filt.lattice, 3, False, rng
    )
    assert stats_i.largest_vandermonde <= 40
    rt_names = [f"r{i}{j}" for i in range(1, 4) for j in range(1, 4)] + ["t1", "t2", "t3"]
    depth_names = [f"al{i}" for i in range(1, 6)] + [f"be{i}" for i in range(1, 6)]
    for name in rt_names:
        j = system.unknowns.index(name)
        assert decks_i[0].coords[j] is not None, f"{name} missing"
        assert_formulas_agree(decks_i[0].coords[j], reference[name], pts, 1e-6)
    for name in depth_names:
        assert decks_i[0].coords[system.unknowns.index(name)] is None

    decks_d, stats_d = interpolate_graded(
        system, mono, state["deck_perms"], filt.lattice, 3, True, rng
    )
    assert stats_d.largest_vandermonde <= 100
    assert decks_d[0].complete
    for name in depth_names:
        j = system.unknowns.index(name)
        assert_formulas_agree(decks_d[0].coords[j], reference[name], pts, 1e-6)

    state["decks"] = decks_d
    elapsed = time.perf_counter() - state["t0"]
    assert elapsed < 600.0, f"criterion 6 took {elapsed:.1f}s"
    announce(
        6,
        f"d=20, free 11, commuting 4; rotation/translation at <= {stats_i.largest_vandermonde}, "
        f"depths at <= {stats_d.largest_vandermonde} ({elapsed:.1f}s)",
    )


# -- 7 ----------------------------------------------------------------------


def test_criterion_7_ex57_pathologies():
    t0 = time.perf_counter()
    state = pipeline("ex5_7")
    system, mono, rng = state["system"], state["mono"], state["rng"]
    lat = scaling.detect_scalings(system)
    moduli = (0,) * len(lat.free) + (2,)
    x1_flip = scaling.ScalingLattice(7, lat.free + ((1, 0, 0, 0, 0, 0, 0),), moduli)
    x4_flip = scaling.ScalingLattice(7, lat.free + ((0, 0, 0, 1, 0, 0, 0),), moduli)
    out1 = scaling.commuting_discrete_scalings(
        x1_flip, system, mono, state["deck_perms"], rng
    )
    assert [c.status for c in out1.candidates] == ["failed_stability"]
    out4 = scaling.commuting_discrete_scalings(
        x4_flip, system, mono, state["deck_perms"], rng
    )
    assert [c.status for c in out4.candidates] == ["failed_commutation"]
    # the SNF's own candidates are likewise all rejected
    full = scaling.commuting_discrete_scalings(
        lat, system, mono, state["deck_perms"], rng
    )
    assert full.lattice.torsion == {}
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 7 took {elapsed:.1f}s"
    announce(
        7,
        f"x1-flip fails X-stability, x4-flip fails commutation, no discrete scalings survive ({elapsed:.1f}s)",
    )


# -- 8 ----------------------------------------------------------------------

PROPERTY_FIXTURES = ["ex4_1", "ex4_2", "sextic", "triangular", "ex5_7", "p3p_quasihom", "fivepoint_quasihom"]


def test_criterion_8a_snf_and_quasi_homogeneity():
    rng = np.random.default_rng(5)
    for name in PROPERTY_FIXTURES + ["p3p_inhom", "fivepoint_inhom", "radial", "alt"]:
        system, _ = load_fixture(name)
        a = scaling.exponent_difference_matrix(system)
        if not a[0]:
            continue
        snf = scaling.smith_normal_form(a)
        if name not in ("radial", "alt"):  # exact verification is O(n^3) in big ints
            assert snf_verifies(snf, a), name
        lat = scaling.extract_scaling_lattice(snf, len(a))
        nvars = system.n + system.m
        for row in lat.free:
            pt = rng.standard_normal(nvars) + 1j * rng.standard_normal(nvars)
            lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
            scaled = scaling.apply_scaling(row, lam, pt)
            for eq in system.structural_equations():
                w = equation_weight(row, eq)
                assert w is not None, name
                lhs = eq.evaluate(scaled)
                rhs = lam**w * eq.evaluate(pt)
                assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs)), name
    announce(8, "SNF verified (U A V diagonal, unimodular) and free scalings quasi-homogeneous")


def test_criterion_8b_monodromy_properties(p3p_state, sextic_state):
    for state in (sextic_state, p3p_state):
        system, mono = state["system"], state["mono"]
        for perm in mono.permutations:
            assert is_permutation(perm)
        assert_cycles_retrace(system, mono)
        cent = state["centralizer"]
        elems = set(cent)
        for sigma in cent:
            assert inverse(sigma) in elems
            for g in mono.permutations:
                assert compose(sigma, g) == compose(g, sigma)
            for tau in cent:
                assert compose(sigma, tau) in elems
        group = mono.group()
        for part in minimal_block_systems(group):
            assert is_block_system(group, part)
    announce(8, "generator cycles retrace backwards, centralizers commute and are group-closed")


def test_criterion_8c_interpolated_formulas_validate(p3p_state, fivepoint_state):
    for state in (p3p_state, fivepoint_state):
        assert "decks" in state, "interpolation criteria must run first"
        for deck in state["decks"]:
            fibers = held_out_fibers(state["system"], state["mono"].base, 3, state["rng"])
            rep = verify_deck(
                state["system"], deck, fibers, 3, state["rng"],
                lattice=state["filtered"].lattice,
            )
            assert rep.pairing_ok and rep.worst_pairing <= 1e-6
            if deck.complete:
                assert rep.fiber_preservation_ok
            assert rep.quasi_homogeneity_ok
    announce(8, "interpolated formulas validate on held-out fibers (rel 1e-6)")


def test_criterion_8d_deterministic_reports(tmp_path):
    reports = []
    for k in range(2):
        report, code = run(
            RunConfig(
                command="scalings",
                system_path="sextic",
                seed_path="sextic",
                expected_degree=6,
                rng_seed=3,
                out_path=str(tmp_path / f"r{k}.json"),
            )
        )
        assert code == 0
        report.pop("timings")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]
    announce(8, "reports byte-identical under a fixed rng seed (timings aside)")


# -- 9 (stretch, not CI) ------------------------------------------------------


@pytest.mark.skipif(
    not os.environ.get("DECKSYM_STRETCH"),
    reason="radial-camera stretch fixture (d=3584): set DECKSYM_STRETCH=1 to run",
)
def test_criterion_9_radial_stretch():
    state = pipeline("radial", graded=True)
    system, mono, rng = state["system"], state["mono"], state["rng"]
    assert mono.degree == 3584
    cent = state["centralizer"]
    assert len(cent) == 16
    decks, _ = interpolate_graded(
        system, mono, state["deck_perms"], state["filtered"].lattice, 2, False, rng
    )
    pts = fresh_fiber_points(state, 5)
    recovered = 0
    for fname in ("radial_psi1", "radial_psi2", "radial_psi3", "radial_psi4"):
        reference = parse_deck_formulas(deck_path(fname).read_text(), system)
        for deck in decks:
            if all(
                deck.coords[j] is not None
                and all(
                    abs(deck.coords[j].evaluate(pt) - reference[name].evaluate(pt))
                    <= 1e-6 * (1 + abs(reference[name].evaluate(pt)))
                    for pt in pts
                )
                for j, name in enumerate(system.unknowns)
            ):
                recovered += 1
                break
    assert recovered == 4
    announce(9, "radial stretch: d=3584, deck group order 16, all four generators recovered")
