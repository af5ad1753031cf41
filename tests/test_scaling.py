from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decksym import scaling
from decksym.expr import parse_system
from decksym.scaling import (
    IntMatrix,
    apply_scaling,
    denominator_multidegree,
    detect_scalings,
    equation_weight,
    exponent_difference_matrix,
    multidegree,
    multidegrees_bulk,
    smith_normal_form,
)

EX57 = """
unknowns x1, x2, x3, x4; parameters p1, p2, p3;
equations
2*x1^2 + 1;
x2 + 2*x1*x3 + p1;
3*x3^2 + x4^2 - 4*p1*x1*x3 - 2*p2;
x1*x3^3 + 3*x1*x3*x4^2 + p1*x3^2 + p1*x4^2 - 2*p2*x1*x3 - 2*p3;
"""


def snf_of(rows):
    return smith_normal_form(IntMatrix.from_rows(rows))


def test_snf_single_row_gcd():
    snf = snf_of([[4, 6]])
    assert snf.diag == (2,)
    assert snf.verify(IntMatrix.from_rows([[4, 6]]))


def test_snf_identity():
    snf = snf_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert snf.diag == (1, 1, 1)


def test_snf_zero_matrix():
    a = IntMatrix.from_rows([[0, 0], [0, 0]])
    snf = smith_normal_form(a)
    assert snf.diag == ()
    assert snf.verify(a)


def test_snf_divisor_chain():
    snf = snf_of([[2, 0], [0, 4]])
    assert snf.diag == (2, 4)


def test_snf_random_property():
    rng = np.random.default_rng(19)
    for _ in range(30):
        r = int(rng.integers(1, 7))
        c = int(rng.integers(1, 7))
        a = IntMatrix.from_rows(rng.integers(-9, 10, (r, c)).tolist())
        snf = smith_normal_form(a)
        assert snf.verify(a)
        nonzero = [d for d in snf.diag if d != 0]
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0 and x > 0


def test_snf_fallback_large_entries():
    a = IntMatrix.from_rows([[2**40, 3**25], [5**17, 7**13]])
    snf = smith_normal_form(a)
    assert snf.verify(a)


def assert_snf_invariants(a, snf):
    prod = snf.U.matmul(a).matmul(snf.V)
    for i, row in enumerate(prod.data):
        for j, x in enumerate(row):
            assert x == (snf.diagonal_entry(i) if i == j else 0)
    assert all(d > 0 for d in snf.diag)
    for x, y in zip(snf.diag, snf.diag[1:]):
        assert y % x == 0
    assert abs(snf.U.det()) == 1 and abs(snf.V.det()) == 1


def int_matrices(entries, min_side=1, max_side=6):
    shape = st.tuples(st.integers(min_side, max_side), st.integers(min_side, max_side))
    return shape.flatmap(
        lambda rc: st.lists(
            st.lists(entries, min_size=rc[1], max_size=rc[1]), min_size=rc[0], max_size=rc[0]
        )
    ).map(IntMatrix.from_rows)


@settings(max_examples=200, deadline=None)
@given(int_matrices(st.integers(-9, 9) | st.integers(-1000, 1000)))
def test_snf_invariants_property(a):
    assert_snf_invariants(a, smith_normal_form(a))


# Every entry above the int64 path's guard: the first reduction step leaves
# the pivot in place and trips the guard, so the object-dtype path runs.
BIG = st.integers(2**32, 2**40).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=50, deadline=None)
@given(int_matrices(BIG, min_side=2, max_side=4))
def test_snf_big_int_fallback_property(a):
    with mock.patch.object(scaling, "_snf_inplace", wraps=scaling._snf_inplace) as spy:
        snf = smith_normal_form(a)
    assert [c.kwargs["guard"] for c in spy.call_args_list] == [True, False]
    assert_snf_invariants(a, snf)


def test_exponent_matrix_ex41():
    s = parse_system("unknowns x; parameters p; equations x^2 + p*x + 1;")
    a = exponent_difference_matrix(s)
    assert (a.rows, a.cols) == (2, 2)
    # canonical term order x^2, p*x, 1: columns px - x^2 and 1 - x^2
    assert a.data == ((-1, -2), (1, 0))


def test_exponent_matrix_single_term_equations():
    s = parse_system("unknowns x, y; parameters p; equations x*y; y + p;")
    a = exponent_difference_matrix(s)
    assert a.cols == 1  # single-term first equation contributes nothing


def test_exponent_matrix_skips_patches():
    s = parse_system(
        "unknowns x, y; parameters p; equations x^2 + p; patch 2*y - 1;"
    )
    aa = exponent_difference_matrix(s)
    assert aa.cols == 1


def test_ex57_lattice():
    s = parse_system(EX57)
    lat = detect_scalings(s)
    assert lat.free_rank == 1
    row = lat.free.data[0]
    expected = (0, 1, 1, 1, 1, 2, 3)
    assert row == expected or tuple(-v for v in row) == expected
    assert len(lat.torsion) == 1
    assert lat.torsion[0].modulus == 2
    assert lat.torsion[0].rank == 2
    for eq in s.equations:
        assert equation_weight(row, eq) is not None


def test_free_rows_are_exact_null_vectors():
    s = parse_system(EX57)
    a = exponent_difference_matrix(s)
    lat = detect_scalings(s)
    for row in lat.free.data:
        for col in zip(*a.data):
            assert sum(u * c for u, c in zip(row, col)) == 0


def test_torsion_rows_null_mod_d():
    s = parse_system(EX57)
    a = exponent_difference_matrix(s)
    lat = detect_scalings(s)
    for blk in lat.torsion:
        for row in blk.rows.data:
            for col in zip(*a.data):
                assert sum(u * c for u, c in zip(row, col)) % blk.modulus == 0


def test_free_scaling_quasi_homogeneity_numeric():
    s = parse_system(EX57)
    lat = detect_scalings(s)
    rng = np.random.default_rng(4)
    row = lat.free.data[0]
    for _ in range(5):
        pt = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
        scaled = apply_scaling(row, lam, pt)
        for eq in s.equations:
            w = equation_weight(row, eq)
            lhs = eq.evaluate(scaled)
            rhs = lam**w * eq.evaluate(pt)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_full_row_rank_no_scalings():
    s = parse_system("unknowns x, y; parameters p; equations x^2 + y + p + 1; y^3 + x + 2;")
    lat = detect_scalings(s)
    assert lat.is_empty()


def test_multidegree_zero_and_additivity():
    s = parse_system(EX57)
    lat = detect_scalings(s)
    zero = multidegree((0,) * 7, lat)
    assert all(v == 0 for v in zero.free)
    rng = np.random.default_rng(8)
    for _ in range(20):
        e1 = tuple(int(v) for v in rng.integers(0, 4, 7))
        e2 = tuple(int(v) for v in rng.integers(0, 4, 7))
        s12 = multidegree(tuple(a + b for a, b in zip(e1, e2)), lat)
        d1, d2 = multidegree(e1, lat), multidegree(e2, lat)
        assert s12.free == tuple(a + b for a, b in zip(d1.free, d2.free))
        for blk, ta, tb, ts in zip(lat.torsion, d1.torsion, d2.torsion, s12.torsion):
            assert ts == tuple((a + b) % blk.modulus for a, b in zip(ta, tb))


def test_multidegrees_bulk_matches_scalar():
    s = parse_system(EX57)
    lat = detect_scalings(s)
    rng = np.random.default_rng(9)
    exps = [tuple(int(v) for v in rng.integers(0, 3, 7)) for _ in range(40)]
    assert multidegrees_bulk(exps, lat) == [multidegree(e, lat) for e in exps]


def test_denominator_multidegree():
    s = parse_system(EX57)
    lat = detect_scalings(s)
    e = (0, 2, 1, 0, 1, 0, 0)
    md = multidegree(e, lat)
    dd = denominator_multidegree(md, lat, 1)
    col = tuple(row[1] for row in lat.free.data)
    assert dd.free == tuple(a - b for a, b in zip(md.free, col))
    # numerator class equal to the coordinate's own column -> zero denominator class
    ej = (0, 1, 0, 0, 0, 0, 0)
    zero = denominator_multidegree(multidegree(ej, lat), lat, 1)
    assert all(v == 0 for v in zero.free)
    assert all(all(v == 0 for v in part) for part in zero.torsion)
    with pytest.raises(ValueError):
        denominator_multidegree(md, lat, 99)


def test_unimodularity_checked():
    a = IntMatrix.from_rows([[6, 4, 2], [4, 8, 6]])
    snf = smith_normal_form(a)
    assert abs(snf.U.det()) == 1
    assert abs(snf.V.det()) == 1


# ---------------------------------------------------------------------------
# Probability-one filtering (needs monodromy results; see conftest fixtures)
# ---------------------------------------------------------------------------

from decksym.permgrp import centralizer_in_symmetric, identity
from decksym.scaling import ScalingLattice, TorsionBlock, commuting_discrete_scalings


def _deck(result):
    return [p for p in centralizer_in_symmetric(result.group()) if p != identity(result.degree)]


def test_sextic_flip_scaling_survives_filter(mono_sextic):
    system, result, cfg, rng = mono_sextic
    lat = detect_scalings(system)
    assert lat.free_rank == 1
    assert len(lat.torsion) == 1 and lat.torsion[0].modulus == 2
    out = commuting_discrete_scalings(lat, system, result, _deck(result), cfg.tracker, rng)
    assert len(out.lattice.torsion) == 1
    assert out.lattice.torsion[0].rank == 1
    assert all(c.status == "passed" for c in out.candidates)


def test_filter_without_tracked_fibers_keeps_nothing(mono_ex57, monkeypatch):
    """Fault injection: when no path tracks after monodromy, every candidate
    is undetermined after three gammas, one failed path each, and no torsion
    block survives."""
    from decksym import tracker

    system, result, cfg, _ = mono_ex57
    lat = detect_scalings(system)
    calls = []

    def fail(*args, **kwargs):
        calls.append(1)
        return tracker.PathResult("singular", None, 0, np.inf)

    monkeypatch.setattr(tracker, "track_path", fail)
    out = commuting_discrete_scalings(
        lat, system, result, _deck(result), cfg.tracker, np.random.default_rng(0)
    )
    assert len(out.candidates) > 1
    assert {c.status for c in out.candidates} == {"undetermined"}
    assert out.lattice.torsion == ()
    # Each attempt stops at its first failed path, so 3 paths per candidate.
    assert len(calls) == 3 * len(out.candidates)


def test_filter_path_budget(mono_sextic, monkeypatch):
    """The filter tracks the scaled deck orbit per candidate straight to the
    base fiber, and the orbit again to retrace a passing one; it tracks no
    other fiber."""
    from decksym import tracker

    system, result, cfg, _ = mono_sextic
    deck = _deck(result)
    real = tracker.track_path
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(tracker, "track_path", counting)
    out = commuting_discrete_scalings(
        detect_scalings(system), system, result, deck, cfg.tracker, np.random.default_rng(1)
    )
    orbit = 1 + len(deck)
    passed = sum(c.status == "passed" for c in out.candidates)
    assert passed == len(out.candidates) == 1
    assert orbit < result.degree
    assert len(calls) == orbit * len(out.candidates) + orbit * passed


def test_coinciding_scaled_orbit_is_undetermined(mono_sextic, monkeypatch):
    """Scaled orbit points that coincide decide nothing, before any path."""
    from decksym import tracker

    system, result, cfg, _ = mono_sextic
    first = []

    def collapse(system, lattice, point):
        first.append(point)
        return first[0]

    monkeypatch.setattr(scaling, "repatch_point", collapse)
    monkeypatch.setattr(tracker, "track_path", None)
    out = commuting_discrete_scalings(
        detect_scalings(system), system, result, _deck(result), cfg.tracker,
        np.random.default_rng(1),
    )
    assert [c.status for c in out.candidates] == ["undetermined"]
    assert len(first) == 2


def test_stability_failure_costs_one_path(mono_ex57, monkeypatch):
    """s(x_0) is tracked first: a candidate that leaves the tracked component
    is decided after one path, not after the whole scaled orbit."""
    from decksym import tracker

    system, result, cfg, _ = mono_ex57
    deck = _deck(result)
    real = tracker.track_path
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(tracker, "track_path", counting)
    out = commuting_discrete_scalings(
        detect_scalings(system), system, result, deck, cfg.tracker, np.random.default_rng(1)
    )
    statuses = [c.status for c in out.candidates]
    assert statuses == ["failed_stability", "failed_stability", "failed_commutation"]
    orbit = 1 + len(deck)
    assert orbit == result.degree == 6
    # one path per stability failure, the whole orbit for the commutation
    # failure
    assert len(calls) == 1 + 1 + orbit


def test_sheet_jump_on_retrace_never_passes(mono_sextic, monkeypatch):
    """Fault injection: the sextic flip passes, but when every retrace comes
    back away from the scaled orbit (as after a sheet jump), it cannot."""
    from decksym import tracker

    system, result, cfg, _ = mono_sextic
    real = tracker.track_fiber
    retraced = []

    def jumpy(system, fiber, p_to, cfg, **kwargs):
        out = real(system, fiber, p_to, cfg, **kwargs)
        if np.array_equal(fiber.params, result.base.params):
            retraced.append(1)
            return tracker.FiberSample(out.params, tuple(s + 1e-3 for s in out.solutions))
        return out

    monkeypatch.setattr(tracker, "track_fiber", jumpy)
    out = commuting_discrete_scalings(
        detect_scalings(system), system, result, _deck(result), cfg.tracker,
        np.random.default_rng(1),
    )
    assert [c.status for c in out.candidates] == ["undetermined"]
    assert out.lattice.torsion == ()
    assert len(retraced) == 3


def test_transient_path_failure_retries_with_a_fresh_gamma(mono_sextic, monkeypatch):
    """One failed path costs one attempt: the sextic flip passes on its
    second gamma, with the orbit tracked and retraced once."""
    from decksym import tracker

    system, result, cfg, _ = mono_sextic
    deck = _deck(result)
    real = tracker.track_path
    gammas = []

    def fail_first(system, x, p_from, p_to, cfg, gamma=None, **kwargs):
        gammas.append(gamma)
        if len(gammas) == 1:
            return tracker.PathResult("singular", None, 0, np.inf)
        return real(system, x, p_from, p_to, cfg, gamma=gamma, **kwargs)

    monkeypatch.setattr(tracker, "track_path", fail_first)
    out = commuting_discrete_scalings(
        detect_scalings(system), system, result, deck, cfg.tracker, np.random.default_rng(1)
    )
    assert [c.status for c in out.candidates] == ["passed"]
    assert out.lattice.torsion[0].rank == 1
    orbit = 1 + len(deck)
    first, second = gammas[0], gammas[1]
    assert second != first
    assert gammas[1:] == [second] * orbit + [1.0 / second] * orbit


def test_ex57_all_candidates_rejected(mono_ex57):
    system, result, cfg, rng = mono_ex57
    lat = detect_scalings(system)
    deck = _deck(result)
    assert len(deck) == 5  # full S3 deck group
    out = commuting_discrete_scalings(lat, system, result, deck, cfg.tracker, rng)
    assert out.lattice.torsion == ()
    # candidates flipping x1 leave the tracked component; the rest fail to
    # commute with the deck action
    for cand in out.candidates:
        if cand.vector[0] % 2 == 1:
            assert cand.status == "failed_stability"
        else:
            assert cand.status == "failed_commutation"


def test_ex57_literal_flips(mono_ex57):
    system, result, cfg, rng = mono_ex57
    lat = detect_scalings(system)
    x1_flip = TorsionBlock(2, IntMatrix.from_rows([[1, 0, 0, 0, 0, 0, 0]]))
    x4_flip = TorsionBlock(2, IntMatrix.from_rows([[0, 0, 0, 1, 0, 0, 0]]))
    hand = ScalingLattice(7, lat.free, (x1_flip,))
    out = commuting_discrete_scalings(hand, system, result, _deck(result), cfg.tracker, rng)
    assert [c.status for c in out.candidates] == ["failed_stability"]
    hand = ScalingLattice(7, lat.free, (x4_flip,))
    out = commuting_discrete_scalings(hand, system, result, _deck(result), cfg.tracker, rng)
    assert [c.status for c in out.candidates] == ["failed_commutation"]
