from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    equation_weight,
    int_det,
    int_matmul,
    lattice_is_empty,
    multidegree,
    record_paths,
    serial_decide,
    snf_verifies,
    track_paths_one_by_one,
)
from decksym import scaling, tracker
from decksym.expr import parse_system
from decksym.scaling import (
    ScalingLattice,
    apply_scaling,
    denominator_multidegree,
    detect_scalings,
    exponent_difference_matrix,
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


def test_snf_single_row_gcd():
    snf = smith_normal_form([[4, 6]])
    assert snf.diag == (2,)
    assert snf_verifies(snf, [[4, 6]])


def test_snf_identity():
    snf = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert snf.diag == (1, 1, 1)


def test_snf_zero_matrix():
    a = ((0, 0), (0, 0))
    snf = smith_normal_form(a)
    assert snf.diag == ()
    assert snf_verifies(snf, a)


def test_snf_divisor_chain():
    snf = smith_normal_form([[2, 0], [0, 4]])
    assert snf.diag == (2, 4)


def test_snf_random_property():
    rng = np.random.default_rng(19)
    for _ in range(30):
        r = int(rng.integers(1, 7))
        c = int(rng.integers(1, 7))
        a = rng.integers(-9, 10, (r, c)).tolist()
        snf = smith_normal_form(a)
        assert snf_verifies(snf, a)
        nonzero = [d for d in snf.diag if d != 0]
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0 and x > 0


def test_snf_fallback_large_entries():
    a = ((2**40, 3**25), (5**17, 7**13))
    snf = smith_normal_form(a)
    assert snf_verifies(snf, a)


def assert_snf_invariants(a, snf):
    prod = int_matmul(int_matmul(snf.U, a), snf.V)
    for i, row in enumerate(prod):
        for j, x in enumerate(row):
            assert x == (snf.diag[i] if i == j < len(snf.diag) else 0)
    assert all(d > 0 for d in snf.diag)
    for x, y in zip(snf.diag, snf.diag[1:]):
        assert y % x == 0
    assert abs(int_det(snf.U)) == 1 and abs(int_det(snf.V)) == 1


def int_matrices(entries, min_side=1, max_side=6):
    shape = st.tuples(st.integers(min_side, max_side), st.integers(min_side, max_side))
    return shape.flatmap(
        lambda rc: st.lists(
            st.lists(entries, min_size=rc[1], max_size=rc[1]), min_size=rc[0], max_size=rc[0]
        )
    ).map(lambda rows: tuple(map(tuple, rows)))


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
    # canonical term order x^2, p*x, 1: columns px - x^2 and 1 - x^2
    assert a == ((-1, -2), (1, 0))


def test_exponent_matrix_single_term_equations():
    s = parse_system("unknowns x, y; parameters p; equations x*y; y + p;")
    a = exponent_difference_matrix(s)
    assert len(a[0]) == 1  # single-term first equation contributes nothing


def test_exponent_matrix_skips_patches():
    s = parse_system(
        "unknowns x, y; parameters p; equations x^2 + p; patch 2*y - 1;"
    )
    aa = exponent_difference_matrix(s)
    assert len(aa[0]) == 1


def test_ex57_lattice():
    s = parse_system(EX57)
    lat = detect_scalings(s)
    assert lat.moduli == (0, 2, 2)
    row = lat.rows[0]
    expected = (0, 1, 1, 1, 1, 2, 3)
    assert row == expected or tuple(-v for v in row) == expected
    for eq in s.equations:
        assert equation_weight(row, eq) is not None


def test_free_rows_are_exact_null_vectors():
    s = parse_system(EX57)
    a = exponent_difference_matrix(s)
    lat = detect_scalings(s)
    for row in lat.free:
        for col in zip(*a):
            assert sum(u * c for u, c in zip(row, col)) == 0


def test_torsion_rows_null_mod_d():
    s = parse_system(EX57)
    a = exponent_difference_matrix(s)
    lat = detect_scalings(s)
    for d, rows in lat.torsion.items():
        for row in rows:
            for col in zip(*a):
                assert sum(u * c for u, c in zip(row, col)) % d == 0


def test_free_scaling_quasi_homogeneity_numeric():
    s = parse_system(EX57)
    lat = detect_scalings(s)
    rng = np.random.default_rng(4)
    row = lat.free[0]
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
    assert lattice_is_empty(lat)


def test_multidegree_zero_and_additivity():
    s = parse_system(EX57)
    lat = detect_scalings(s)
    assert multidegree((0,) * 7, lat) == (0,) * len(lat.rows)
    rng = np.random.default_rng(8)
    for _ in range(20):
        e1 = tuple(int(v) for v in rng.integers(0, 4, 7))
        e2 = tuple(int(v) for v in rng.integers(0, 4, 7))
        s12 = multidegree(tuple(a + b for a, b in zip(e1, e2)), lat)
        d1, d2 = multidegree(e1, lat), multidegree(e2, lat)
        assert s12 == tuple(
            (a + b) % d if d else a + b for a, b, d in zip(d1, d2, lat.moduli)
        )


@settings(max_examples=200, deadline=None)
@given(
    int_matrices(st.integers(-9, 9)),
    st.lists(st.tuples(*[st.integers(0, 4)] * 6), min_size=1, max_size=20),
)
@example(((2, 0), (0, 4), (0, 0)), [(1, 2, 3, 0, 0, 0), (0, 1, 1, 0, 0, 0)])
def test_lattice_rows_and_multidegrees_property(a, exponents):
    """The lattice of the SNF of a random integer matrix A: the free rows
    first, then the torsion rows by ascending modulus, one row per diagonal
    divisor other than 1.  A free row is an exact left-null vector of A, and
    a row of modulus d a left-null vector mod d with entries in [0, d).
    Random matrices give several moduli at once (the example: Z2, Z4 and one
    free row), the one case where row order decides interpolation's class
    order.  On exponent vectors e (``exponents`` cut to A's row count),
    ``multidegrees_bulk`` equals the term-by-term reference, and the
    denominator class of coordinate j of the class of e is the class of
    e - unit_j."""
    snf = smith_normal_form(a)
    lat = scaling.extract_scaling_lattice(snf, len(a))
    assert list(lat.moduli) == sorted(lat.moduli)
    assert len(lat.rows) == len(a) - snf.diag.count(1)
    for row, d in zip(lat.rows, lat.moduli):
        weights = [sum(u * c for u, c in zip(row, col)) for col in zip(*a)]
        if d == 0:
            assert not any(weights)
        else:
            assert d > 1 and all(0 <= u < d for u in row)
            assert all(w % d == 0 for w in weights)
    exps = [e[: len(a)] for e in exponents]
    mds = multidegrees_bulk(exps, lat)
    assert mds == [multidegree(e, lat) for e in exps]
    for e, md in zip(exps, mds):
        for j in (j for j in range(len(a)) if e[j]):
            below = e[:j] + (e[j] - 1,) + e[j + 1 :]
            assert denominator_multidegree(md, lat, j) == multidegree(below, lat)


def test_denominator_multidegree():
    s = parse_system(EX57)
    lat = detect_scalings(s)
    e = (0, 2, 1, 0, 1, 0, 0)
    md = multidegree(e, lat)
    assert denominator_multidegree(md, lat, 1) == multidegree((0, 1, 1, 0, 1, 0, 0), lat)
    # numerator class equal to the coordinate's own column -> zero denominator class
    ej = (0, 1, 0, 0, 0, 0, 0)
    zero = denominator_multidegree(multidegree(ej, lat), lat, 1)
    assert zero == (0,) * len(lat.rows)
    with pytest.raises(ValueError):
        denominator_multidegree(md, lat, 99)


def test_unimodularity_checked():
    a = ((6, 4, 2), (4, 8, 6))
    snf = smith_normal_form(a)
    assert abs(int_det(snf.U)) == 1
    assert abs(int_det(snf.V)) == 1


# ---------------------------------------------------------------------------
# Probability-one filtering (needs monodromy results; see conftest fixtures)
# ---------------------------------------------------------------------------

from decksym.permgrp import centralizer_in_symmetric, identity
from decksym.scaling import commuting_discrete_scalings


def _deck(result):
    return [p for p in centralizer_in_symmetric(result.group()) if p != identity(result.degree)]


def test_sextic_flip_scaling_survives_filter(mono_sextic):
    system, result, rng = mono_sextic
    lat = detect_scalings(system)
    assert lat.moduli == (0, 2)
    out = commuting_discrete_scalings(lat, system, result, _deck(result), rng)
    assert out.lattice.moduli == (0, 2)
    assert all(c.status == "passed" for c in out.candidates)


def test_filter_without_tracked_fibers_keeps_nothing(mono_ex57, monkeypatch):
    """Fault injection: when no path tracks after monodromy, every candidate
    is undetermined after three gammas, one failed path each, and no torsion
    block survives.  Each of the three rounds tracks the s(x_0) of all 3 of
    ex5_7's candidates, and every one retries: 9 paths, none unused (the
    paths, from ``tracker.track_paths``, recorded one by one)."""
    from decksym import tracker

    system, result, _ = mono_ex57
    lat = detect_scalings(system)
    calls = []

    def fail(*args, **kwargs):
        calls.append(1)
        return tracker.PathResult("singular", None, 0, np.inf)

    monkeypatch.setattr(tracker, "track_path", fail)
    track_paths_one_by_one(monkeypatch)
    out = commuting_discrete_scalings(
        lat, system, result, _deck(result), np.random.default_rng(0)
    )
    assert len(out.candidates) > 1
    assert {c.status for c in out.candidates} == {"undetermined"}
    assert out.lattice.torsion == {}
    # Each attempt stops at its failed s(x_0) path: 3 paths per candidate.
    assert len(out.candidates) == 3
    assert len(calls) == 3 * len(out.candidates) == 9


def test_filter_path_budget(mono_sextic, monkeypatch):
    """The filter tracks the scaled deck orbit per candidate straight to the
    base fiber, and the orbit again to retrace a passing one or a commutation
    failure; it tracks no other fiber.  The retrace enters through
    ``tracker.track_paths``, whose paths are counted one by one."""
    from decksym import tracker

    system, result, _ = mono_sextic
    deck = _deck(result)
    real = tracker.track_path
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(tracker, "track_path", counting)
    track_paths_one_by_one(monkeypatch)
    out = commuting_discrete_scalings(
        detect_scalings(system), system, result, deck, np.random.default_rng(1)
    )
    orbit = 1 + len(deck)
    passed = sum(c.status == "passed" for c in out.candidates)
    commutation = sum(c.status == "failed_commutation" for c in out.candidates)
    assert passed == len(out.candidates) == 1
    assert orbit < result.degree
    assert len(calls) == orbit * len(out.candidates) + orbit * (passed + commutation)


def test_coinciding_scaled_orbit_is_undetermined(mono_sextic, monkeypatch):
    """Scaled orbit points that coincide decide nothing, before any path."""
    from decksym import tracker

    system, result, _ = mono_sextic
    first = []

    def collapse(system, lattice, point):
        first.append(point)
        return first[0]

    monkeypatch.setattr(scaling, "repatch_point", collapse)
    monkeypatch.setattr(tracker, "track_path", None)
    track_paths_one_by_one(monkeypatch)
    out = commuting_discrete_scalings(
        detect_scalings(system), system, result, _deck(result),
        np.random.default_rng(1),
    )
    assert [c.status for c in out.candidates] == ["undetermined"]
    assert len(first) == 2


def test_stability_failure_costs_one_path(mono_ex57, monkeypatch):
    """s(x_0) is tracked first: a candidate that leaves the tracked component
    is decided after one path, not after the whole scaled orbit.  A
    commutation failure is final only after its round trip, so it costs
    the orbit twice (the paths, from ``tracker.track_paths``, recorded one
    by one)."""
    from decksym import tracker

    system, result, _ = mono_ex57
    deck = _deck(result)
    real = tracker.track_path
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(tracker, "track_path", counting)
    track_paths_one_by_one(monkeypatch)
    out = commuting_discrete_scalings(
        detect_scalings(system), system, result, deck, np.random.default_rng(1)
    )
    statuses = [c.status for c in out.candidates]
    assert statuses == ["failed_stability", "failed_stability", "failed_commutation"]
    orbit = 1 + len(deck)
    assert orbit == result.degree == 6
    # one path per stability failure, the whole orbit out and back for the
    # commutation failure
    assert len(calls) == 1 + 1 + 2 * orbit


def test_sheet_jump_on_retrace_never_passes(mono_sextic, monkeypatch):
    """Fault injection: the sextic flip passes, but when every retrace comes
    back away from the scaled orbit (as after a sheet jump), it cannot."""
    from decksym import tracker

    system, result, _ = mono_sextic
    real = tracker.track_fiber
    retraced = []

    def jumpy(system, fibers, targets, gammas):
        out = real(system, fibers, targets, gammas)
        for k, (fiber, back) in enumerate(zip(fibers, out)):
            if back is not None and np.array_equal(fiber.params, result.base.params):
                retraced.append(1)
                out[k] = tracker.FiberSample(back.params, tuple(s + 1e-3 for s in back.solutions))
        return out

    monkeypatch.setattr(tracker, "track_fiber", jumpy)
    out = commuting_discrete_scalings(
        detect_scalings(system), system, result, _deck(result),
        np.random.default_rng(1),
    )
    assert [c.status for c in out.candidates] == ["undetermined"]
    assert out.lattice.torsion == {}
    assert len(retraced) == 3


def test_transient_path_failure_retries_with_a_fresh_gamma(mono_sextic, monkeypatch):
    """One failed path costs one attempt: the sextic flip passes on its
    second gamma, with the orbit tracked and retraced once (the retrace's
    paths, from ``tracker.track_paths``, recorded one by one)."""
    from decksym import tracker

    system, result, _ = mono_sextic
    deck = _deck(result)
    real = tracker.track_path
    gammas = []

    def fail_first(system, x, p_from, p_to, gamma=None, **kwargs):
        gammas.append(gamma)
        if len(gammas) == 1:
            return tracker.PathResult("singular", None, 0, np.inf)
        return real(system, x, p_from, p_to, gamma=gamma, **kwargs)

    monkeypatch.setattr(tracker, "track_path", fail_first)
    track_paths_one_by_one(monkeypatch)
    out = commuting_discrete_scalings(
        detect_scalings(system), system, result, deck, np.random.default_rng(1)
    )
    assert [c.status for c in out.candidates] == ["passed"]
    assert len(out.lattice.torsion[2]) == 1
    orbit = 1 + len(deck)
    first, second = gammas[0], gammas[1]
    assert second != first
    assert gammas[1:] == [second] * orbit + [1.0 / second] * orbit


def test_ex57_all_candidates_rejected(mono_ex57):
    system, result, rng = mono_ex57
    lat = detect_scalings(system)
    deck = _deck(result)
    assert len(deck) == 5  # full S3 deck group
    out = commuting_discrete_scalings(lat, system, result, deck, rng)
    assert out.lattice.torsion == {}
    # candidates flipping x1 leave the tracked component; the rest fail to
    # commute with the deck action
    for cand in out.candidates:
        if cand.vector[0] % 2 == 1:
            assert cand.status == "failed_stability"
        else:
            assert cand.status == "failed_commutation"


def test_ex57_literal_flips(mono_ex57):
    system, result, rng = mono_ex57
    lat = detect_scalings(system)
    moduli = (0,) * len(lat.free) + (2,)
    x1_flip = ScalingLattice(7, lat.free + ((1, 0, 0, 0, 0, 0, 0),), moduli)
    x4_flip = ScalingLattice(7, lat.free + ((0, 0, 0, 1, 0, 0, 0),), moduli)
    out = commuting_discrete_scalings(x1_flip, system, result, _deck(result), rng)
    assert [c.status for c in out.candidates] == ["failed_stability"]
    out = commuting_discrete_scalings(x4_flip, system, result, _deck(result), rng)
    assert [c.status for c in out.candidates] == ["failed_commutation"]


def run_filter(monkeypatch, system, result, seed, reference, alter=None):
    """The filter on the result's fiber at an rng seed, with every path of
    ``tracker.track_paths`` recorded (``alter`` may replace its results),
    and with ``tests/conftest.py``'s reference (``serial_decide``, each
    attempt's paths tracked alone) when ``reference`` is set; the outcomes,
    the next draw of the rng, the paths and the call sizes."""
    from decksym import tracker

    calls = []
    real = tracker.track_paths

    def counting(system, starts, *args):
        calls.append(len(starts))
        return real(system, starts, *args)

    monkeypatch.setattr(tracker, "track_paths", counting)
    paths = record_paths(monkeypatch, alter)
    if reference:
        monkeypatch.setattr(scaling, "_decide", serial_decide)
    rng = np.random.default_rng(seed)
    out = commuting_discrete_scalings(
        detect_scalings(system), system, result, _deck(result), rng
    )
    monkeypatch.undo()
    outcomes = [(c.modulus, c.vector, c.status) for c in out.candidates]
    return (outcomes, out.lattice, rng.random()), paths, calls


@pytest.fixture
def p3p_mono(p3p_orbit):
    system, result, _ = p3p_orbit
    return system, result


@pytest.mark.parametrize(
    "case, seed",
    [
        pytest.param("p3p_mono", 5, id="p3p_mono"),
        pytest.param("mono_sextic", 5, id="mono_sextic"),
        pytest.param("mono_ex57", 5, id="mono_ex57"),
        # P3P candidates retry where no fault is injected: a round trip that
        # does not come back (seeds 6, 14 and 25), a failed path from s(x_0)
        # (seed 4) or from the rest of an orbit (seed 39), and an orbit that
        # lands on matched points that do not commute (seed 19).
        *(
            pytest.param("p3p_mono", seed, id=f"p3p_mono-seed{seed}")
            for seed in [4, 6, 14, 25, 39, 19]
        ),
    ],
)
def test_filter_bit_identical_to_one_candidate_at_a_time(request, monkeypatch, case, seed):
    """Tracking in lockstep rounds leaves every outcome, the lattice, the
    rng's draws and the paths (start, arc and gamma) of the reference, which
    decides each round one candidate at a time, each path alone at its turn.
    Every row tracked serves its own candidate's attempt, so none goes
    unused, and the filter makes at most three calls a round."""
    system, result = request.getfixturevalue(case)[:2]
    got, paths, calls = run_filter(monkeypatch, system, result, seed, reference=False)
    want, want_paths, _ = run_filter(monkeypatch, system, result, seed, reference=True)
    assert got == want
    assert Counter(paths) == Counter(want_paths)
    assert len(calls) <= 3 * tracker.SAMPLE_ATTEMPTS == 9


def test_p3p_filter_paths_go_out_in_rounds(p3p_orbit, monkeypatch):
    """P3P at rng seed 0: 31 candidates, 16 of which fail at s(x_0) and 15
    pass; 31 + 15 paths out and 15 round trips of 2, 76 paths, none unused.
    No candidate retries, so one round decides all 31 in three calls: every
    s(x_0), the second orbit point of the 15 that stayed, and their 15 round
    trips.  3 calls instead of one per path and per round trip, 61."""
    system, result, _ = p3p_orbit
    got, paths, calls = run_filter(monkeypatch, system, result, 0, reference=False)
    want, want_paths, want_calls = run_filter(monkeypatch, system, result, 0, reference=True)
    assert got == want
    assert Counter(paths) == Counter(want_paths)
    statuses = Counter(status for _, _, status in got[0])
    assert statuses == {"failed_stability": 16, "passed": 15}
    assert (len(paths), len(want_calls)) == (76, 61)
    assert calls == [31, 15, 30]


def scaled_orbit(system, result, index):
    """The scaled orbit (s(x_0), s(x_sigma(0)), ...) of candidate ``index``
    of a system with one Z2 torsion block, such as P3P or the sextic."""
    from decksym.monodromy import deck_orbit

    lattice = detect_scalings(system)
    ((d, rows),) = lattice.torsion.items()
    u = scaling._enumerate_candidates(d, rows)[0][index]
    _, _, orbit = deck_orbit(result, _deck(result))
    return scaling._scaled_orbit(system, lattice, orbit, u, -1.0 + 0j).solutions


def test_filter_retry_bit_identical_and_its_unused_paths_bounded(p3p_orbit, monkeypatch):
    """Fault injection: the first path from s(x_0) of P3P's candidate 1
    fails, so candidate 1 retries in a second round of its own.  The
    outcomes, the rng's draws and every path are the reference's, and no
    row goes unused: the first round's three calls, and a second round of
    three calls over candidate 1 alone."""
    system, result, _ = p3p_orbit
    start = scaled_orbit(system, result, 1)[0].tobytes()

    def run(reference):
        failed = []

        def fail_once(key, r):
            if key[0] == start and not failed:
                failed.append(key)
                return tracker.PathResult("singular", None, 0, np.inf)
            return r

        out = run_filter(monkeypatch, system, result, 0, reference, fail_once)
        return out, failed

    (got, paths, calls), failed = run(reference=False)
    (want, want_paths, _), want_failed = run(reference=True)
    assert got == want and failed == want_failed
    assert Counter(paths) == Counter(want_paths)
    # Candidate 1 retried and passed on its second gamma.
    assert [status for _, _, status in got[0]][:2] == ["failed_stability", "passed"]
    assert calls == [31, 14, 28, 1, 1, 2]


def test_p3p_filter_without_tracked_paths_bounds_its_unused_paths(p3p_orbit, monkeypatch):
    """Fault injection: every path fails, so each of P3P's 31 candidates is
    undetermined after 3 attempts of one path.  Every round holds all 31
    and tracks only their s(x_0): 93 paths in three calls, none unused."""
    system, result, _ = p3p_orbit
    calls = []

    def fail(system, starts, p_from, p_to, gammas):
        calls.append(len(starts))
        return [tracker.PathResult("singular", None, 0, np.inf)] * len(starts)

    monkeypatch.setattr(tracker, "track_paths", fail)
    out = commuting_discrete_scalings(
        detect_scalings(system), system, result, _deck(result), np.random.default_rng(0)
    )
    assert [c.status for c in out.candidates] == ["undetermined"] * 31
    assert calls == [31, 31, 31] and sum(calls) == 3 * 31 == 93


def test_p3p_filter_labels_hold_when_an_orbit_lands_off_the_deck_action(p3p_mono):
    """At filter rng seed 19, candidate 12's first attempt lands its scaled
    orbit on matched base points that do not commute with the deck map.
    Its round trip does not come back, so it retries and passes, and every
    label is criterion 5's; deciding that landing without a round trip
    called candidate 12 a commutation failure."""
    from test_acceptance import QUASIHOM_FILTER_LABELS, assert_filter_labels

    system, result = p3p_mono
    out = commuting_discrete_scalings(
        detect_scalings(system), system, result, _deck(result), np.random.default_rng(19)
    )
    assert_filter_labels(out, QUASIHOM_FILTER_LABELS)
    assert [(d, len(rows)) for d, rows in out.lattice.torsion.items()] == [(2, 4)]


def test_a_sheet_jump_to_points_that_do_not_commute_retries(mono_sextic, monkeypatch):
    """Fault injection: on the first attempt, the path from orbit point 1 of
    the sextic flip ends on a base solution outside the deck orbit of where
    s(x_0) landed.  The orbit lands on distinct matched points that do not
    commute, but the jumped path does not retrace, so the flip retries and
    passes on its second gamma instead of failing commutation."""
    system, result, _ = mono_sextic
    deck, base = _deck(result), result.base.solutions
    orbit = scaled_orbit(system, result, 0)
    size = len(orbit)
    landed, jumped = [], []

    def jump(key, r):
        if key[0] == orbit[0].tobytes() and not landed:
            landed.append(tracker.match(r.endpoint, base))
        elif key[0] == orbit[1].tobytes() and not jumped:
            mates = {landed[0], *(sigma[landed[0]] for sigma in deck)}
            jumped.append(min(set(range(len(base))) - mates))
            end = base[jumped[0]].copy()
            return tracker.PathResult("success", end, r.steps_taken, r.final_residual)
        return r

    got, _, calls = run_filter(monkeypatch, system, result, 1, reference=False, alter=jump)
    assert [status for _, _, status in got[0]] == ["passed"]
    assert len(jumped) == 1 and size < result.degree
    assert calls == [1, size - 1, size] * 2
