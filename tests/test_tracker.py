import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_system, max_residual, serial_sample_fiber
from decksym import tracker
from decksym.expr import parse_seed_pair, parse_system
from decksym.fixtures import seed_path
from decksym.tracker import (
    AMBIGUOUS,
    MATCH_TOL,
    NEW,
    FiberSample,
    NewtonError,
    compiled,
    match,
    newton_polish,
    track_fiber,
    track_path,
)

EX41 = parse_system("unknowns x; parameters p; equations x^2 + p*x + 1;")
SEXTIC = parse_system(
    "unknowns x; parameters a, b, c, d;"
    "equations a*x^6 + b*x^5 + c*x^4 + d*x^3 + c*x^2 + b*x + a;"
)


def quadratic_roots(p):
    disc = np.sqrt(complex(p * p - 4))
    return (-p + disc) / 2, (-p - disc) / 2


def test_compiled_evaluation_matches_symbolic():
    rng = np.random.default_rng(3)
    comp = compiled(SEXTIC)
    for _ in range(5):
        x = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        z = np.concatenate([x, p])
        f = comp.f_at(x, p)
        assert abs(f[0] - SEXTIC.equations[0].evaluate(z)) < 1e-12 * (1 + abs(f[0]))
        jx = comp.jx_at(x, p)
        dfdx = SEXTIC.equations[0].differentiate(0).evaluate(z)
        assert abs(jx[0, 0] - dfdx) < 1e-12 * (1 + abs(dfdx))


def test_identity_path_returns_start():
    r = track_path(EX41, [2.0], [-2.5], [-2.5], gamma=1.0)
    assert r.success
    assert abs(r.endpoint[0] - 2.0) < 1e-10


def test_track_to_nearby_parameter_continuity():
    # x = 2 over p = -2.5 continues to the root of x^2 - 3x + 1 near 2.
    gamma = tracker.draw_gamma(np.random.default_rng(0))
    r = track_path(EX41, [2.0], [-2.5], [-3.0], gamma=gamma)
    assert r.success
    expected = (3 + np.sqrt(5)) / 2
    assert abs(r.endpoint[0] - expected) < 1e-8
    assert r.final_residual <= tracker.PATH_TOL


def test_loop_permutes_fiber():
    rng = np.random.default_rng(1)
    p0 = -2.5
    roots = quadratic_roots(p0)
    q1 = rng.standard_normal() + 1j * rng.standard_normal()
    q2 = rng.standard_normal() + 1j * rng.standard_normal()
    gamma = tracker.draw_gamma(np.random.default_rng(5))  # the same gamma on every arc
    ends = []
    for x in roots:
        cur = np.array([x])
        for a, b in [(p0, q1), (q1, q2), (q2, p0)]:
            r = track_path(EX41, cur, [a], [b], gamma=gamma)
            assert r.success
            cur = r.endpoint
        ends.append(cur[0])
    # endpoints are the two start roots in some order
    starts = sorted(roots, key=lambda z: (z.real, z.imag))
    finals = sorted(ends, key=lambda z: (z.real, z.imag))
    assert np.allclose(starts, finals, atol=1e-7)


def test_determinism_with_fixed_gamma():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    r1 = track_path(EX41, [2.0], [-2.5], [3.0 + 1j], gamma=tracker.draw_gamma(rng1))
    r2 = track_path(EX41, [2.0], [-2.5], [3.0 + 1j], gamma=tracker.draw_gamma(rng2))
    assert r1.success and r2.success
    assert np.abs(r1.endpoint - r2.endpoint).max() < 1e-8


def test_residual_invariant_random_targets():
    rng = np.random.default_rng(7)
    for _ in range(10):
        target = rng.standard_normal() + 1j * rng.standard_normal()
        r = track_path(EX41, [2.0], [-2.5], [target], gamma=tracker.draw_gamma(rng))
        if r.success:
            comp = compiled(EX41)
            assert np.abs(comp.f_at(r.endpoint, [target])).max() <= tracker.PATH_TOL


def test_bad_start_point_rejected():
    with pytest.raises(ValueError, match="start point"):
        track_path(EX41, [17.0], [-2.5], [-3.0], gamma=1.0)


def test_newton_polish_exact_root_unchanged():
    out = newton_polish(EX41, np.array([2.0 + 0j]), np.array([-2.5 + 0j]), 1e-12)
    assert abs(out[0] - 2.0) < 1e-14


def test_newton_polish_recovers_perturbed_root():
    out = newton_polish(EX41, np.array([2.0 + 1e-4]), np.array([-2.5]), 1e-12)
    assert abs(out[0] - 2.0) < 1e-12


def test_newton_polish_no_convergence():
    with pytest.raises(NewtonError):
        newton_polish(EX41, np.array([50.0 + 0j]), np.array([-2.5]), 1e-12, max_iters=3)


def test_fiber_tracking_preserves_order_and_residuals():
    rng = np.random.default_rng(11)
    params = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    roots = np.roots(
        [params[0], params[1], params[2], params[3], params[2], params[1], params[0]]
    )
    fiber = FiberSample(params, tuple(np.array([r]) for r in roots))
    target = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    (out,) = track_fiber(SEXTIC, [fiber], [target], [tracker.draw_gamma(rng)])
    assert len(out) == 6
    assert max_residual(SEXTIC, out) <= tracker.PATH_TOL
    assert out.distinct()


def test_fiber_sample_is_one_read_only_array_with_stacked_points():
    rng = np.random.default_rng(3)
    params = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    sols = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(4)]
    fiber = FiberSample(params, tuple(sols))
    assert isinstance(fiber.solutions, np.ndarray) and fiber.solutions.shape == (4, 2)
    assert not fiber.solutions.flags.writeable
    with pytest.raises(ValueError):
        fiber.solutions[0, 0] = 0
    points = fiber.points()
    assert points.shape == (4, 5)
    for x, row in zip(sols, points):
        assert row.tobytes() == np.concatenate([x, params]).tobytes()


def test_distinct_matches_pairwise_definition():
    """``distinct`` against the pairwise definition, on random fibers and on
    the same fibers with the last solution moved just below or just above
    ``MATCH_TOL`` from the first."""
    rng = np.random.default_rng(5)
    seen = set()
    for d, n in ((2, 1), (7, 3), (40, 12)):
        scale = 10.0 ** rng.uniform(-6, 6, size=(d, n))
        sols = [(rng.standard_normal(n) + 1j * rng.standard_normal(n)) * s for s in scale]
        for gap in (None, 0.999 * tracker.MATCH_TOL, 1.001 * tracker.MATCH_TOL):
            if gap is not None:
                sols[-1] = sols[0] + gap
            expected = min(
                float(np.abs(sols[i] - sols[j]).max())
                for i in range(d)
                for j in range(i + 1, d)
            )
            got = FiberSample(np.zeros(1), tuple(sols)).distinct()
            assert got == (expected > tracker.MATCH_TOL)
            seen.add((gap is None, got))
    assert seen >= {(False, False), (False, True), (True, True)}
    assert FiberSample(np.zeros(1), (np.ones(2),)).distinct()


def nearest_by_loop(point, pool):
    """Reference matcher: one max-norm distance per pool point."""
    dists = [float(np.abs(point - q).max()) for q in pool]
    order = np.argsort(dists)
    best = int(order[0])
    second = dists[int(order[1])] if len(dists) > 1 else math.inf
    return best, dists[best], second


def match_by_definition(point, pool):
    """Reference rule: matched j when d1 <= MATCH_TOL, d2 > d1 and d2 >=
    100 d1; new for an empty pool or d1 >= 100 MATCH_TOL; ambiguous
    otherwise."""
    if not len(pool):
        return NEW
    best, d1, d2 = nearest_by_loop(point, pool)
    if d1 <= MATCH_TOL and d2 > d1 and d2 >= 100 * d1:
        return best
    return NEW if d1 >= 100 * MATCH_TOL else AMBIGUOUS


@st.composite
def matching_problems(draw):
    dim = draw(st.integers(1, 40))
    size = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    point = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    pool = []
    for k in range(size):
        if k and draw(st.integers(0, 3)) == 0:
            pool.append(pool[draw(st.integers(0, k - 1))].copy())  # exact tie
        else:
            offset = 10.0 ** draw(st.floats(-12, 4))
            pool.append(point + offset * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)))
    return point, pool


@settings(max_examples=300, deadline=None)
@given(matching_problems())
def test_nearest_matches_per_point_loop(problem):
    point, pool = problem
    expected = match_by_definition(point, pool)
    assert match(point, pool) == expected
    assert match(point, np.array(pool)) == expected


def test_nearest_single_point_pool():
    # The runner-up of a one-point pool is infinitely far.
    assert match(np.array([1.0 + 1j]), [np.array([1.5 + 1j])]) == NEW
    assert match(np.array([1.0 + 1j]), [np.array([1.0 + 1j + 1e-7])]) == 0


@st.composite
def moved_copies(draw):
    """A pool whose points lie at least 1 apart (their first coordinates are
    distinct integers), translated so that pool[i] is exactly 0, and the
    point delta * u with |u_0| = 1 and |u_k| <= 1/2: its distance to pool[i]
    is exactly delta."""
    dim = draw(st.integers(1, 8))
    size = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    delta = draw(
        st.sampled_from([0.0, MATCH_TOL, 100 * MATCH_TOL])
        | st.floats(-10, -2).map(lambda e: 10.0**e)
    )
    u = (rng.uniform(-0.5, 0.5, dim) + 1j * rng.uniform(-0.5, 0.5, dim)) / np.sqrt(2)
    u[0] = draw(st.sampled_from([1.0, -1.0, 1j, -1j]))
    pool = np.column_stack(
        [rng.permutation(size) + 0j]
        + [rng.standard_normal(size) + 1j * rng.standard_normal(size) for _ in range(dim - 1)]
    )
    i = draw(st.integers(0, size - 1)) if size else None
    if size:
        pool = pool - pool[i]
    return delta * u, pool, i, delta


@settings(max_examples=300, deadline=None)
@given(moved_copies())
def test_match_outcomes_on_a_moved_copy(problem):
    point, pool, i, delta = problem
    if i is None:
        expected = NEW
    elif delta <= MATCH_TOL:
        expected = i  # the runner-up is at least 1 - delta away
    elif delta >= 100 * MATCH_TOL:
        expected = NEW
    else:
        expected = AMBIGUOUS
    assert match(point, pool) == expected == match_by_definition(point, pool)
    assert match(point, list(pool)) == expected


def test_match_boundaries():
    origin = np.zeros(1, dtype=complex)
    assert match(origin, []) == NEW
    assert match(origin, np.empty((0, 1), dtype=complex)) == NEW
    # d1 == MATCH_TOL matches; just above it is ambiguous.
    assert match(origin, [[1.0], [MATCH_TOL]]) == 1
    assert match(origin, [[1.0], [np.nextafter(MATCH_TOL, 1.0)]]) == AMBIGUOUS
    # d1 == 100 MATCH_TOL is new; just below it is ambiguous.
    assert match(origin, [[100 * MATCH_TOL], [1.0]]) == NEW
    assert match(origin, [[np.nextafter(100 * MATCH_TOL, 0.0)], [1.0]]) == AMBIGUOUS
    # A runner-up exactly 100 times farther still lets the closest match.
    d1 = MATCH_TOL / 2
    assert match(origin, [[-100 * d1], [d1]]) == 1
    assert match(origin, [[-np.nextafter(100 * d1, 0.0)], [d1]]) == AMBIGUOUS
    # Two rows exactly at the point are a tie, not a match 100 times closer.
    assert match(np.array([1, 2]), [[1, 2], [1, 2], [5, 5]]) == AMBIGUOUS


def test_fiber_duplicate_solution_rejected():
    fiber = FiberSample(np.array([-2.5]), (np.array([2.0]), np.array([2.0])))
    # A fiber that is not pairwise distinct fails without tracking a path.
    assert track_fiber(EX41, [fiber], [np.array([1.0 + 1j])], [1.0]) == [None]


def test_sample_fiber_draws_target_then_gamma(monkeypatch):
    # Reports at a fixed seed depend on this draw order: target, then gamma,
    # for every attempt, a rejected one included.
    fiber = FiberSample(np.array([-2.5]), (np.array([2.0]), np.array([0.5])))
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    seen = []

    def reject_first(system, start, samples, gammas):
        seen.extend(gammas)
        return [len(seen) == 2 for _ in samples]

    monkeypatch.setattr(tracker, "retraces", reject_first)
    (sample,) = tracker.sample_fiber(EX41, fiber, 1, rng, retrace=True)
    for _ in range(2):
        target = twin.standard_normal(1) + 1j * twin.standard_normal(1)
        expected_gamma = complex(np.exp(2j * np.pi * twin.random()))
    assert seen[-1] == expected_gamma
    assert sample.params.tobytes() == target.tobytes()
    (again,) = track_fiber(EX41, [fiber], [target], [expected_gamma])
    assert [s.tobytes() for s in sample.solutions] == [s.tobytes() for s in again.solutions]
    assert rng.random() == twin.random()
    # Three attempts, each drawing its target and gamma, then None.
    monkeypatch.setattr(tracker, "retraces", lambda system, start, samples, gammas: [False])
    assert tracker.sample_fiber(EX41, fiber, 1, rng, retrace=True) == [None]
    for _ in range(3):
        twin.standard_normal(1), twin.standard_normal(1), twin.random()
    assert rng.random() == twin.random()


def test_segment_through_discriminant_fails():
    # with gamma = 1, the straight segment from p=-2.5 to p=-1.5 passes
    # through the double root at p=-2
    r = track_path(EX41, [2.0], [-2.5], [-1.5], gamma=1.0)
    assert r.status in ("singular", "step_underflow")
    assert r.endpoint is None


def test_gamma_trick_avoids_discriminant():
    gamma = tracker.draw_gamma(np.random.default_rng(3))
    r = track_path(EX41, [2.0], [-2.5], [-1.5], gamma=gamma)
    assert r.success
    roots = quadratic_roots(-1.5)
    assert min(abs(r.endpoint[0] - z) for z in roots) < 1e-7


def monomials_without_memo(self, x, p):
    """The unique monomials at (x, p), recomputed on every call."""
    z = np.concatenate([np.asarray(x, complex), np.asarray(p, complex)])
    tab = np.empty((self.nvars, self.maxdeg + 1), dtype=complex)
    tab[:, 0] = 1.0
    for k in range(1, self.maxdeg + 1):
        tab[:, k] = tab[:, k - 1] * z
    return np.prod(tab.ravel()[self._factors], axis=1)


def path_record(r):
    return r.status, r.steps_taken, None if r.endpoint is None else r.endpoint.tobytes()


@pytest.mark.parametrize("coarse", (False, True), ids=("default", "coarse"))
@pytest.mark.parametrize("name", ("p3p_quasihom", "triangular"))
def test_tracking_without_memo_is_identical(name, coarse, monkeypatch):
    if coarse:
        monkeypatch.setattr(tracker, "_INITIAL_STEP", 0.25)
        monkeypatch.setattr(tracker, "_MAX_STEP", 0.25)
    system = fixture_system(name)
    x, p = parse_seed_pair(seed_path(name).read_text())
    rng = np.random.default_rng(17)
    targets = [rng.standard_normal(system.m) + 1j * rng.standard_normal(system.m)
               for _ in range(4)]
    gammas = [complex(np.exp(2j * np.pi * rng.random())) for _ in targets]
    newton_calls = []
    newton = tracker._newton
    monkeypatch.setattr(
        tracker, "_newton", lambda *a: newton_calls.append(1) or newton(*a)
    )

    def run():
        newton_calls.clear()
        paths = [track_path(system, x, p, q, gamma=g) for q, g in zip(targets, gammas)]
        # Besides one start and one final run per successful path, every
        # Newton run is one attempted step.
        attempts = len(newton_calls) - 2 * len(paths)
        (fiber,) = track_fiber(system, [FiberSample(p, (x,))], [targets[0]], [gammas[0]])
        return [path_record(r) for r in paths], attempts, [s.tobytes() for s in fiber.solutions]

    with_memo = run()
    paths, attempts, _ = with_memo
    assert all(status == "success" for status, _, _ in paths)
    if coarse:
        assert attempts > sum(steps for _, steps, _ in paths)  # some steps were rejected
    monkeypatch.setattr(tracker.CompiledSystem, "_monomials", monomials_without_memo)
    assert run() == with_memo


def test_solve_bit_equal_to_numpy():
    # One LAPACK, numpy's: a single solve and a stacked one call
    # np.linalg.solve's gufunc without its wrapper.
    rng = np.random.default_rng(23)
    for n in range(1, 31):
        a = rng.standard_normal((10, n, n)) + 1j * rng.standard_normal((10, n, n))
        a *= 10.0 ** rng.uniform(-6, 6, size=(10, n, 1))
        b = rng.standard_normal((10, n)) + 1j * rng.standard_normal((10, n))
        single = [tracker._solve(a[i], b[i]).tobytes() for i in range(10)]
        assert single == [np.linalg.solve(a[i], b[i]).tobytes() for i in range(10)]
        # The stacked solve of the lockstep tracker: every row as alone.
        stacked, solved = tracker._solve_rows(a, b)
        assert solved.all()
        assert [row.tobytes() for row in stacked] == single
        assert stacked.tobytes() == np.linalg.solve(a, b[..., None])[..., 0].tobytes()


def test_stacked_solve_flags_only_the_singular_row():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    a[2] = [[1, 1, 0], [2, 2, 0], [0, 0, 1]]
    b = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a, b[..., None])
    got, solved = tracker._solve_rows(a, b)
    assert solved.tolist() == [True, True, False, True, True]
    for i in (0, 1, 3, 4):
        assert got[i].tobytes() == tracker._solve(a[i], b[i]).tobytes()
    assert np.isnan(got[2]).all()


def test_solve_raises_on_exactly_singular_matrix():
    with pytest.raises(np.linalg.LinAlgError):
        tracker._solve(np.array([[1, 1], [2, 2]], dtype=complex), np.ones(2, dtype=complex))


def test_singular_paths_end_as_with_numpy_solve(monkeypatch):
    # dF/dx is singular everywhere, so the first tangent solve fails.
    rank_one = parse_system("unknowns x, y; parameters p; equations x + y - p; 2*x + 2*y - 2*p;")
    # gamma = 1 tracks the straight segment through the double root at p=-2.
    cases = [
        (rank_one, [1.0, 0.0], [1.0], [2.0], 0.6 + 0.8j),
        (EX41, [2.0], [-2.5], [-1.5], 1.0),
        (EX41, [2.0], [-2.5], [-1.5], 0.6 + 0.8j),
    ]

    def run():
        return [path_record(track_path(s, x, a, b, gamma=g)) for s, x, a, b, g in cases]

    got = run()
    assert got[0] == ("singular", 0, None)
    assert got[1] == ("step_underflow", 21, None)
    assert got[2][:2] == ("success", 7)
    monkeypatch.setattr(tracker, "_solve", np.linalg.solve)
    assert run() == got


def result_bits(r):
    """Everything of a path result, floats as their bytes."""
    return path_record(r) + (np.float64(r.final_residual).tobytes(),)


@pytest.fixture(scope="module", params=[("p3p_quasihom", 8), ("triangular", 32)],
                ids=["p3p_quasihom", "triangular"])
def base_fiber(request):
    from decksym.monodromy import run_monodromy

    name, degree = request.param
    system = fixture_system(name)
    pair = parse_seed_pair(seed_path(name).read_text())
    result = run_monodromy(system, pair, np.random.default_rng(0), expected_degree=degree)
    return system, result.base


def test_track_paths_bit_identical_to_track_path(base_fiber):
    """Every path of a whole fiber, tracked in lockstep, ends as alone:
    status, steps, endpoint and residual bytes.  The third target is small
    enough that some triangular paths fail."""
    system, base = base_fiber
    rng = np.random.default_rng(31)
    targets = [tracker.random_params(system.m, rng) for _ in range(3)]
    targets[2] = targets[2] * 1e-9
    gammas = [tracker.draw_gamma(rng), 1.0, tracker.draw_gamma(rng)]
    statuses = set()
    for q, g in zip(targets, gammas):
        serial = [track_path(system, x, base.params, q, gamma=g) for x in base.solutions]
        batch = tracker.track_paths(system, base.solutions, base.params, q, g)
        assert [result_bits(r) for r in batch] == [result_bits(r) for r in serial]
        statuses |= {r.status for r in serial}
    assert "success" in statuses


CUBIC = parse_system("unknowns x; parameters p; equations p*x^3 + x^2 - 1;")


@pytest.mark.parametrize("serial_paths", [0, tracker._SERIAL_PATHS], ids=["lockstep", "default"])
def test_track_paths_with_one_failing_path(serial_paths, monkeypatch):
    """At p = 0 the cubic drops to degree 2: one root runs off to infinity
    and fails, the others succeed, whether the failing path ends in lockstep
    (no serial cutoff) or alone after the others finished."""
    monkeypatch.setattr(tracker, "_SERIAL_PATHS", serial_paths)
    starts = [np.array([r]) for r in np.roots([1, 1, 0, -1])]
    gamma = 0.6 + 0.8j
    serial = [track_path(CUBIC, x, [1.0], [0.0], gamma=gamma) for x in starts]
    batch = tracker.track_paths(CUBIC, starts, [1.0], [0.0], gamma)
    assert [r.success for r in serial] == [True, False, True]
    assert [result_bits(r) for r in batch] == [result_bits(r) for r in serial]


@pytest.mark.parametrize("gamma", [0.28 - 0.96j, 1.0])
def test_track_paths_one_unknown_one_parameter(gamma, monkeypatch):
    """n = m = 1, tracked in lockstep to the end (no serial cutoff), so the
    last passes stack the (1, 1) arrays of a single path."""
    monkeypatch.setattr(tracker, "_SERIAL_PATHS", 0)
    p_from, p_to = np.array([1.3 + 0.4j]), np.array([0.2 - 0.1j])
    starts = [np.array([r]) for r in np.roots([p_from[0], 1, 0, -1])]
    serial = [track_path(CUBIC, x, p_from, p_to, gamma=gamma) for x in starts]
    batch = tracker.track_paths(CUBIC, starts, p_from, p_to, gamma)
    assert all(r.success for r in serial)
    assert len({r.steps_taken for r in serial}) > 1  # paths end on different passes
    assert [result_bits(r) for r in batch] == [result_bits(r) for r in serial]


@pytest.mark.parametrize("gamma", [0.28 - 0.96j, 1.0, None])
@pytest.mark.parametrize("system", [CUBIC, SEXTIC], ids=["m=1", "m=4"])
def test_stacked_arc_points_and_tangents_bit_equal(system, gamma):
    """The stacked parameter points, rates and tangents of the lockstep
    tracker, one row or several, against the single-path ones of each row's
    own arc.  Even draws share one arc (the broadcast case); odd draws give
    every row its own endpoints, and its own gamma when ``gamma`` is None."""
    rng = np.random.default_rng(37)
    comp = compiled(system)
    for draw, count in enumerate([1] * 40 + [3, 3, 16, 16]):
        rows = 1 if draw % 2 == 0 else count
        p_from = [tracker.random_params(system.m, rng) for _ in range(rows)]
        p_to = [tracker.random_params(system.m, rng) for _ in range(rows)]
        gammas = [tracker.draw_gamma(rng) if gamma is None else gamma for _ in range(rows)]
        if rows == 1:
            arc = tracker._Arc(p_from[0], p_to[0], gammas[0], count)
        else:
            arc = tracker._Arc(p_from, p_to, gammas, count)
        t = rng.random(count)
        x = rng.standard_normal((count, system.n)) + 1j * rng.standard_normal((count, system.n))
        every = np.arange(count)
        p, rate = arc.points(every, t)
        k, solved = tracker._tangent_rows(comp, arc, every, comp.monomial_rows(x, p), rate)
        assert solved.all()
        for i in range(count):
            j = i % rows
            alone = tracker._Arc(p_from[j], p_to[j], gammas[j], 1)
            p_i, rate_i = alone.point(0, float(t[i]))
            assert p[i].tobytes() == p_i.tobytes()
            assert rate[i].tobytes() == np.complex128(rate_i).tobytes()
            assert k[i].tobytes() == tracker._tangent(comp, alone, 0, x[i], float(t[i])).tobytes()


def test_track_paths_bad_start_raises_like_the_first_bad_start():
    starts = [np.array([r]) for r in np.roots([1, 1, 0, -1])]
    bad = [starts[0], np.array([5.0 + 0j]), starts[1], np.array([-7.0 + 0j])]
    with pytest.raises(ValueError) as serial:
        for x in bad:
            track_path(CUBIC, x, [1.0], [0.5], gamma=1.0)
    with pytest.raises(ValueError) as batch:
        tracker.track_paths(CUBIC, bad, [1.0], [0.5], 1.0)
    assert "start point" in str(batch.value)
    assert str(batch.value) == str(serial.value)


# The cubic's failing arc (as in ``test_track_paths_with_one_failing_path``):
# from p = 1 to p = 0 with this gamma, the second root runs off to infinity.
FAILING_ARC = (np.array([np.roots([1, 1, 0, -1])[1]]), np.array([1.0]), np.array([0.0]), 0.6 + 0.8j)


def assert_rows_as_alone(system, starts, p_from, p_to, gammas):
    """``track_paths`` on per-row arcs against ``track_path`` on each row's
    arc: status, steps, endpoint bytes and residual bytes.  Returns the
    serial results."""
    serial = [
        track_path(system, x, a, b, gamma=g) for x, a, b, g in zip(starts, p_from, p_to, gammas)
    ]
    batch = tracker.track_paths(system, starts, np.array(p_from), np.array(p_to), gammas)
    assert [result_bits(r) for r in batch] == [result_bits(r) for r in serial]
    return serial


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 7),
    shared=st.booleans(),
    failing=st.integers(-1, 6),
)
def test_track_paths_per_row_arcs_bit_identical_cubic(seed, count, shared, failing):
    """One arc per row of the cubic, or one shared arc given once and
    broadcast: every row ends as ``track_path`` on its own arc, whether it
    is tracked alone (up to ``_SERIAL_PATHS`` rows), in lockstep, or
    finished alone in the tail.  Row ``failing`` (when in range) takes the
    arc on which its path fails."""
    rng = np.random.default_rng(seed)
    arcs = []
    for _ in range(1 if shared else count):
        p_from, p_to = tracker.random_params(1, rng), tracker.random_params(1, rng)
        arcs.append((p_from, p_to, tracker.draw_gamma(rng)))
    if shared and 0 <= failing < count:
        arcs = [FAILING_ARC[1:]]
    rows = [arcs[0 if shared else i] for i in range(count)]
    roots = [np.roots([a[0], 1, 0, -1]) for a, _, _ in rows]
    starts = [np.array([r[rng.integers(3)]]) for r in roots]
    if 0 <= failing < count:
        if shared:
            starts[failing] = FAILING_ARC[0]
        else:
            starts[failing], *rows[failing] = FAILING_ARC
    p_from, p_to, gammas = (list(col) for col in zip(*rows))
    serial = assert_rows_as_alone(CUBIC, starts, p_from, p_to, gammas)
    if 0 <= failing < count:
        assert not serial[failing].success
    if shared:
        # The shared arc given once: the broadcast case.
        batch = tracker.track_paths(CUBIC, starts, p_from[0], p_to[0], gammas[0])
        assert [result_bits(r) for r in batch] == [result_bits(r) for r in serial]


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), slots=st.integers(1, 4))
def test_track_paths_per_row_arcs_bit_identical_p3p_orbit(p3p_orbit, seed, slots):
    """The P3P deck orbit (2 points) to ``slots`` random targets, each with
    its own gamma, out and back, as ``sample_fiber`` tracks it: one slot is
    the serial case, more slots run in lockstep and finish in the tail."""
    system, _, orbit = p3p_orbit
    rng = np.random.default_rng(seed)
    draws = [(tracker.random_params(system.m, rng), tracker.draw_gamma(rng)) for _ in range(slots)]
    d = len(orbit)
    starts = np.tile(orbit.solutions, (slots, 1))
    targets = [q for q, _ in draws for _ in range(d)]
    gammas = [g for _, g in draws for _ in range(d)]
    out = assert_rows_as_alone(system, starts, [orbit.params] * len(starts), targets, gammas)
    back = [(r.endpoint, q, 1.0 / g) for r, q, g in zip(out, targets, gammas) if r.success]
    if back:
        ends, froms, inverse = (list(col) for col in zip(*back))
        assert_rows_as_alone(system, ends, froms, [orbit.params] * len(ends), inverse)


@pytest.mark.parametrize("retrace, count", [(True, 5), (False, 2)], ids=["orbit", "fiber"])
def test_sample_fiber_bit_identical_to_serial_draws(p3p_orbit, retrace, count):
    """With no redraw, the batched sampler gives the samples of one draw per
    slot in turn, every path tracked alone, bit for bit, and leaves the rng
    where that leaves it: the P3P deck orbit with its round trip, and the
    whole P3P base fiber without one."""
    system, result, orbit = p3p_orbit
    fiber = orbit if retrace else result.base
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    got = tracker.sample_fiber(system, fiber, count, rng, retrace=retrace)
    want = serial_sample_fiber(system, fiber, count, twin, retrace=retrace)
    assert all(sample is not None for sample in want)
    assert [s.params.tobytes() for s in got] == [s.params.tobytes() for s in want]
    assert [s.solutions.tobytes() for s in got] == [s.solutions.tobytes() for s in want]
    assert rng.random() == twin.random()


@pytest.mark.parametrize("stage", ["track", "retrace"])
def test_sample_fiber_redraws_a_failed_slot_after_the_rounds_other_draws(stage, monkeypatch):
    """Fault injection into slot 1 of 4, on the way out or on its round trip:
    the other slots keep their first draws, and slot 1 takes the fifth draw,
    the first of the next round, which tracks only it."""
    fiber = FiberSample(np.array([-2.5]), (np.array([2.0]), np.array([0.5])))
    calls = []
    name = "track_fiber" if stage == "track" else "retraces"
    real = getattr(tracker, name)

    def fail_slot_1_once(system, *args):
        out = real(system, *args)
        calls.append(len(out))
        if len(calls) == 1:
            out[1] = False if stage == "retrace" else None
        return out

    monkeypatch.setattr(tracker, name, fail_slot_1_once)
    rng, twin = np.random.default_rng(2), np.random.default_rng(2)
    got = tracker.sample_fiber(EX41, fiber, 4, rng, retrace=True)
    draws = [(tracker.random_params(1, twin), tracker.draw_gamma(twin)) for _ in range(5)]
    order = [0, 4, 2, 3]
    assert [s.params.tobytes() for s in got] == [draws[k][0].tobytes() for k in order]
    # ``track_fiber`` also serves the round trips: out 4, back 3, out 1, back 1.
    assert calls == ([4, 1] if stage == "retrace" else [4, 3, 1, 1])
    for sample, k in zip(got, order):
        (alone,) = track_fiber(EX41, [fiber], [draws[k][0]], [draws[k][1]])
        assert sample.solutions.tobytes() == alone.solutions.tobytes()
    assert rng.random() == twin.random()


def test_held_out_fibers_drop_a_slot_that_fails_every_round(mono41, monkeypatch):
    """A slot that fails in all ``SAMPLE_ATTEMPTS`` rounds is dropped from
    the held-out fibers; the others keep their first-round draws."""
    from decksym.interp import held_out_fibers

    system, result, _ = mono41
    real = tracker.track_fiber
    rounds = []

    def fail_slot_2(system, fibers, targets, gammas):
        out = real(system, fibers, targets, gammas)
        rounds.append(len(fibers))
        return [None] * len(out) if len(rounds) > 1 else out[:2] + [None] + out[3:]

    monkeypatch.setattr(tracker, "track_fiber", fail_slot_2)
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    fibers = held_out_fibers(system, result.base, 5, rng)
    assert rounds == [5, 1, 1]
    draws = [(tracker.random_params(1, twin), tracker.draw_gamma(twin)) for _ in range(7)]
    assert [f.params.tobytes() for f in fibers] == [draws[k][0].tobytes() for k in (0, 1, 3, 4)]
    assert rng.random() == twin.random()


def test_track_paths_bit_identical_in_chunks_under_a_tiny_memory_budget(base_fiber, monkeypatch):
    """With the byte budget of one call's stacked evaluation monkeypatched
    to one byte, a call runs in consecutive chunks of the smallest lockstep
    size, ``_SERIAL_PATHS`` + 1, and every row keeps its bits: a whole
    fiber to two targets, each row with its own arc."""
    system, base = base_fiber
    rng = np.random.default_rng(8)
    d = len(base)
    targets = [tracker.random_params(system.m, rng) for _ in range(2)]
    gammas = [tracker.draw_gamma(rng) for _ in range(2)]
    starts = np.tile(base.solutions, (2, 1))
    p_to = np.repeat(targets, d, axis=0)
    row_gammas = np.repeat(gammas, d)
    whole = tracker.track_paths(system, starts, base.params, p_to, row_gammas)
    real = tracker.track_paths
    calls = []

    def counting(system, starts, *args):
        calls.append(len(starts))
        return real(system, starts, *args)

    monkeypatch.setattr(tracker, "_STACK_BYTES", 1)
    monkeypatch.setattr(tracker, "track_paths", counting)
    chunked = tracker.track_paths(system, starts, base.params, p_to, row_gammas)
    assert [result_bits(r) for r in chunked] == [result_bits(r) for r in whole]
    size = tracker._SERIAL_PATHS + 1
    assert calls == [2 * d] + [min(size, 2 * d - k) for k in range(0, 2 * d, size)]


@pytest.mark.parametrize("name", ["triangular", "p3p_quasihom", "ex5_7"])
def test_row_bytes_bound_the_stacked_monomials(name, monkeypatch):
    """``CompiledSystem.row_bytes``, which sets the chunk size under
    ``_STACK_BYTES``, counts what a row of a ``track_paths`` call holds: the
    traced peaks of ``monomial_rows`` (its power table, gathered factors and
    monomials), of ``_newton_rows`` (also the last monomials, f, dF/dx, the
    solve's output and the term blocks' per-row repeats) and of a whole
    ``track_paths`` call from the seed to random targets (also the RK4
    stages, the arc points and rates, ``at_x`` and the tangent's gathered
    products), each on 160 rows of a freshly compiled system, are within 160
    rows' worth.  Such a call peaks at 22 260, 44 525 and 7 113 B a row on
    triangular, P3P and ex5_7, which the count of a Newton pass alone
    (16 136, 40 960 and 4 672 B) missed."""
    system = fixture_system(name)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((160, system.n)) + 1j * rng.standard_normal((160, system.n))
    p = rng.standard_normal((160, system.m)) + 1j * rng.standard_normal((160, system.m))
    x0, p0 = parse_seed_pair(seed_path(name).read_text())
    starts = np.repeat([newton_polish(system, x0, p0, tracker.PATH_TOL / 100)], 160, axis=0)
    gammas = [tracker.draw_gamma(rng) for _ in range(160)]
    for run in (
        lambda comp: comp.monomial_rows(x, p),
        lambda comp: tracker._newton_rows(comp, x, p, tracker.NEWTON_TOL, 4, 1e8),
        lambda comp: tracker.track_paths(system, starts, p0, p, gammas),
    ):
        comp = tracker.CompiledSystem(system)
        monkeypatch.setitem(tracker._COMPILED, system, comp)
        tracemalloc.start()
        try:
            run(comp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 160 * comp.row_bytes


def test_retraces_checks_each_sample_against_its_own_start():
    """Two samples of x^2 + p x + 1, out from two different fibers: each
    retraces to its own start, and the second, checked against its start
    with the two solutions swapped, does not."""
    rng = np.random.default_rng(2)
    fibers = [
        FiberSample(np.array([p]), [np.array([r]) for r in quadratic_roots(p)])
        for p in (-2.5, 3.0 + 1j)
    ]
    target = np.array([1.5 - 2j])
    gammas = [tracker.draw_gamma(rng), tracker.draw_gamma(rng)]
    samples = track_fiber(EX41, fibers, [target, target], gammas)
    assert all(sample is not None for sample in samples)
    assert tracker.retraces(EX41, fibers, samples, gammas) == [True, True]
    swapped = FiberSample(fibers[1].params, fibers[1].solutions[::-1])
    assert tracker.retraces(EX41, [fibers[0], swapped], samples, gammas) == [True, False]
