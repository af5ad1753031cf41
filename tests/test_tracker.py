import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_system, max_residual
from decksym import tracker
from decksym.expr import parse_seed_pair, parse_system
from decksym.fixtures import seed_path
from decksym.tracker import (
    AMBIGUOUS,
    MATCH_TOL,
    NEW,
    FiberSample,
    FiberTrackingError,
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
    out = track_fiber(SEXTIC, fiber, target, gamma=tracker.draw_gamma(rng))
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
    """Reference rule: matched j when d1 <= MATCH_TOL and d2 >= 100 d1; new
    for an empty pool or d1 >= 100 MATCH_TOL; ambiguous otherwise."""
    if not len(pool):
        return NEW
    best, d1, d2 = nearest_by_loop(point, pool)
    if d1 <= MATCH_TOL and d2 >= 100 * d1:
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


def test_fiber_duplicate_solution_rejected():
    fiber = FiberSample(np.array([-2.5]), (np.array([2.0]), np.array([2.0])))
    with pytest.raises(FiberTrackingError, match="distinct"):
        track_fiber(EX41, fiber, np.array([1.0 + 1j]), gamma=1.0)


def test_sample_fiber_draws_target_then_gamma():
    # Reports at a fixed seed depend on this draw order: target, then gamma,
    # for every attempt, a rejected one included.
    fiber = FiberSample(np.array([-2.5]), (np.array([2.0]), np.array([0.5])))
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    seen = []

    def accept(sample, gamma):
        seen.append(gamma)
        return len(seen) == 2

    sample, gamma = tracker.sample_fiber(EX41, fiber, rng, accept)
    for _ in range(2):
        target = twin.standard_normal(1) + 1j * twin.standard_normal(1)
        expected_gamma = complex(np.exp(2j * np.pi * twin.random()))
    assert gamma == seen[-1] == expected_gamma
    assert sample.params.tobytes() == target.tobytes()
    again = track_fiber(EX41, fiber, target, gamma=expected_gamma)
    assert [s.tobytes() for s in sample.solutions] == [s.tobytes() for s in again.solutions]
    assert rng.random() == twin.random()
    # Three attempts, each drawing its target and gamma, then None.
    assert tracker.sample_fiber(EX41, fiber, rng, lambda s, g: False) is None
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
        fiber = track_fiber(system, FiberSample(p, (x,)), targets[0], gamma=gammas[0])
        return [path_record(r) for r in paths], attempts, [s.tobytes() for s in fiber.solutions]

    with_memo = run()
    paths, attempts, _ = with_memo
    assert all(status == "success" for status, _, _ in paths)
    if coarse:
        assert attempts > sum(steps for _, steps, _ in paths)  # some steps were rejected
    monkeypatch.setattr(tracker.CompiledSystem, "_monomials", monomials_without_memo)
    assert run() == with_memo


def test_solve_bit_equal_to_numpy():
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


@pytest.mark.parametrize("gamma", [0.28 - 0.96j, 1.0])
@pytest.mark.parametrize("system", [CUBIC, SEXTIC], ids=["m=1", "m=4"])
def test_stacked_arc_points_and_tangents_bit_equal(system, gamma):
    """The stacked parameter points, rates and tangents of the lockstep
    tracker, one row or several, against the single-path ones."""
    rng = np.random.default_rng(37)
    comp = compiled(system)
    for count in [1] * 40 + [3, 3, 16]:
        arc = tracker._Arc(
            tracker.random_params(system.m, rng), tracker.random_params(system.m, rng), gamma
        )
        t = rng.random(count)
        x = rng.standard_normal((count, system.n)) + 1j * rng.standard_normal((count, system.n))
        p, rate = arc.points(t)
        k, solved = tracker._tangent_rows(comp, arc, comp.monomial_rows(x, p), rate)
        assert solved.all()
        for i in range(count):
            p_i, rate_i = arc.point(float(t[i]))
            assert p[i].tobytes() == p_i.tobytes()
            assert rate[i].tobytes() == np.complex128(rate_i).tobytes()
            assert k[i].tobytes() == tracker._tangent(comp, arc, x[i], float(t[i])).tobytes()


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
