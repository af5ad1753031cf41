import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_residual
from decksym import tracker
from decksym.expr import parse_seed_pair, parse_system
from decksym.fixtures import fixture_path, seed_path
from decksym.tracker import (
    FiberSample,
    FiberTrackingError,
    NewtonError,
    TrackerConfig,
    compiled,
    nearest,
    newton_polish,
    track_fiber,
    track_path,
)

EX41 = parse_system("unknowns x; parameters p; equations x^2 + p*x + 1;")
SEXTIC = parse_system(
    "unknowns x; parameters a, b, c, d;"
    "equations a*x^6 + b*x^5 + c*x^4 + d*x^3 + c*x^2 + b*x + a;"
)
CFG = TrackerConfig()


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
    r = track_path(EX41, [2.0], [-2.5], [-2.5], CFG)
    assert r.success
    assert abs(r.endpoint[0] - 2.0) < 1e-10


def test_track_to_nearby_parameter_continuity():
    # x = 2 over p = -2.5 continues to the root of x^2 - 3x + 1 near 2.
    r = track_path(EX41, [2.0], [-2.5], [-3.0], CFG, rng=np.random.default_rng(0))
    assert r.success
    expected = (3 + np.sqrt(5)) / 2
    assert abs(r.endpoint[0] - expected) < 1e-8
    assert r.final_residual <= CFG.path_tol


def test_loop_permutes_fiber():
    rng = np.random.default_rng(1)
    p0 = -2.5
    roots = quadratic_roots(p0)
    q1 = rng.standard_normal() + 1j * rng.standard_normal()
    q2 = rng.standard_normal() + 1j * rng.standard_normal()
    ends = []
    for x in roots:
        cur = np.array([x])
        for a, b in [(p0, q1), (q1, q2), (q2, p0)]:
            r = track_path(EX41, cur, [a], [b], CFG, rng=np.random.default_rng(5))
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
    r1 = track_path(EX41, [2.0], [-2.5], [3.0 + 1j], CFG, rng=rng1)
    r2 = track_path(EX41, [2.0], [-2.5], [3.0 + 1j], CFG, rng=rng2)
    assert r1.success and r2.success
    assert np.abs(r1.endpoint - r2.endpoint).max() < 1e-8


def test_residual_invariant_random_targets():
    rng = np.random.default_rng(7)
    for _ in range(10):
        target = rng.standard_normal() + 1j * rng.standard_normal()
        r = track_path(EX41, [2.0], [-2.5], [target], CFG, rng=rng)
        if r.success:
            comp = compiled(EX41)
            assert np.abs(comp.f_at(r.endpoint, [target])).max() <= CFG.path_tol


def test_bad_start_point_rejected():
    with pytest.raises(ValueError, match="start point"):
        track_path(EX41, [17.0], [-2.5], [-3.0], CFG)


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
    out = track_fiber(SEXTIC, fiber, target, CFG, rng=rng)
    assert len(out) == 6
    assert max_residual(SEXTIC, out) <= CFG.path_tol
    assert out.min_pairwise_distance() > 1e-6


def test_min_pairwise_distance_matches_pairwise_definition():
    rng = np.random.default_rng(5)
    for d, n in ((2, 1), (7, 3), (40, 12)):
        scale = 10.0 ** rng.uniform(-6, 6, size=(d, n))
        sols = tuple((rng.standard_normal(n) + 1j * rng.standard_normal(n)) * s for s in scale)
        fiber = FiberSample(np.zeros(1), sols)
        expected = min(
            float(np.abs(sols[i] - sols[j]).max())
            for i in range(d)
            for j in range(i + 1, d)
        )
        assert fiber.min_pairwise_distance() == expected
    assert FiberSample(np.zeros(1), (np.ones(2),)).min_pairwise_distance() == np.inf


def nearest_by_loop(point, pool):
    """Reference matcher: one max-norm distance per pool point."""
    dists = [float(np.abs(point - q).max()) for q in pool]
    order = np.argsort(dists)
    best = int(order[0])
    second = dists[int(order[1])] if len(dists) > 1 else math.inf
    return best, dists[best], second


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
    expected = nearest_by_loop(point, pool)
    assert nearest(point, pool) == expected
    assert nearest(point, np.array(pool)) == expected


def test_nearest_single_point_pool():
    best, dist, second = nearest(np.array([1.0 + 1j]), [np.array([1.5 + 1j])])
    assert (best, dist, second) == (0, 0.5, math.inf)


def test_fiber_duplicate_solution_rejected():
    fiber = FiberSample(np.array([-2.5]), (np.array([2.0]), np.array([2.0])))
    with pytest.raises(FiberTrackingError, match="distinct"):
        track_fiber(EX41, fiber, np.array([1.0 + 1j]), CFG)


def test_sample_fiber_draws_target_then_gamma():
    # Reports at a fixed seed depend on this draw order: target, then gamma,
    # for every attempt, a rejected one included.
    fiber = FiberSample(np.array([-2.5]), (np.array([2.0]), np.array([0.5])))
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    seen = []

    def accept(sample, gamma):
        seen.append(gamma)
        return len(seen) == 2

    sample, gamma = tracker.sample_fiber(EX41, fiber, CFG, rng, accept)
    for _ in range(2):
        target = twin.standard_normal(1) + 1j * twin.standard_normal(1)
        expected_gamma = complex(np.exp(2j * np.pi * twin.random()))
    assert gamma == seen[-1] == expected_gamma
    assert sample.params.tobytes() == target.tobytes()
    again = track_fiber(EX41, fiber, target, CFG, gamma=expected_gamma)
    assert [s.tobytes() for s in sample.solutions] == [s.tobytes() for s in again.solutions]
    assert rng.random() == twin.random()
    # Three attempts, each drawing its target and gamma, then None.
    assert tracker.sample_fiber(EX41, fiber, CFG, rng, lambda s, g: False) is None
    for _ in range(3):
        twin.standard_normal(1), twin.standard_normal(1), twin.random()
    assert rng.random() == twin.random()


def test_segment_through_discriminant_fails():
    # with gamma = 1, the straight segment from p=-2.5 to p=-1.5 passes
    # through the double root at p=-2
    r = track_path(EX41, [2.0], [-2.5], [-1.5], CFG, gamma=1.0)
    assert r.status in ("singular", "step_underflow")
    assert r.endpoint is None


def test_gamma_trick_avoids_discriminant():
    r = track_path(EX41, [2.0], [-2.5], [-1.5], CFG, rng=np.random.default_rng(3))
    assert r.success
    roots = quadratic_roots(-1.5)
    assert min(abs(r.endpoint[0] - z) for z in roots) < 1e-7


def test_config_validation():
    # The tolerances come from the command line.
    for bad in ({"newton_tol": 0.0}, {"newton_tol": -1e-10}, {"path_tol": 0.0},
                {"path_tol": -1e-8}):
        with pytest.raises(ValueError):
            TrackerConfig(**bad)
    TrackerConfig(newton_tol=1e-14, path_tol=1e-3)


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
    system = parse_system(fixture_path(name).read_text())
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
        paths = [track_path(system, x, p, q, CFG, gamma=g) for q, g in zip(targets, gammas)]
        # Besides one start and one final run per successful path, every
        # Newton run is one attempted step.
        attempts = len(newton_calls) - 2 * len(paths)
        fiber = track_fiber(system, FiberSample(p, (x,)), targets[0], CFG, gamma=gammas[0])
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
        for _ in range(10):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a *= 10.0 ** rng.uniform(-6, 6, size=(n, 1))
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert tracker._solve(a, b).tobytes() == np.linalg.solve(a, b).tobytes()


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
        return [path_record(track_path(s, x, a, b, CFG, gamma=g)) for s, x, a, b, g in cases]

    got = run()
    assert got[0] == ("singular", 0, None)
    assert got[1] == ("step_underflow", 21, None)
    assert got[2][:2] == ("success", 7)
    monkeypatch.setattr(tracker, "_solve", np.linalg.solve)
    assert run() == got
