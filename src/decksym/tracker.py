"""Parameter-homotopy path tracking with an RK4 predictor and Newton corrector.

Paths follow the segment homotopy p(t) = (1-t) p_from + t p_to,
reparametrized through a unit complex gamma (tau = gamma t / (1 + (gamma -
1) t)); a random gamma makes the path avoid the discriminant with
probability one, and gamma = 1 is the straight segment.  Step control:
accept a step when the corrector converges, double the step after three
consecutive accepts, halve on rejection.  Only the Newton and path
tolerances are configurable (``TrackerConfig``); the step sizes and factors,
the corrector's iteration count and the divergence bound are module
constants.

``sample_fiber`` is the one place that tracks a fiber to a fresh random
target (deck-orbit samples and verification fibers): it draws the target
(``random_params``), then gamma, then tracks, and redraws both on a failed
fiber or a rejected sample, ``_SAMPLE_ATTEMPTS`` times in all.  ``retraces``
is the one round-trip check: it tracks a sample back along its own arc.
Fiber solutions count as distinct, and a point as matched, within
``MATCH_TOL``.

Systems are compiled once into one factor table over the unique monomials
of F, dF/dx and dF/dp.  Each monomial is a short row of flat indices
``var * (maxdeg + 1) + power`` into a power table of all n+m variables,
listing only its non-unit factors in increasing variable order and padded
with an index of a constant 1.  Each block keeps, per term, a monomial index
and a coefficient, summed per entry by ``np.add.reduceat``.  An evaluation
fills the power table, multiplies the few factors of each monomial once, and
gathers the monomials into the terms.  Every product is the one a dense
evaluation over all n+m factors per term computes, minus multiplications by
an exact 1, so the values are bit-identical to it (tests/test_evaluator.py
keeps that dense form as the reference).

The evaluator keeps the monomial vector of the last point, keyed by the
exact bytes of (x, p), so the four evaluation methods at one point share one
product: dF/dx and dF/dp in each RK4 stage, and the corrector's last F and
dF/dx with the next step's first stage.  A rejected step leaves x and t
unchanged, so its first stage is kept for the retry.  Dense solves call
LAPACK's ``zgesv`` directly, the routine behind ``np.linalg.solve``, without
that function's Python wrapper.  numpy and scipy may bundle different LAPACK
builds; tests/test_tracker.py checks that both solve to the same bits.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import zgesv

from . import expr
from .expr import System

_MAX_TOTAL_STEPS = 20_000
_MAX_NEWTON_ITERS = 4
_INITIAL_STEP = 0.1
_MIN_STEP = 1e-9
_MAX_STEP = 0.25
_STEP_EXPAND = 2.0
_STEP_SHRINK = 0.5
_ACCEPT_STREAK = 3
_MAX_NORM = 1e8
_SAMPLE_ATTEMPTS = 3


class TrackingError(RuntimeError):
    pass


class NewtonError(TrackingError):
    pass


class FiberTrackingError(TrackingError):
    pass


@dataclass(frozen=True)
class TrackerConfig:
    newton_tol: float = 1e-10
    path_tol: float = 1e-8

    def __post_init__(self):
        for name in ("newton_tol", "path_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class PathResult:
    status: str  # "success" | "diverged" | "singular" | "step_underflow"
    endpoint: np.ndarray | None
    steps_taken: int
    final_residual: float

    @property
    def success(self) -> bool:
        return self.status == "success"


@dataclass(frozen=True)
class FiberSample:
    """A parameter point together with the ordered solutions above it."""

    params: np.ndarray
    solutions: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "params", np.asarray(self.params, dtype=complex))
        object.__setattr__(
            self, "solutions", tuple(np.asarray(s, dtype=complex) for s in self.solutions)
        )

    def __len__(self) -> int:
        return len(self.solutions)

    def min_pairwise_distance(self) -> float:
        """Smallest max-norm distance between two solutions: one reduction
        per solution over the solutions after it."""
        if len(self.solutions) < 2:
            return np.inf
        sols = np.array(self.solutions)
        return min(
            float(np.abs(sols[i + 1 :] - sols[i]).max(axis=1).min())
            for i in range(len(sols) - 1)
        )


# Max-norm distance within which two fiber solutions coincide: a fiber is
# pairwise distinct, and a tracked point matches a known one, on this scale.
MATCH_TOL = 1e-6


def nearest(point, pool) -> tuple[int, float, float]:
    """Match a point against a fiber: the index of the closest pool point in
    the max norm, its distance, and the runner-up distance (inf for a
    one-point pool).  Exact ties are broken by ``np.argsort``."""
    dists = np.abs(np.asarray(pool) - point).max(axis=1)
    order = np.argsort(dists)
    best = int(order[0])
    second = float(dists[order[1]]) if len(dists) > 1 else np.inf
    return best, float(dists[best]), second


# ---------------------------------------------------------------------------
# Compiled evaluation
# ---------------------------------------------------------------------------


def _factor_key(exponent, stride: int) -> tuple[int, ...]:
    """Flat power-table indices ``var * stride + power`` of the non-unit
    factors of one monomial, in increasing variable order."""
    return tuple(v * stride + k for v, k in enumerate(exponent) if k)


class _Block:
    """One output block (F, dF/dx or dF/dp): each term's monomial index and
    coefficient, and the ``reduceat`` offset of each entry's first term."""

    __slots__ = ("terms", "coeffs", "offsets", "shape")

    def __init__(self, polys, monomials: dict, stride: int, shape):
        terms: list[int] = []
        coeffs: list[complex] = []
        offsets: list[int] = []
        for p in polys:
            offsets.append(len(terms))
            # A zero entry keeps one zero term so that every offset is valid.
            for e, c in p.terms or (((0,) * p.nvars, 0.0),):
                terms.append(monomials.setdefault(_factor_key(e, stride), len(monomials)))
                coeffs.append(expr.coeff_to_complex(c))
        self.terms = np.asarray(terms, dtype=np.intp)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self.shape = shape

    def __call__(self, mono: np.ndarray) -> np.ndarray:
        vals = self.coeffs * mono[self.terms]
        return np.add.reduceat(vals, self.offsets).reshape(self.shape)


class CompiledSystem:
    """Evaluator for F, dF/dx and dF/dp of one system over its unique monomials."""

    def __init__(self, system: System):
        n, m = system.n, system.m
        self.n, self.m, self.nvars = n, m, n + m
        # Derivatives only lower exponents, so F holds the highest power.
        self.maxdeg = max((max(e) for eq in system.equations for e, _ in eq.terms), default=0)
        stride = self.maxdeg + 1
        jac = expr.jacobian(system)
        pj = expr.parameter_jacobian(system)
        monomials: dict[tuple[int, ...], int] = {}
        self._f = _Block(system.equations, monomials, stride, (n,))
        self._jx = _Block([q for row in jac for q in row], monomials, stride, (n, n))
        self._jp = _Block([q for row in pj for q in row], monomials, stride, (n, m))
        # Row u lists monomial u's non-unit factors; padding points at
        # tab[0, 0], which is always 1.
        width = max(map(len, monomials), default=0) or 1
        self._factors = np.zeros((len(monomials), width), dtype=np.intp)
        for u, key in enumerate(monomials):
            self._factors[u, : len(key)] = key
        self._key: bytes | None = None
        self._mono: np.ndarray | None = None

    def _monomials(self, x, p) -> np.ndarray:
        """The read-only vector of every unique monomial at z = (x, p),
        recomputed only when z's bytes differ from the last call's."""
        z = np.concatenate([np.asarray(x, complex), np.asarray(p, complex)])
        key = z.tobytes()
        if key != self._key:
            tab = np.empty((self.nvars, self.maxdeg + 1), dtype=complex)
            tab[:, 0] = 1.0
            for k in range(1, self.maxdeg + 1):
                tab[:, k] = tab[:, k - 1] * z
            # numpy's elementwise complex multiply may round differently from
            # its product reduction; the dense form reduced, and so does this.
            mono = np.multiply.reduce(tab.ravel()[self._factors], axis=1)
            mono.flags.writeable = False
            self._key, self._mono = key, mono
        return self._mono

    def f_at(self, x, p) -> np.ndarray:
        return self._f(self._monomials(x, p))

    def jx_at(self, x, p) -> np.ndarray:
        return self._jx(self._monomials(x, p))

    def jp_at(self, x, p) -> np.ndarray:
        return self._jp(self._monomials(x, p))

    def f_and_jx(self, x, p):
        mono = self._monomials(x, p)
        return self._f(mono), self._jx(mono)


_COMPILED: "weakref.WeakKeyDictionary[System, CompiledSystem]" = weakref.WeakKeyDictionary()


def compiled(system: System) -> CompiledSystem:
    comp = _COMPILED.get(system)
    if comp is None:
        comp = CompiledSystem(system)
        _COMPILED[system] = comp
    return comp


# ---------------------------------------------------------------------------
# Newton
# ---------------------------------------------------------------------------


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for one complex right-hand side: the same
    LAPACK ``zgesv`` call, and the same ``LinAlgError`` on a singular a."""
    _, _, x, info = zgesv(a, b)
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return x


def _newton(comp, x, p, tol, max_iters, max_norm):
    """Returns (x, residual, converged, singular_flag, first_step_size)."""
    x = np.asarray(x, dtype=complex)
    first_step = 0.0
    for it in range(max_iters):
        f, jx = comp.f_and_jx(x, p)
        res = float(np.abs(f).max())
        if not np.isfinite(res):
            return x, np.inf, False, False, first_step
        if res <= tol:
            return x, res, True, False, first_step
        try:
            dx = _solve(jx, -f)
        except np.linalg.LinAlgError:
            return x, res, False, True, first_step
        if it == 0:
            first_step = float(np.abs(dx).max())
        x = x + dx
        if float(np.abs(x).max()) > max_norm:
            return x, np.inf, False, False, first_step
    f = comp.f_at(x, p)
    res = float(np.abs(f).max())
    return x, res, res <= tol, False, first_step


def newton_polish(system: System, x, p, tol: float, max_iters: int = 30) -> np.ndarray:
    """Polish a point to ||F||_inf <= tol; raises NewtonError otherwise."""
    comp = compiled(system)
    out, res, ok, singular, _ = _newton(comp, x, p, tol, max_iters, 1e12)
    if singular:
        raise NewtonError("singular Jacobian during Newton polish")
    if not ok:
        raise NewtonError(f"Newton did not reach tolerance {tol:g} (residual {res:.3e})")
    return out


# ---------------------------------------------------------------------------
# Path tracking
# ---------------------------------------------------------------------------


def draw_gamma(rng: np.random.Generator | None) -> complex:
    if rng is None:
        return 1.0 + 0.0j
    return complex(np.exp(2j * np.pi * rng.random()))


def random_params(m: int, rng: np.random.Generator) -> np.ndarray:
    """A random complex parameter point: real parts, then imaginary parts."""
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def _start_newton(comp, x, p, cfg: TrackerConfig):
    """The start check of a path: Newton to 10 x ``newton_tol`` within the
    corrector's iteration count.  Returns (x, residual, converged)."""
    x, res, ok, _sing, _ = _newton(
        comp, x, p, cfg.newton_tol * 10, _MAX_NEWTON_ITERS, _MAX_NORM
    )
    return x, res, ok


def is_start_point(system: System, x, p, cfg: TrackerConfig) -> bool:
    """Whether ``track_path`` accepts x as a start point over p."""
    return _start_newton(compiled(system), x, p, cfg)[2]


def track_path(
    system: System,
    x_start,
    p_from,
    p_to,
    cfg: TrackerConfig,
    *,
    rng: np.random.Generator | None = None,
    gamma: complex | None = None,
) -> PathResult:
    """Continue one solution from p_from to p_to along the segment homotopy.

    Without ``gamma``, one is drawn from ``rng``; without either, the path is
    the straight segment (gamma = 1).
    """
    comp = compiled(system)
    p_from = np.asarray(p_from, dtype=complex)
    p_to = np.asarray(p_to, dtype=complex)
    if gamma is None:
        gamma = draw_gamma(rng)
    dp = p_to - p_from

    x, res, ok = _start_newton(comp, x_start, p_from, cfg)
    if not ok:
        raise ValueError(
            f"start point does not satisfy the system (residual {res:.3e})"
        )

    def path_point(t: float):
        if gamma == 1.0:
            return p_from + t * dp, 1.0 + 0.0j
        den = 1.0 + (gamma - 1.0) * t
        return p_from + (gamma * t / den) * dp, gamma / (den * den)

    def tangent(xv, t):
        p, rate = path_point(t)
        jx = comp.jx_at(xv, p)
        jp = comp.jp_at(xv, p)
        return _solve(jx, -(jp @ dp) * rate)

    t = 0.0
    h = _INITIAL_STEP
    steps = 0
    streak = 0
    singular_seen = False
    k1 = None  # the first stage at (x, t), kept across rejected steps
    while t < 1.0 - 1e-14:
        if steps >= _MAX_TOTAL_STEPS:
            return PathResult("step_underflow", None, steps, np.inf)
        h = min(h, 1.0 - t)
        accepted = False
        try:
            if k1 is None:
                k1 = tangent(x, t)
            k2 = tangent(x + 0.5 * h * k1, t + 0.5 * h)
            k3 = tangent(x + 0.5 * h * k2, t + 0.5 * h)
            k4 = tangent(x + h * k3, t + h)
            x_pred = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if np.all(np.isfinite(x_pred)):
                p_next, _ = path_point(t + h)
                x_new, res, ok, sing, first_step = _newton(
                    comp, x_pred, p_next, cfg.newton_tol, _MAX_NEWTON_ITERS, _MAX_NORM
                )
                singular_seen = singular_seen or sing
                # Guard against sheet jumps: the corrector must stay a small
                # fraction of the predicted motion away from the prediction,
                # otherwise it may have converged onto a different path.
                motion = float(np.abs(x_pred - x).max())
                contraction_ok = first_step <= max(
                    0.2 * motion, 1000 * cfg.newton_tol * (1.0 + float(np.abs(x).max()))
                )
                if ok and contraction_ok:
                    accepted = True
        except np.linalg.LinAlgError:
            singular_seen = True
        if accepted:
            t += h
            x = x_new
            k1 = None
            steps += 1
            streak += 1
            if streak >= _ACCEPT_STREAK:
                h = min(h * _STEP_EXPAND, _MAX_STEP)
                streak = 0
        else:
            if float(np.abs(x).max()) > _MAX_NORM:
                return PathResult("diverged", None, steps, np.inf)
            streak = 0
            h *= _STEP_SHRINK
            if h < _MIN_STEP:
                status = "singular" if singular_seen else "step_underflow"
                return PathResult(status, None, steps, np.inf)

    x, res, ok, sing, _ = _newton(comp, x, p_to, cfg.newton_tol, 12, _MAX_NORM)
    if float(np.abs(x).max()) > _MAX_NORM or not np.isfinite(res):
        return PathResult("diverged", None, steps, np.inf)
    if res > cfg.path_tol:
        return PathResult("singular", None, steps, res)
    return PathResult("success", x, steps, res)


def track_fiber(
    system: System,
    fiber: FiberSample,
    p_to,
    cfg: TrackerConfig,
    *,
    rng: np.random.Generator | None = None,
    gamma: complex | None = None,
) -> FiberSample:
    """Track every solution of a fiber to new parameters, preserving order.

    All paths share one homotopy (one gamma, drawn from ``rng`` after the
    distinctness check when not given).  Any path failure, or an endpoint
    collision within ``MATCH_TOL``, fails the whole fiber with
    FiberTrackingError.
    """
    if fiber.min_pairwise_distance() <= MATCH_TOL:
        raise FiberTrackingError("fiber solutions are not pairwise distinct")
    p_to = np.asarray(p_to, dtype=complex)
    if gamma is None:
        gamma = draw_gamma(rng)

    results = [
        track_path(system, sol, fiber.params, p_to, cfg, gamma=gamma) for sol in fiber.solutions
    ]

    bad = [i for i, r in enumerate(results) if not r.success]
    if bad:
        raise FiberTrackingError(
            f"{len(bad)}/{len(results)} paths failed ({results[bad[0]].status})"
        )
    out = FiberSample(p_to, tuple(r.endpoint for r in results))
    if out.min_pairwise_distance() <= MATCH_TOL:
        raise FiberTrackingError("endpoint collision after tracking")
    return out


def retraces(
    system: System,
    start: FiberSample,
    sample: FiberSample,
    gamma: complex,
    cfg: TrackerConfig,
) -> bool:
    """Whether ``sample``, tracked from ``start`` with ``gamma``, retraces its
    arc back to ``start``: gamma -> 1/gamma reverses the same arc exactly,
    and every point must return within ``MATCH_TOL`` of its start.

    Sheet jumps inside a full tracked fiber surface as endpoint collisions,
    but a partial fiber (a deck orbit) tracks only a few sheets; a sheet
    jump on the way out lands somewhere else on the way back.
    """
    try:
        back = track_fiber(system, sample, start.params, cfg, gamma=1.0 / gamma)
    except FiberTrackingError:
        return False
    return not any(
        float(np.abs(got - want).max()) > MATCH_TOL
        for got, want in zip(back.solutions, start.solutions)
    )


def sample_fiber(
    system: System,
    fiber: FiberSample,
    cfg: TrackerConfig,
    rng: np.random.Generator,
    accept: Callable[[FiberSample, complex], bool] | None = None,
) -> tuple[FiberSample, complex] | None:
    """Track a fiber to a fresh random target.

    Each attempt draws the target, then gamma, then tracks; a failed fiber,
    or a sample that ``accept(sample, gamma)`` rejects, is redrawn.  Returns
    the sample and its gamma, or None after ``_SAMPLE_ATTEMPTS`` draws.
    """
    for _ in range(_SAMPLE_ATTEMPTS):
        target = random_params(system.m, rng)
        gamma = draw_gamma(rng)
        try:
            sample = track_fiber(system, fiber, target, cfg, gamma=gamma)
        except FiberTrackingError:
            continue
        if accept is None or accept(sample, gamma):
            return sample, gamma
    return None
