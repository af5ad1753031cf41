"""Parameter-homotopy path tracking with an RK4 predictor and Newton corrector.

Paths follow the segment homotopy p(t) = (1-t) p_from + t p_to,
reparametrized through a unit complex gamma (tau = gamma t / (1 + (gamma -
1) t)); a random gamma makes the path avoid the discriminant with
probability one, and gamma = 1 is the straight segment.  Step control:
accept a step when the corrector converges, double the step after three
consecutive accepts, halve on rejection.  The corrector converges at
``NEWTON_TOL`` and a path ends within ``PATH_TOL``; these, the step sizes and
factors, the corrector's iteration count and the divergence bound are module
constants.

``track_paths`` tracks paths in lockstep, each along its own arc (row i of
p_from and p_to with gamma i; the paths of one homotopy, such as a fiber or
one monodromy graph edge in one direction, are the broadcast case of one
shared arc), in the style of the batched tracking of HomotopyContinuation.jl
(Breiding & Timme, arXiv:1711.10911).  States are stacked as (S, n); t, the
step size, the accept streak, the cached first RK4 stage, the singular flag
and the arc are per path; each pass of the loop stacks the evaluations and
dense solves of every active path (each stack of solves is one call of
``_solve``'s gufunc, through ``_solve_rows``), and applies each path's own
acceptance rules.  Every result is bit-identical to ``track_path``'s on its
row's arc.  A pass costs about two to three serial steps plus a little per
path, so for ``_SERIAL_PATHS`` = 2 paths or fewer ``track_paths`` calls
``track_path`` once per path, and once no more than ``_SERIAL_PATHS`` paths
are still stepping, each finishes alone from its state (``_run_path``).  A
call that would hold more than ``_STACK_BYTES`` (rows x
``CompiledSystem.row_bytes``: per row, a Newton pass's stacked evaluation,
f, dF/dx and solve, the step loop's RK4 stages, arc points and monomials,
the tangent's gathered products, and the term blocks' per-row repeats) runs
in consecutive chunks under that bound, each row bit-identical; no bundled
workload reaches it, radial's verification fibers would.

``track_fiber`` tracks fibers, each from its own parameters to its own
target with its own gamma, every path of every fiber in one ``track_paths``
call, and applies the per-fiber checks: every path succeeds and the
endpoints are pairwise distinct.  ``sample_fiber`` is the one place that
tracks a fiber to fresh random targets (deck-orbit samples and verification
fibers), one per slot: each round draws the target (``random_params``), then
gamma, for every open slot in slot order, tracks all their fibers in one
``track_fiber`` call and, for orbit samples, checks them all by one round
trip; only the slots that failed are redrawn, ``SAMPLE_ATTEMPTS`` rounds in
all.  When no slot is redrawn, the draws are those of one slot after the
other.  ``retraces`` is the one round-trip check: it tracks samples back
along their own arcs, each to its own start (``sample_fiber``'s samples to
one fiber, the scaling filter's to each candidate's scaled orbit).
``match`` is the one fiber-matching rule, for monodromy endpoints, scaled
orbit points and formula images: a solution index, ``NEW`` or
``AMBIGUOUS``.  ``FiberSample.distinct`` and ``retraces`` use its scale,
``MATCH_TOL``.

Systems are compiled once on the evaluation kernel of ``expr`` (its module
docstring describes the factor table and the term blocks): one factor table
over the unique monomials of F, dF/dx and dF/dp, and one term block each
(a block of one-term entries, such as P3P's dF/dx and dF/dp, is not summed).
Every product is the one a dense evaluation over all n+m factors per term
computes, minus multiplications by an exact 1, so the values are
bit-identical to it (tests/test_evaluator.py keeps that dense form as the
reference) and, at generic points, to ``Polynomial.evaluate`` of each entry.

The evaluator keeps the monomial vector of the last point, keyed by the
exact bytes of (x, p), so the four evaluation methods at one point share one
product: dF/dx and dF/dp in each RK4 stage, and the corrector's last F and
dF/dx with the next step's first stage.  A rejected step leaves x and t
unchanged, so its first stage is kept for the retry.  Every solve runs on
one LAPACK build, numpy's: single and stacked dense solves call the gufunc
behind ``np.linalg.solve`` directly (``_solve``), with that function's error
settings but without its Python wrapper; on a stack it runs the same routine
per matrix.  tests/test_tracker.py checks that both solve to the bits of
``np.linalg.solve``, one matrix or a stack.

The stacked evaluation (``monomial_rows`` and the ``*_rows`` blocks) uses the
same factor table and blocks on (S, n) and (S, m) rows.  Its rows are
bit-identical to the single-point methods because the monomial products run
as one 2-D reduction over (S * U, width), the block terms are summed by one
flat ``reduceat`` with the offsets repeated per row, and every complex
product takes the numpy loop its single-point counterpart takes: numpy's
elementwise complex multiply (fused) rounds differently from its product
reduction and from Python's complex arithmetic (unfused), and a product
broadcast to a single element falls back to the unfused loop.  The arc's
scale factors gamma t / den are therefore Python scalars, one per path, and
the products with them run on flat operands.  The tangent's dF/dp dp is one
stacked (S, n, m) @ (S, m, 1) product, bit-equal to each row's ``jp @ dp``
(``np.einsum`` is not).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

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
SAMPLE_ATTEMPTS = 3
# ``track_paths`` tracks this many paths or fewer one ``track_path`` call at
# a time, and hands its last this many stepping paths to ``_run_path``:
# below three, stacking costs more than it saves.
_SERIAL_PATHS = 2
# ``track_paths`` runs a call that would hold more bytes than this (rows x
# ``CompiledSystem.row_bytes``) in consecutive chunks that stay under it.
_STACK_BYTES = 64 << 20


class NewtonError(RuntimeError):
    pass


@dataclass(frozen=True)
class PathResult:
    status: str  # "success" | "diverged" | "singular" | "step_underflow"
    endpoint: np.ndarray | None
    steps_taken: int
    final_residual: float

    @property
    def success(self) -> bool:
        return self.status == "success"


# Max-norm distance within which two fiber solutions coincide: a fiber is
# pairwise distinct, and a tracked point matches a known one, on this scale.
MATCH_TOL = 1e-6
_MATCH_RATIO = 100.0  # a match's margin over the runner-up, and the band's width
NEW, AMBIGUOUS = "new", "ambiguous"  # ``match``'s outcomes besides an index
# ||F||_inf at which the corrector converges, and at which a path's endpoint
# counts as a solution.
NEWTON_TOL = 1e-10
PATH_TOL = 1e-8


@dataclass(frozen=True)
class FiberSample:
    """A parameter point together with the ordered solutions above it.

    ``solutions`` is the fiber format every stage shares: one read-only
    complex (d, n) array, one row per solution.  ``points()`` gives the rows
    [x | p] that polynomials and formulas are evaluated at."""

    params: np.ndarray
    solutions: np.ndarray

    def __post_init__(self):
        sols = np.array(self.solutions, dtype=complex)
        if sols.ndim != 2:
            raise ValueError("a fiber is a (d, n) array of solutions")
        sols.flags.writeable = False
        object.__setattr__(self, "params", np.asarray(self.params, dtype=complex))
        object.__setattr__(self, "solutions", sols)

    def __len__(self) -> int:
        return len(self.solutions)

    def points(self) -> np.ndarray:
        """The (d, n+m) rows [x | p], one per solution."""
        d, m = len(self.solutions), len(self.params)
        return np.concatenate([self.solutions, np.broadcast_to(self.params, (d, m))], axis=1)

    def distinct(self) -> bool:
        """Whether every two solutions are more than ``MATCH_TOL`` apart in
        the max norm: one reduction per solution over the ones after it."""
        sols = self.solutions
        return all(
            np.abs(sols[i + 1 :] - sols[i]).max(axis=1).min() > MATCH_TOL
            for i in range(len(sols) - 1)
        )


def _nearest(point, pool) -> tuple[int, float, float]:
    """The index of the closest pool point in the max norm, its distance,
    and the runner-up distance (inf for a one-point pool).  Exact ties are
    broken by ``np.argsort``."""
    dists = np.abs(pool - point).max(axis=1)
    order = np.argsort(dists)
    best = int(order[0])
    second = float(dists[order[1]]) if len(dists) > 1 else np.inf
    return best, float(dists[best]), second


def match(point, pool) -> int | str:
    """The index of the row of ``pool`` (a (k, n) array) within
    ``MATCH_TOL`` of ``point`` (max norm) and ``_MATCH_RATIO`` times closer
    than the runner-up, which an exact tie (d1 = d2 = 0) is not; else
    ``NEW`` for an empty pool or d1 >= ``_MATCH_RATIO`` x ``MATCH_TOL``,
    else ``AMBIGUOUS``."""
    if len(pool) == 0:
        return NEW
    best, d1, d2 = _nearest(point, pool)
    if d1 <= MATCH_TOL and d2 > d1 and d2 >= _MATCH_RATIO * d1:
        return best
    if d1 >= _MATCH_RATIO * MATCH_TOL:
        return NEW
    return AMBIGUOUS


# ---------------------------------------------------------------------------
# Compiled evaluation
# ---------------------------------------------------------------------------


class CompiledSystem:
    """Evaluator for F, dF/dx and dF/dp of one system over its unique
    monomials, on the ``expr`` kernel."""

    def __init__(self, system: System):
        n, m = system.n, system.m
        self.n, self.m, self.nvars = n, m, n + m
        # Derivatives only lower exponents, so F holds the highest power.
        self.maxdeg = max((max(e) for eq in system.equations for e, _ in eq.terms), default=0)
        stride = self.maxdeg + 1
        jac = expr.jacobian(system)
        pj = expr.parameter_jacobian(system)
        monomials: dict[tuple[int, ...], int] = {}
        self._f = expr.TermBlock(system.equations, monomials, stride, (n,))
        self._jx = expr.TermBlock([q for row in jac for q in row], monomials, stride, (n, n))
        self._jp = expr.TermBlock([q for row in pj for q in row], monomials, stride, (n, m))
        self._factors = expr.factor_table(monomials)
        # The bytes one row of a ``track_paths`` call holds, complex unless
        # noted: in ``monomial_rows``, the point, its x and p and the power
        # table's row of products, the power table, the gathered factors and
        # the unique monomials; the last monomials, f, dF/dx and the solve's
        # output of ``_newton_rows``; dF/dp; the coefficients (complex) and
        # offsets (intp) each term block repeats per row; the step loop's x,
        # k1, x0, four RK4 stages and x_pred, its arc's dp, mid, end and next
        # points with four rates, ``at_x`` and the last stage's monomials;
        # the gathered monomials and products of the larger block in
        # ``_tangent_rows``; and 20 8-byte per-path scalars and flags.
        unique, width = self._factors.shape
        blocks = (self._f, self._jx, self._jp)
        terms = sum(len(b.terms) for b in blocks)
        offsets = sum(len(b.offsets) for b in blocks)
        gathered = 2 * max(len(self._jx.terms), len(self._jp.terms))
        self.row_bytes = 16 * (
            self.nvars * (stride + 3) + unique * (width + 4) + n * n + n * m + 10 * n
            + 4 * m + 4 + gathered + terms
        ) + 8 * (offsets + 20)
        self._key: bytes | None = None
        self._mono: np.ndarray | None = None

    def _monomials(self, x, p) -> np.ndarray:
        """The read-only vector of every unique monomial at z = (x, p),
        recomputed only when z's bytes differ from the last call's."""
        z = np.concatenate([np.asarray(x, complex), np.asarray(p, complex)])
        key = z.tobytes()
        if key != self._key:
            mono = expr.monomials_at(self._factors, self.maxdeg, z)
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

    # Stacked evaluation: row i of x (S, n) and p (S, m) is one point.  The
    # blocks at row i of ``monomial_rows(x, p)`` are bit-equal to the
    # single-point methods' results at (x[i], p[i]).

    def monomial_rows(self, x, p) -> np.ndarray:
        """The (S, U) unique monomials at each row z = (x_i, p_i)."""
        return expr.monomial_rows(self._factors, self.maxdeg, np.concatenate([x, p], axis=1))

    def f_rows(self, mono) -> np.ndarray:
        return self._f.rows(mono)

    def jx_rows(self, mono) -> np.ndarray:
        return self._jx.rows(mono)

    def jp_rows(self, mono) -> np.ndarray:
        return self._jp.rows(mono)


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


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for one complex right-hand side: the same
    gufunc (numpy's LAPACK ``zgesv``) under the same error settings, so the
    same bits, no warning and the same ``LinAlgError`` on a singular a."""
    return _umath_linalg.solve1(a, b, signature="DD->D")


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


def _solve_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_solve(a[i], b[i])`` for each row of a stack: the solutions, and
    which rows solved.  One stacked ``_solve`` runs the same routine per
    matrix; when a singular matrix makes it raise, each row is solved alone,
    so only the singular rows fail (their solutions are NaN)."""
    try:
        return _solve(a, b), np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan, dtype=complex)
        solved = np.zeros(len(a), dtype=bool)
        for i in range(len(a)):
            try:
                out[i] = _solve(a[i], b[i])
                solved[i] = True
            except np.linalg.LinAlgError:
                pass
        return out, solved


def _newton_rows(comp, x, p, tol, max_iters, max_norm):
    """``_newton`` on each row of x (S, n) over the same row of p (S, m), in
    lockstep.  Returns the stacked (x, residual, converged, singular_flag,
    first_step_size), row i as ``_newton`` returns it for row i alone, and
    the monomials of each row's last evaluation, which are those at its
    returned x when it converged."""
    x = np.array(x, dtype=complex)
    count = len(x)
    res = np.full(count, np.inf)
    ok = np.zeros(count, dtype=bool)
    singular = np.zeros(count, dtype=bool)
    first_step = np.zeros(count)
    last = mono = comp.monomial_rows(x, p)
    live = np.arange(count)
    for it in range(max_iters + 1):
        if not len(live):
            break
        if it:
            mono = comp.monomial_rows(x[live], p[live])
            last[live] = mono
        f = comp.f_rows(mono)
        r = np.abs(f).max(axis=1)
        if it == max_iters:  # the check after the last correction
            res[live] = r
            ok[live] = r <= tol
            break
        finite = np.isfinite(r)
        res[live] = np.where(finite, r, np.inf)
        ok[live] = finite & (r <= tol)
        go = finite & (r > tol)
        live = live[go]
        if not len(live):
            break
        dx, solved = _solve_rows(comp.jx_rows(mono[go]), -f[go])
        singular[live[~solved]] = True
        live, dx = live[solved], dx[solved]
        if it == 0:
            first_step[live] = np.abs(dx).max(axis=1)
        x[live] = x[live] + dx
        far = np.abs(x[live]).max(axis=1) > max_norm
        res[live[far]] = np.inf
        live = live[~far]
    return x, res, ok, singular, first_step, last


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


def draw_gamma(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * np.pi * rng.random()))


def random_params(m: int, rng: np.random.Generator) -> np.ndarray:
    """A random complex parameter point: real parts, then imaginary parts."""
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def _start_newton(comp, x, p):
    """The start check of a path: Newton to 10 x ``NEWTON_TOL`` within the
    corrector's iteration count.  Returns (x, residual, converged)."""
    x, res, ok, _sing, _ = _newton(comp, x, p, NEWTON_TOL * 10, _MAX_NEWTON_ITERS, _MAX_NORM)
    return x, res, ok


def is_start_point(system: System, x, p) -> bool:
    """Whether ``track_path`` accepts x as a start point over p."""
    return _start_newton(compiled(system), x, p)[2]


def _bad_start(res: float) -> ValueError:
    return ValueError(f"start point does not satisfy the system (residual {res:.3e})")


class _Arc:
    """The parameter arcs of S paths, one per row: p_i(t) = p_from[i] +
    tau_i(t) dp[i], with tau_i = gamma_i t / (1 + (gamma_i - 1) t), and the
    rate dtau_i/dt.  ``p_from`` and ``p_to`` broadcast to (S, m) and the
    gammas to S, so a shared arc is the broadcast case."""

    __slots__ = ("p_from", "p_to", "dp", "gamma")

    def __init__(self, p_from, p_to, gamma, count: int):
        p_from = np.asarray(p_from, dtype=complex)
        shape = (count, p_from.shape[-1])
        self.p_from = np.broadcast_to(p_from, shape)
        self.p_to = np.broadcast_to(np.asarray(p_to, dtype=complex), shape)
        self.dp = self.p_to - self.p_from
        self.gamma = [complex(g) for g in np.broadcast_to(gamma, (count,)).tolist()]

    def point(self, i: int, t: float):
        gamma = self.gamma[i]
        den = 1.0 + (gamma - 1.0) * t
        return self.p_from[i] + (gamma * t / den) * self.dp[i], gamma / (den * den)

    def points(self, rows: np.ndarray, t: np.ndarray):
        """``point`` of each row at its t, stacked.  The scale factors and
        rates are computed as Python scalars, as in ``point``: numpy's
        complex arithmetic rounds differently."""
        gammas = [self.gamma[i] for i in rows.tolist()]
        ts = t.tolist()
        dens = [1.0 + (g - 1.0) * ti for g, ti in zip(gammas, ts)]
        scale = np.array([g * ti / den for g, ti, den in zip(gammas, ts, dens)])
        rate = np.array([g / (den * den) for g, den in zip(gammas, dens)])
        # Flat, equal-length operands in ``point``'s order: a broadcast
        # product may take another numpy loop, one that rounds differently.
        count, m = len(rows), self.dp.shape[1]
        step = np.repeat(scale, m) * self.dp.take(rows, axis=0).ravel()
        return self.p_from.take(rows, axis=0) + step.reshape(count, m), rate


def _tangent(comp, arc: _Arc, i: int, x, t: float) -> np.ndarray:
    """dx/dt of path i at (x, t): the solution of dF/dx dx = -dF/dp dp dtau/dt."""
    p, rate = arc.point(i, t)
    jx = comp.jx_at(x, p)
    jp = comp.jp_at(x, p)
    return _solve(jx, -(jp @ arc.dp[i]) * rate)


def _tangent_rows(comp, arc: _Arc, rows, mono, rate):
    """``_tangent`` of each of the paths ``rows``, given the monomials and
    rate at its point; and which rows solved.  The stacked product
    (S, n, m) @ (S, m, 1) is bit-equal to each row's ``jp @ dp``."""
    jp_dp = (comp.jp_rows(mono) @ arc.dp.take(rows, axis=0)[:, :, None])[..., 0]
    return _solve_rows(comp.jx_rows(mono), -jp_dp * rate[:, None])


def _endpoint(x, res: float, steps: int) -> PathResult:
    """The result of a path whose final corrector ended at x with residual res."""
    if float(np.abs(x).max()) > _MAX_NORM or not np.isfinite(res):
        return PathResult("diverged", None, steps, np.inf)
    if res > PATH_TOL:
        return PathResult("singular", None, steps, res)
    return PathResult("success", x, steps, res)


def _run_path(comp, arc: _Arc, i: int, x, t=0.0, h=_INITIAL_STEP, steps=0, streak=0,
              singular_seen=False, k1=None) -> PathResult:
    """The step loop and final corrector of path i of ``arc``, from its state
    at t: step size h, the accepts since the last expansion, whether a
    singular Jacobian was met, and the first RK4 stage at (x, t) when known."""

    while t < 1.0 - 1e-14:
        if steps >= _MAX_TOTAL_STEPS:
            return PathResult("step_underflow", None, steps, np.inf)
        h = min(h, 1.0 - t)
        accepted = False
        try:
            if k1 is None:
                k1 = _tangent(comp, arc, i, x, t)
            k2 = _tangent(comp, arc, i, x + 0.5 * h * k1, t + 0.5 * h)
            k3 = _tangent(comp, arc, i, x + 0.5 * h * k2, t + 0.5 * h)
            k4 = _tangent(comp, arc, i, x + h * k3, t + h)
            x_pred = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if np.all(np.isfinite(x_pred)):
                p_next, _ = arc.point(i, t + h)
                x_new, res, ok, sing, first_step = _newton(
                    comp, x_pred, p_next, NEWTON_TOL, _MAX_NEWTON_ITERS, _MAX_NORM
                )
                singular_seen = singular_seen or sing
                # Guard against sheet jumps: the corrector must stay a small
                # fraction of the predicted motion away from the prediction,
                # otherwise it may have converged onto a different path.
                motion = float(np.abs(x_pred - x).max())
                contraction_ok = first_step <= max(
                    0.2 * motion, 1000 * NEWTON_TOL * (1.0 + float(np.abs(x).max()))
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

    x, res, _, _, _ = _newton(comp, x, arc.p_to[i], NEWTON_TOL, 12, _MAX_NORM)
    return _endpoint(x, res, steps)


def track_path(
    system: System,
    x_start,
    p_from,
    p_to,
    *,
    gamma: complex,
) -> PathResult:
    """Continue one solution from p_from to p_to along the segment homotopy
    with the given gamma (``draw_gamma``; 1 is the straight segment)."""
    comp = compiled(system)
    arc = _Arc(p_from, p_to, gamma, 1)
    x, res, ok = _start_newton(comp, x_start, arc.p_from[0])
    if not ok:
        raise _bad_start(res)
    return _run_path(comp, arc, 0, x)


def track_paths(system: System, starts, p_from, p_to, gammas) -> list[PathResult]:
    """``track_path`` from each start along its own arc, in lockstep: row i
    of ``p_from`` and ``p_to`` (each broadcast to (S, m)) with gamma i (the
    gammas broadcast to S), so one shared arc is the broadcast case.  Result
    i is bit-identical to ``track_path(system, starts[i], p_from[i],
    p_to[i], gamma=gammas[i])``.

    Each path keeps its own t, step size, accept streak, cached first RK4
    stage and singular flag.  One pass of the loop takes one step (or one
    rejection) of every active path, with their evaluations and solves
    stacked, under ``track_path``'s rules for each.  A bad start raises the
    ``ValueError`` the first bad start raises in ``track_path``.  Up to
    ``_SERIAL_PATHS`` starts are tracked by ``track_path`` one at a time,
    and once no more than ``_SERIAL_PATHS`` paths are still stepping, each
    finishes alone from its state.
    """
    count = len(starts)
    arc = _Arc(p_from, p_to, gammas, count)
    if count <= _SERIAL_PATHS:
        return [
            track_path(system, x, arc.p_from[i], arc.p_to[i], gamma=arc.gamma[i])
            for i, x in enumerate(starts)
        ]
    comp = compiled(system)
    chunk = max(_SERIAL_PATHS + 1, _STACK_BYTES // comp.row_bytes)
    if count > chunk:
        return [
            r
            for k in range(0, count, chunk)
            for r in track_paths(
                system, starts[k : k + chunk], arc.p_from[k : k + chunk],
                arc.p_to[k : k + chunk], arc.gamma[k : k + chunk],
            )
        ]
    x, res, ok, _, _, _ = _newton_rows(
        comp, np.array(starts, dtype=complex), arc.p_from,
        NEWTON_TOL * 10, _MAX_NEWTON_ITERS, _MAX_NORM,
    )
    if not ok.all():
        raise _bad_start(float(res[np.argmin(ok)]))

    t = np.zeros(count)
    h = np.full(count, _INITIAL_STEP)
    steps = np.zeros(count, dtype=int)
    streak = np.zeros(count, dtype=int)
    singular_seen = np.zeros(count, dtype=bool)
    k1 = np.empty_like(x)
    have_k1 = np.zeros(count, dtype=bool)  # k1[i] is the first stage at (x[i], t[i])
    # The monomials and the rate at (x[i], t[i]): the corrector's last
    # evaluation at an accepted point is kept, as the single-point memo
    # shares it with the next first stage.
    p, rate_at = arc.points(np.arange(count), t)
    at_x = comp.monomial_rows(x, p)
    results: list[PathResult | None] = [None] * count
    running = np.ones(count, dtype=bool)  # False once a path has its result

    def end(rows, status):
        if len(rows):
            running[rows] = False
            for i in rows.tolist():
                results[i] = PathResult(status, None, int(steps[i]), np.inf)

    active = np.arange(count)
    while True:
        active = active[running[active] & (t[active] < 1.0 - 1e-14)]
        if len(active) <= _SERIAL_PATHS:
            break
        end(active[steps[active] >= _MAX_TOTAL_STEPS], "step_underflow")
        active = active[running[active]]
        h[active] = np.minimum(h[active], 1.0 - t[active])

        need = active[~have_k1[active]]
        if len(need):
            k, solved = _tangent_rows(comp, arc, need, at_x[need], rate_at[need])
            k1[need[solved]] = k[solved]
            have_k1[need[solved]] = True
            singular_seen[need[~solved]] = True
        # A failed solve ends a path's attempt, as LinAlgError does in
        # ``_run_path``; its later stages are computed but never used.
        rows = active[have_k1[active]]
        x0, hh = x[rows], h[rows]
        mid = arc.points(rows, t[rows] + 0.5 * hh)
        end_point = arc.points(rows, t[rows] + hh)
        alive = np.ones(len(rows), dtype=bool)
        ks = [k1[rows]]
        for frac, (p, rate) in ((0.5, mid), (0.5, mid), (1.0, end_point)):
            mono = comp.monomial_rows(x0 + (frac * hh)[:, None] * ks[-1], p)
            k, solved = _tangent_rows(comp, arc, rows, mono, rate)
            singular_seen[rows[alive & ~solved]] = True
            alive &= solved
            ks.append(k)
        x_pred = x0 + (hh / 6.0)[:, None] * (ks[0] + 2 * ks[1] + 2 * ks[2] + ks[3])
        alive &= np.isfinite(x_pred).all(axis=1)
        rows, x0, x_pred = rows[alive], x0[alive], x_pred[alive]
        p_next, rate_next = end_point[0][alive], end_point[1][alive]

        accepted = np.zeros(count, dtype=bool)
        if len(rows):
            x_new, _, ok, sing, first_step, mono_new = _newton_rows(
                comp, x_pred, p_next, NEWTON_TOL, _MAX_NEWTON_ITERS, _MAX_NORM
            )
            singular_seen[rows] |= sing
            # The sheet-jump guard of ``_run_path``.
            motion = np.abs(x_pred - x0).max(axis=1)
            floor = 1000 * NEWTON_TOL * (1.0 + np.abs(x0).max(axis=1))
            good = ok & (first_step <= np.maximum(0.2 * motion, floor))
            acc = rows[good]
            accepted[acc] = True
            t[acc] += h[acc]
            x[acc] = x_new[good]
            at_x[acc] = mono_new[good]
            rate_at[acc] = rate_next[good]
            have_k1[acc] = False
            steps[acc] += 1
            streak[acc] += 1
            expand = acc[streak[acc] >= _ACCEPT_STREAK]
            h[expand] = np.minimum(h[expand] * _STEP_EXPAND, _MAX_STEP)
            streak[expand] = 0

        rejected = active[~accepted[active]]
        diverged = np.abs(x[rejected]).max(axis=1) > _MAX_NORM
        end(rejected[diverged], "diverged")
        rejected = rejected[~diverged]
        streak[rejected] = 0
        h[rejected] *= _STEP_SHRINK
        under = rejected[h[rejected] < _MIN_STEP]
        end(under[singular_seen[under]], "singular")
        end(under[~singular_seen[under]], "step_underflow")

    for i in active.tolist():
        running[i] = False
        results[i] = _run_path(
            comp, arc, i, x[i].copy(), float(t[i]), float(h[i]), int(steps[i]),
            int(streak[i]), bool(singular_seen[i]), k1[i].copy() if have_k1[i] else None,
        )
    done = np.flatnonzero(running)
    if len(done):
        x, res, _, _, _, _ = _newton_rows(
            comp, x[done], arc.p_to[done], NEWTON_TOL, 12, _MAX_NORM
        )
        for i, xi, ri in zip(done.tolist(), x, res.tolist()):
            results[i] = _endpoint(xi.copy(), ri, int(steps[i]))
    return results


def track_fiber(
    system: System, fibers: Sequence[FiberSample], targets, gammas
) -> list[FiberSample | None]:
    """Track every solution of each fiber to new parameters, preserving
    order: fiber i from its own parameters to ``targets[i]`` with
    ``gammas[i]``.  The paths of all fibers go out in one ``track_paths``
    call.

    Fiber i comes back as None when its solutions are not pairwise distinct
    (it is not tracked), when any of its paths fails, or when two of its
    endpoints coincide within ``MATCH_TOL``.
    """
    live = [i for i, fiber in enumerate(fibers) if fiber.distinct()]
    out: list[FiberSample | None] = [None] * len(fibers)
    if not live:
        return out
    sizes = [len(fibers[i]) for i in live]
    results = track_paths(
        system,
        np.concatenate([fibers[i].solutions for i in live]),
        np.repeat([fibers[i].params for i in live], sizes, axis=0),
        np.repeat([np.asarray(targets[i], dtype=complex) for i in live], sizes, axis=0),
        np.repeat([complex(gammas[i]) for i in live], sizes),
    )
    ends = np.cumsum(sizes)
    for i, stop, size in zip(live, ends.tolist(), sizes):
        paths = results[stop - size : stop]
        if all(r.success for r in paths):
            sample = FiberSample(targets[i], [r.endpoint for r in paths])
            if sample.distinct():
                out[i] = sample
    return out


def retraces(
    system: System, starts: Sequence[FiberSample], samples: Sequence[FiberSample], gammas
) -> list[bool]:
    """Whether each sample, tracked from its own start (``starts[i]`` for
    sample i) with its gamma, retraces its arc back to that start: gamma ->
    1/gamma reverses the same arc exactly, and every point must return
    within ``MATCH_TOL`` of its start.  All samples go back in one
    ``track_fiber`` call.

    Sheet jumps inside a full tracked fiber surface as endpoint collisions,
    but a partial fiber (a deck orbit) tracks only a few sheets; a sheet
    jump on the way out lands somewhere else on the way back.
    """
    backs = track_fiber(
        system, samples, [start.params for start in starts], [1.0 / complex(g) for g in gammas]
    )
    return [
        back is not None
        and not (np.abs(back.solutions - start.solutions).max(axis=1) > MATCH_TOL).any()
        for start, back in zip(starts, backs)
    ]


def sample_fiber(
    system: System,
    fiber: FiberSample,
    count: int,
    rng: np.random.Generator,
    *,
    retrace: bool = False,
) -> list[FiberSample | None]:
    """Track a fiber to ``count`` fresh random targets, one per slot.

    Each round draws the target, then gamma, for every open slot in slot
    order, as one draw per slot in turn would; tracks all their fibers in
    one ``track_fiber`` call; and, with ``retrace``, checks every tracked
    sample by its round trip (``retraces``) in one more call.  A slot whose
    fiber fails, or whose sample does not retrace, is redrawn in the next
    round, after the round's other draws; a slot still open after
    ``SAMPLE_ATTEMPTS`` rounds is None.
    """
    out: list[FiberSample | None] = [None] * count
    pending = list(range(count))
    for _ in range(SAMPLE_ATTEMPTS):
        if not pending:
            break
        targets, gammas = [], []
        for _slot in pending:
            targets.append(random_params(system.m, rng))
            gammas.append(draw_gamma(rng))
        samples = track_fiber(system, [fiber] * len(pending), targets, gammas)
        good = [k for k, sample in enumerate(samples) if sample is not None]
        if retrace and good:
            back = retraces(
                system, [fiber] * len(good), [samples[k] for k in good], [gammas[k] for k in good]
            )
            good = [k for k, ok in zip(good, back) if ok]
        for k in good:
            out[pending[k]] = samples[k]
        pending = [slot for slot in pending if out[slot] is None]
    return out
