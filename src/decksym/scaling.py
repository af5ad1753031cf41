"""Scaling symmetries from exact integer linear algebra.

The supports of the structural equations give a matrix of shifted exponent
vectors; its Smith Normal Form splits the variables' weight lattice into a
free part (continuous scalings, one C* per row) and torsion blocks
(candidate root-of-unity scalings mod each elementary divisor > 1).
Discrete candidates are then filtered by a probability-one homotopy test:
a candidate survives only if it maps the solution variety to itself and
commutes with the deck permutations.  The test tracks only the scaled deck
orbit of one base solution, straight back to the base parameters, and
matches it against the labelled base fiber: |G| paths per candidate rather
than the fiber, and no fiber tracked anywhere else.  Each candidate's
scaled orbit is prepared first, without the rng.  An attempt that fails at
s(x_0) uses one path, one that stays there its orbit and, if the orbit lands
on distinct matched points, the orbit's round trip, which must come back
before the candidate passes or fails to commute.  A fresh gamma is an
independent try at the same target (the gamma trick), so ``_decide`` runs
the attempts in plain retry rounds, like ``tracker.sample_fiber``: one gamma
per open candidate and at most three lockstep calls a round.

All integer arithmetic is exact.  The SNF runs on int64 with an overflow
guard and falls back to arbitrary-precision Python integers when entries
grow; pivoting always picks the minimum-magnitude entry to limit growth.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import Exponent, Polynomial, System
from . import monodromy, tracker

_INT64_GUARD = 2**31
# Above this many Z_d-combinations of a torsion block, only its rows and
# their pairwise sums are filter candidates.
_ENUMERATION_CAP = 4096
# Relative patch residual below which a scaled point needs no re-patching.
_PATCH_TOL = 1e-9


@dataclass(frozen=True)
class IntMatrix:
    """Exact integer matrix; entries are Python ints (no overflow permitted)."""

    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
            raise ValueError("ragged integer matrix")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in r) for r in rows)
        ncols = len(data[0]) if data else (cols if cols is not None else 0)
        return IntMatrix(len(data), ncols, data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i]


@dataclass(frozen=True)
class SnfDecomposition:
    """U @ A @ V = diag(d_1, ..., d_k, 0, ...) with U, V unimodular and d_i | d_{i+1}."""

    U: IntMatrix
    diag: tuple[int, ...]
    V: IntMatrix

    def diagonal_entry(self, i: int) -> int:
        return self.diag[i] if i < len(self.diag) else 0


class _OverflowRisk(Exception):
    pass


def smith_normal_form(a: IntMatrix) -> SnfDecomposition:
    """Exact Smith Normal Form with minimum-magnitude pivoting."""
    try:
        m = np.array([list(r) for r in a.data], dtype=np.int64).reshape(a.rows, a.cols)
        u, d, v = _snf_inplace(m, guard=True)
    except _OverflowRisk:
        m = np.array([list(r) for r in a.data], dtype=object).reshape(a.rows, a.cols)
        u, d, v = _snf_inplace(m, guard=False)
    return SnfDecomposition(
        IntMatrix.from_rows([[int(x) for x in row] for row in u], a.rows),
        tuple(int(x) for x in d),
        IntMatrix.from_rows([[int(x) for x in row] for row in v], a.cols),
    )


def _snf_inplace(m: np.ndarray, guard: bool):
    rows, cols = m.shape
    u = np.eye(rows, dtype=m.dtype)
    v = np.eye(cols, dtype=m.dtype)

    def check():
        if guard and (np.abs(m).max(initial=0) > _INT64_GUARD or np.abs(u).max(initial=0) > _INT64_GUARD or np.abs(v).max(initial=0) > _INT64_GUARD):
            raise _OverflowRisk

    for k in range(min(rows, cols)):
        while True:
            sub = m[k:, k:]
            nz = np.nonzero(sub)
            if len(nz[0]) == 0:
                break
            mags = np.abs(sub[nz])
            best = int(np.argmin(mags))
            pi, pj = int(nz[0][best]) + k, int(nz[1][best]) + k
            if pi != k:
                m[[k, pi]] = m[[pi, k]]
                u[[k, pi]] = u[[pi, k]]
            if pj != k:
                m[:, [k, pj]] = m[:, [pj, k]]
                v[:, [k, pj]] = v[:, [pj, k]]
            if m[k, k] < 0:
                m[k] = -m[k]
                u[k] = -u[k]
            pivot = m[k, k]
            # Reduce column k, then row k.
            col = m[k + 1 :, k]
            if np.any(col):
                q = col // pivot
                m[k + 1 :] -= np.outer(q, m[k])
                u[k + 1 :] -= np.outer(q, u[k])
                check()
                if np.any(m[k + 1 :, k]):
                    continue
            rowr = m[k, k + 1 :]
            if np.any(rowr):
                q = rowr // pivot
                m[:, k + 1 :] -= np.outer(m[:, k], q)
                v[:, k + 1 :] -= np.outer(v[:, k], q)
                check()
                if np.any(m[k, k + 1 :]):
                    continue
            # Pivot must divide every remaining entry.
            rem = m[k + 1 :, k + 1 :] % pivot
            bad = np.nonzero(rem)
            if len(bad[0]) == 0:
                break
            i = int(bad[0][0]) + k + 1
            m[k] += m[i]
            u[k] += u[i]
            check()
        if m[k, k] == 0:
            break
    diag = [int(m[i, i]) for i in range(min(rows, cols))]
    while diag and diag[-1] == 0:
        diag.pop()
    return u, diag, v


# ---------------------------------------------------------------------------
# Scaling lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorsionBlock:
    """Rows that become left-null vectors of the exponent matrix mod ``modulus``."""

    modulus: int
    rows: IntMatrix  # entries reduced into [0, modulus)

    @property
    def rank(self) -> int:
        return self.rows.rows


@dataclass(frozen=True)
class ScalingLattice:
    """Weight vectors of the detected scaling symmetries.

    ``free`` rows generate the continuous group (one C* factor per row,
    exact left-null vectors of the exponent-difference matrix); each torsion
    block generates root-of-unity candidates mod its divisor.
    """

    nvars: int
    free: IntMatrix
    torsion: tuple[TorsionBlock, ...]

    @property
    def free_rank(self) -> int:
        return self.free.rows


def exponent_difference_matrix(system: System) -> IntMatrix:
    """Columns alpha_ij - alpha_i1 (j >= 2) per structural equation, stacked.

    The matrix has one row per variable (unknowns then parameters); patch
    equations contribute no columns.
    """
    nvars = system.n + system.m
    cols: list[tuple[int, ...]] = []
    for eq in system.structural_equations():
        supp = eq.support()
        if not supp:
            raise ValueError("equation with empty support")
        base = supp[0]
        for alpha in supp[1:]:
            cols.append(tuple(a - b for a, b in zip(alpha, base)))
    data = tuple(tuple(col[i] for col in cols) for i in range(nvars))
    return IntMatrix(nvars, len(cols), data)


def extract_scaling_lattice(snf: SnfDecomposition, n_plus_m: int) -> ScalingLattice:
    """Split the rows of U by their diagonal divisor: 1 -> dropped, d>1 ->
    torsion block (reduced mod d), 0 -> free."""
    if snf.U.cols != n_plus_m:
        raise ValueError("SNF does not match the variable count")
    free_rows = []
    torsion_rows: dict[int, list[tuple[int, ...]]] = {}
    for i in range(snf.U.rows):
        d = snf.diagonal_entry(i)
        if d == 0:
            free_rows.append(snf.U.row(i))
        elif d > 1:
            torsion_rows.setdefault(d, []).append(tuple(x % d for x in snf.U.row(i)))
    blocks = tuple(
        TorsionBlock(d, IntMatrix.from_rows(rows, n_plus_m))
        for d, rows in sorted(torsion_rows.items())
    )
    return ScalingLattice(
        n_plus_m, IntMatrix.from_rows(free_rows, n_plus_m), blocks
    )


def detect_scalings(system: System) -> ScalingLattice:
    """Exponent matrix -> SNF -> lattice, in one step."""
    a = exponent_difference_matrix(system)
    if a.cols == 0:
        return ScalingLattice(a.rows, IntMatrix.identity(a.rows), ())
    return extract_scaling_lattice(smith_normal_form(a), a.rows)


# ---------------------------------------------------------------------------
# Multidegrees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Multidegree:
    free: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]


def denominator_multidegree(numer: Multidegree, lattice: ScalingLattice, j: int) -> Multidegree:
    """Multidegree forced on the denominator class for unknown j (0-based):
    subtract column j of every weight matrix, mod d on torsion parts."""
    if not 0 <= j < lattice.nvars:
        raise ValueError("coordinate index out of range")
    free = tuple(nv - row[j] for nv, row in zip(numer.free, lattice.free.data))
    torsion = tuple(
        tuple((nv - row[j]) % blk.modulus for nv, row in zip(part, blk.rows.data))
        for part, blk in zip(numer.torsion, lattice.torsion)
    )
    return Multidegree(free, torsion)


def multidegrees_bulk(exponents: Sequence[Exponent], lattice: ScalingLattice) -> list[Multidegree]:
    """Vectorized multidegree of many exponent vectors (int64-safe sizes only)."""
    if not exponents:
        return []
    e = np.asarray(exponents, dtype=np.int64)
    frees = (
        np.asarray([list(r) for r in lattice.free.data], dtype=np.int64) @ e.T
        if lattice.free.rows
        else np.zeros((0, len(exponents)), dtype=np.int64)
    )
    tors = []
    for blk in lattice.torsion:
        w = np.asarray([list(r) for r in blk.rows.data], dtype=np.int64) @ e.T
        tors.append(w % blk.modulus)
    out = []
    for k in range(len(exponents)):
        out.append(
            Multidegree(
                tuple(int(x) for x in frees[:, k]),
                tuple(tuple(int(x) for x in t[:, k]) for t in tors),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Scaling actions on points
# ---------------------------------------------------------------------------


def scale_factors(row: Sequence[int], lam: complex) -> np.ndarray:
    return np.array([lam ** int(u) for u in row], dtype=complex)


def apply_scaling(row: Sequence[int], lam: complex, point: np.ndarray) -> np.ndarray:
    return np.asarray(point, dtype=complex) * scale_factors(row, lam)


def pure_unknown_free_rows(system: System, lattice: ScalingLattice) -> list[tuple[int, ...]]:
    """Free rows acting on the unknowns only (parameter weights all zero)."""
    n = system.n
    return [row for row in lattice.free.data if all(w == 0 for w in row[n:])]


def repatch_point(system: System, lattice: ScalingLattice, point: np.ndarray) -> np.ndarray:
    """Rescale a point along pure-unknown continuous scalings until the patch
    equations hold again.

    Discrete scalings move points off the affine patch slices; the projective
    scale they absorb is exactly a pure-unknown free scaling, so membership
    tests must quotient it out.  Supports patches whose non-constant terms
    share one weight under some pure-unknown free row.
    """
    if not system.patch_indices:
        return point
    z = np.array(point, dtype=complex)
    rows = pure_unknown_free_rows(system, lattice)
    for idx in system.patch_indices:
        eq = system.equations[idx]
        if abs(eq.evaluate(z)) <= _PATCH_TOL * (1 + float(np.abs(z).max())):
            continue
        fixed = None
        for row in rows:
            weights = {sum(u * e for u, e in zip(row, exp)) for exp, _ in eq.terms}
            nonzero = [w for w in weights if w != 0]
            if len(weights) == 2 and 0 in weights and len(nonzero) == 1:
                fixed = (row, nonzero[0])
                break
        if fixed is None:
            raise ValueError("cannot re-normalize the scaled point to the patch slice")
        row, w = fixed
        weights = [sum(u * e for u, e in zip(row, exp)) for exp, _ in eq.terms]
        const = Polynomial(eq.nvars, [t for t, k in zip(eq.terms, weights) if k == 0])
        graded = Polynomial(eq.nvars, [t for t, k in zip(eq.terms, weights) if k])
        const_val, graded_val = const.evaluate(z), graded.evaluate(z)
        if graded_val == 0:
            raise ValueError("degenerate point: cannot re-normalize to the patch")
        lam = (-const_val / graded_val) ** (1.0 / w)
        z = apply_scaling(row, lam, z)
    return z


# ---------------------------------------------------------------------------
# Probability-one filtering of discrete candidates
# ---------------------------------------------------------------------------


@dataclass
class CandidateOutcome:
    modulus: int
    vector: tuple[int, ...]
    status: str  # "passed" | "failed_stability" | "failed_commutation" | "undetermined"


@dataclass
class DiscreteScalingFilter:
    lattice: ScalingLattice  # same free part, torsion replaced by commuting subset
    candidates: list[CandidateOutcome]
    enumeration_truncated: bool = False
    composite_modulus_note: bool = False


def _enumerate_candidates(block: TorsionBlock):
    """All Z_d-combinations of the block rows (nonzero, deduplicated); above
    ``_ENUMERATION_CAP``, only single rows and pairwise sums."""
    d = block.modulus
    rows = [list(r) for r in block.rows.data]
    r = len(rows)
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    truncated = d**r > _ENUMERATION_CAP

    def push(vec):
        v = tuple(x % d for x in vec)
        if any(v) and v not in seen:
            seen.add(v)
            out.append(v)

    if not truncated:
        for coeffs in itertools.product(range(d), repeat=r):
            push([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(block.rows.cols)])
    else:
        for row in rows:
            push(row)
        for a in range(r):
            for b in range(a + 1, r):
                push([x + y for x, y in zip(rows[a], rows[b])])
    return out, truncated


def commuting_discrete_scalings(
    lattice: ScalingLattice,
    system: System,
    mono: monodromy.MonodromyResult,
    deck_perms: Sequence[tuple[int, ...]],
    rng: np.random.Generator,
) -> DiscreteScalingFilter:
    """Filter the torsion blocks down to scalings that preserve the tracked
    variety and commute with every deck permutation.

    For each candidate u and primitive d-th root of unity lam, only the
    scaled deck orbit s(x_0), s(x_sigma(0)), ... is tracked, from
    lam^u (.) p0 straight back to p0 with one random gamma, and matched
    against the base fiber, whose indices are the labels the deck
    permutations act on: |G| paths instead of the whole fiber.  A candidate
    with parameter part 0 mod d has lam^u (.) p0 == p0, so its arc is
    constant and the test is plain membership in the base fiber.
    Stability: every scaled orbit point must pass the start Newton over the
    scaled parameters, and ``tracker.match`` must not call s(x_0) new in the
    base fiber.  A candidate that fails at s(x_0) uses one path; the rest
    of its orbit is used only when s(x_0) stays on the tracked component,
    and coinciding scaled orbit points leave it undetermined.  Commutation:
    s(x_sigma(0)) must match sigma(c) for every deck permutation sigma,
    where s(x_0) matched c.  Before it passes or fails to commute, the
    orbit must also retrace its arc back to the scaled orbit
    (``tracker.retraces``), so a sheet jump can neither pass a candidate
    nor fail it.  A failed path, an endpoint collision, an unmatched
    landing or a failed round trip retries with a fresh gamma; after
    ``tracker.SAMPLE_ATTEMPTS`` tries the candidate is undetermined and
    excluded.

    The candidates are decided in rounds (``_decide``): each round draws one
    gamma from ``rng`` per open candidate, in candidate order, and tracks
    their paths in at most three lockstep calls.
    """
    base = mono.base
    nontrivial, _, orbit = monodromy.deck_orbit(mono, deck_perms)

    tested: list[tuple[int, tuple[int, ...], tracker.FiberSample | str]] = []
    truncated_any = False
    composite = any(
        blk.modulus > 1 and not _is_prime(blk.modulus) for blk in lattice.torsion
    )
    for blk in lattice.torsion:
        d = blk.modulus
        lam = -1.0 + 0.0j if d == 2 else cmath.exp(2j * cmath.pi / d)
        candidates, truncated = _enumerate_candidates(blk)
        truncated_any = truncated_any or truncated
        tested += [(d, u, _scaled_orbit(system, lattice, orbit, u, lam)) for u in candidates]

    decided = _decide(system, base, nontrivial, [scaled for _, _, scaled in tested], rng)
    outcomes: list[CandidateOutcome] = []
    passing: dict[int, list[tuple[int, ...]]] = {}
    for (d, u, _), outcome in zip(tested, decided):
        outcomes.append(CandidateOutcome(d, u, outcome))
        if outcome == "passed":
            passing.setdefault(d, []).append(u)

    blocks = []
    for blk in lattice.torsion:
        vecs = passing.get(blk.modulus, [])
        if not vecs:
            continue
        if _is_prime(blk.modulus):
            kept = _independent_mod_p(vecs, blk.modulus)
        else:
            orig = {tuple(r) for r in blk.rows.data}
            kept = [v for v in vecs if v in orig]
        if kept:
            blocks.append(TorsionBlock(blk.modulus, IntMatrix.from_rows(kept, lattice.nvars)))
    filtered = ScalingLattice(lattice.nvars, lattice.free, tuple(blocks))
    return DiscreteScalingFilter(filtered, outcomes, truncated_any, composite)


def _scaled_orbit(system, lattice, orbit, u, lam) -> tracker.FiberSample | str:
    """The candidate's scaled orbit over its scaled parameters, each point
    re-patched and a start point there; else the candidate's outcome:
    ``failed_stability``, or ``undetermined`` when two points coincide."""
    n = system.n
    p_scaled = apply_scaling(u[n:], lam, orbit.params)
    starts = []
    for point in apply_scaling(u, lam, orbit.points()):
        try:
            point = repatch_point(system, lattice, point)
        except ValueError:
            return "failed_stability"
        if not tracker.is_start_point(system, point[:n], p_scaled):
            return "failed_stability"
        starts.append(point[:n])
    scaled = tracker.FiberSample(p_scaled, starts)
    return scaled if scaled.distinct() else "undetermined"


def _decide(system, base, deck_perms, scaled, rng) -> list[str]:
    """Every candidate's outcome: its status from ``_scaled_orbit``, or the
    outcome of its attempts, decided in plain rounds like
    ``tracker.sample_fiber``'s.

    Each round draws one gamma per open candidate, in candidate order, and
    makes at most three lockstep calls: every s(x_0); the rest of every
    orbit whose s(x_0) stayed; and the round trips (``tracker.retraces``) of
    every orbit that landed on distinct matched points.  A candidate that
    must retry stays open for the next round; one still open after
    ``tracker.SAMPLE_ATTEMPTS`` rounds is undetermined.
    """
    p0 = base.params
    outcomes = [orbit if isinstance(orbit, str) else "undetermined" for orbit in scaled]
    pending = [c for c, orbit in enumerate(scaled) if not isinstance(orbit, str)]
    for _ in range(tracker.SAMPLE_ATTEMPTS):
        if not pending:
            break
        gammas = {c: tracker.draw_gamma(rng) for c in pending}
        paths: dict[int, dict[int, tracker.PathResult]] = {c: {} for c in pending}

        def track(rows):
            if not rows:
                return
            results = tracker.track_paths(
                system,
                np.array([scaled[c].solutions[j] for c, j in rows]),
                np.array([scaled[c].params for c, _ in rows]),
                p0,
                [gammas[c] for c, _ in rows],
            )
            for (c, j), r in zip(rows, results):
                paths[c][j] = r

        track([(c, 0) for c in pending])
        track([
            (c, j) for c in pending if _landing(base, deck_perms, paths[c]) is None
            for j in range(1, len(scaled[c]))
        ])
        lands = {c: _landing(base, deck_perms, paths[c]) for c in pending}
        landed = [c for c in pending if isinstance(lands[c], tuple)]
        oks = tracker.retraces(
            system,
            [scaled[c] for c in landed],
            [tracker.FiberSample(p0, lands[c][0]) for c in landed],
            [gammas[c] for c in landed],
        )
        for c, ok in zip(landed, oks):
            lands[c] = lands[c][1] if ok else "retry"
        for c in pending:
            if lands[c] != "retry":
                outcomes[c] = lands[c]
        pending = [c for c in pending if lands[c] == "retry"]
    return outcomes


def _landing(base, deck_perms, paths):
    """One attempt's outcome from its paths out so far (``paths[j]`` is orbit
    point j's, where tracked): None while a path is missing, ``retry``,
    ``failed_stability``, or, for an orbit that landed on distinct matched
    points, its endpoints and the outcome its round trip would confirm,
    ``passed`` or ``failed_commutation``."""
    ends, landed = [], []
    for j in range(1 + len(deck_perms)):
        r = paths.get(j)
        if r is None:
            return None
        if not r.success:
            return "retry"  # a failed path
        k = tracker.match(r.endpoint, base.solutions)
        if k == tracker.NEW and not ends:
            return "failed_stability"  # s(x_0) left the tracked component
        ends.append(r.endpoint)
        landed.append(k)
    if not tracker.FiberSample(base.params, ends).distinct():
        return "retry"  # an endpoint collision
    if tracker.NEW in landed or tracker.AMBIGUOUS in landed:
        return "retry"  # no reliable match
    first = landed[0]
    commutes = all(b == sigma[first] for b, sigma in zip(landed[1:], deck_perms))
    return ends, "passed" if commutes else "failed_commutation"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def _independent_mod_p(vectors: list[tuple[int, ...]], p: int) -> list[tuple[int, ...]]:
    """Maximal independent subset over Z_p by Gaussian elimination, keeping
    the earliest vectors."""
    kept: list[tuple[int, ...]] = []
    basis: list[list[int]] = []
    for vec in vectors:
        v = [x % p for x in vec]
        for b in basis:
            lead = next((j for j, x in enumerate(b) if x), None)
            if lead is not None and v[lead]:
                factor = (v[lead] * pow(b[lead], -1, p)) % p
                v = [(x - factor * y) % p for x, y in zip(v, b)]
        if any(v):
            basis.append(v)
            kept.append(vec)
    return kept
