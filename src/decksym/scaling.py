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
scaled orbit is prepared first, without the rng; the candidates are then
decided in order, one gamma per attempt.  A candidate that fails at s(x_0)
uses one path, one that stays there its orbit and, if it would pass, the
orbit's round trip.  Those paths are tracked ahead of their turn in
lockstep, in rounds of a few candidates (``_Lookahead``), and used as one
candidate at a time would track them.

All integer arithmetic is exact.  The SNF runs on int64 with an overflow
guard and falls back to arbitrary-precision Python integers when entries
grow; pivoting always picks the minimum-magnitude entry to limit growth.
"""

from __future__ import annotations

import cmath
import itertools
from copy import deepcopy
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
    where s(x_0) matched c.  A passing candidate must also retrace its arc
    back to the scaled orbit (``tracker.retraces``), so a sheet jump cannot
    pass it.  A failed path, an endpoint collision or any other unmatched
    landing retries with a fresh gamma; after ``tracker.SAMPLE_ATTEMPTS``
    tries the candidate is undetermined and excluded.

    Candidates are decided one after the other, each drawing one gamma per
    attempt from ``rng``; their paths are tracked ahead in lockstep
    (``_Lookahead``), so the outcomes, the paths used and the draws are
    those of one candidate at a time.
    """
    base = mono.base
    nontrivial, orbit = monodromy.deck_orbit(mono, deck_perms)

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

    ahead = _Lookahead(system, base, nontrivial, [scaled for _, _, scaled in tested])
    outcomes: list[CandidateOutcome] = []
    passing: dict[int, list[tuple[int, ...]]] = {}
    for c, (d, u, scaled) in enumerate(tested):
        outcome = scaled if isinstance(scaled, str) else ahead.decide(c, rng)
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


class _Lookahead:
    """The filter's paths, tracked ahead of their turn and taken in turn.

    Candidates are decided in order, attempt by attempt, each attempt
    drawing its gamma from the real rng and taking the paths that deciding
    one candidate at a time tracks: s(x_0), then the rest of the orbit up
    to its first failed path when s(x_0) stays on the tracked component,
    then the round trip of an orbit that would pass.  Each is looked up by
    (candidate, gamma, orbit index), or (candidate, gamma) for the round
    trip; a miss makes one lockstep call for it and for the same step of
    the candidates after it in the round:

    1. s(x_0): a new round.  From a copy of the rng, each of the next
       candidates with an orbit draws the gamma it would draw if every
       earlier one decided on this attempt, and tracks s(x_0) with it.
    2. The rest of the orbit, for the round's candidates whose s(x_0)
       stayed, up to the first one known to retry.
    3. The round trips (``tracker.retraces``), for the round's candidates
       whose orbit would pass, up to the first one that is unknown or
       retries.

    A retry draws a gamma the round gave to the next candidate, so it ends
    the round: every row tracked ahead goes unused.  So that those rows
    never outnumber the candidates with an orbit (C), a call tracks rows
    for later candidates only while U, the rows gone unused so far, plus
    every row tracked for them and not yet used stays within C
    (``_room``).  A round's first call takes room // |G| candidates after
    its first: one row each, leaving room for about half of them to stay
    and come back (|G| - 1 more rows out and |G| back each); calls 2 and 3
    stop at the first later candidate that no longer fits.  The rows of an
    orbit after its first failed path are tracked too and go unused, and U
    counts them; they are the candidate's own attempt, not rows tracked
    ahead.
    """

    def __init__(self, system, base, deck_perms, scaled):
        self.system, self.base, self.deck_perms, self.scaled = system, base, deck_perms, scaled
        self.size = 1 + len(deck_perms)  # |G|, the rows of one orbit
        self.allowance = sum(not isinstance(orbit, str) for orbit in scaled)
        self.unused = 0
        self.paths: dict[tuple, tracker.PathResult] = {}
        self.backs: dict[tuple, bool] = {}
        self.round: dict[int, complex] = {}  # the round's gamma of each later candidate

    def decide(self, c: int, rng: np.random.Generator) -> str:
        """The outcome of candidate c, drawing one gamma per attempt."""
        for attempt in range(1, tracker.SAMPLE_ATTEMPTS + 1):
            gamma = tracker.draw_gamma(rng)
            outcome = self._attempt(c, gamma, rng)
            # Rows of this attempt it did not use: after a failed path.
            for key in [key for key in self.paths if key[:2] == (c, gamma)]:
                del self.paths[key]
                self.unused += 1
            if outcome != "retry":
                return outcome
            if attempt < tracker.SAMPLE_ATTEMPTS:
                self.unused += len(self.paths) + self.size * len(self.backs)
                self.paths.clear()
                self.backs.clear()
                self.round.clear()
        return "undetermined"

    def _attempt(self, c, gamma, rng) -> str:
        ends = self._landing(lambda j: self._take(c, gamma, j, rng))
        if isinstance(ends, str):
            return ends
        if (c, gamma) not in self.backs:
            self._track_backs(c, gamma, ends)
        return "passed" if self.backs.pop((c, gamma)) else "retry"

    def _landing(self, path):
        """One attempt's paths out, as one candidate at a time takes them:
        ``path(j)`` gives orbit point j's path, or None when unknown.  The
        attempt's outcome, ``retry``, the orbit's endpoints when it would
        pass, or None when a path is unknown."""
        base = self.base.solutions
        ends, landed = [], []
        for j in range(self.size):
            r = path(j)
            if r is None:
                return None
            if not r.success:
                return "retry"  # a failed path
            k = tracker.match(r.endpoint, base)
            if k == tracker.NEW and not ends:
                return "failed_stability"  # s(x_0) left the tracked component
            ends.append(r.endpoint)
            landed.append(k)
        if not tracker.FiberSample(self.base.params, ends).distinct():
            return "retry"  # an endpoint collision
        if tracker.NEW in landed or tracker.AMBIGUOUS in landed:
            return "retry"  # no reliable match
        first = landed[0]
        if any(b != sigma[first] for b, sigma in zip(landed[1:], self.deck_perms)):
            return "failed_commutation"
        return ends

    def _take(self, c, gamma, j, rng) -> tracker.PathResult:
        if (c, gamma, j) not in self.paths:
            if j == 0:
                self._new_round(c, gamma, rng)
            else:
                self._track_rest(c, gamma)
        return self.paths.pop((c, gamma, j))

    def _later(self, c):
        """The round's candidates after c, with their gammas, in order."""
        return [(k, g) for k, g in self.round.items() if k > c]

    def _room(self, c) -> int:
        """How many more rows may be tracked ahead for candidates after c:
        the allowance left if every row already tracked for them went
        unused."""
        ahead = sum(key[0] > c for key in self.paths) + self.size * sum(
            key[0] > c for key in self.backs
        )
        return self.allowance - self.unused - ahead

    def _new_round(self, c, gamma, rng) -> None:
        spare = self._room(c) // self.size
        later = [k for k in range(c + 1, len(self.scaled)) if not isinstance(self.scaled[k], str)]
        copy = deepcopy(rng)
        self.round = {k: tracker.draw_gamma(copy) for k in later[: max(spare, 0)]}
        self._track([(c, gamma, 0)] + [(k, g, 0) for k, g in self.round.items()])

    def _track_rest(self, c, gamma) -> None:
        rows = [(c, gamma, j) for j in range(1, self.size) if (c, gamma, j) not in self.paths]
        room = self._room(c)
        for k, g in self._later(c):
            if (k, g, 0) not in self.paths:
                break
            r = self.paths[(k, g, 0)]
            if not r.success:
                break  # k retries
            if tracker.match(r.endpoint, self.base.solutions) != tracker.NEW:
                rest = [(k, g, j) for j in range(1, self.size) if (k, g, j) not in self.paths]
                if len(rest) > room:
                    break
                room -= len(rest)
                rows += rest
        self._track(rows)

    def _track(self, rows) -> None:
        """One lockstep call for the paths out of the given (candidate,
        gamma, orbit index) rows."""
        starts = [self.scaled[k].solutions[j] for k, _, j in rows]
        p_from = [self.scaled[k].params for k, _, _ in rows]
        results = tracker.track_paths(
            self.system, np.array(starts), np.array(p_from), self.base.params,
            [g for _, g, _ in rows],
        )
        self.paths.update(zip(rows, results))

    def _track_backs(self, c, gamma, ends) -> None:
        """One ``tracker.retraces`` call for c's orbit and for the round's
        later candidates whose orbits would pass."""
        pairs = [(c, gamma, ends)]
        room = self._room(c)
        for k, g in self._later(c):
            peek = self._landing(lambda j: self.paths.get((k, g, j)))
            if peek is None or peek == "retry":
                break
            if isinstance(peek, str):
                continue  # k is decided
            if room < self.size:
                break
            pairs.append((k, g, peek))
            room -= self.size
        p0 = self.base.params
        back = tracker.retraces(
            self.system,
            [self.scaled[k] for k, _, _ in pairs],
            [tracker.FiberSample(p0, e) for _, _, e in pairs],
            [g for _, g, _ in pairs],
        )
        self.backs.update(((k, g), ok) for (k, g, _), ok in zip(pairs, back))


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
