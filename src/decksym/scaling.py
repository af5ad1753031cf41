"""Scaling symmetries from exact integer linear algebra.

The supports of the structural equations give a matrix of shifted exponent
vectors; its Smith Normal Form gives the variables' weight lattice
(``ScalingLattice``): integer weight rows, each with one modulus, 0 for a
free row (a continuous scaling, one C* per row) and the elementary divisor
d > 1 for a torsion row (candidate root-of-unity scalings mod d).  A
monomial's multidegree is the flat tuple of its weights under every row,
reduced mod d on torsion rows; interpolation sorts and matches its classes
by that tuple.  Discrete candidates are then filtered by a probability-one
homotopy test: a candidate survives only if it maps the solution variety to
itself and commutes with the deck permutations.  The test tracks only the
scaled deck orbit of one base solution, straight back to the base
parameters, and matches it against the labelled base fiber: |G| paths per
candidate rather than the fiber, and no fiber tracked anywhere else.  Each
candidate's scaled orbit is prepared first, without the rng.  An attempt that
fails at s(x_0) uses one path, one that stays there its orbit and, if the
orbit lands on distinct matched points, the orbit's round trip, which must
come back before the candidate passes or fails to commute.  A fresh gamma is
an independent try at the same target (the gamma trick), so ``_decide`` runs
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
class SnfDecomposition:
    """U @ A @ V = diag(d_1, ..., d_k, 0, ...) with U, V unimodular and d_i | d_{i+1}.

    An integer matrix here is the tuple of its row tuples, of Python ints."""

    U: tuple[tuple[int, ...], ...]
    diag: tuple[int, ...]
    V: tuple[tuple[int, ...], ...]


class _OverflowRisk(Exception):
    pass


def smith_normal_form(a: Sequence[Sequence[int]]) -> SnfDecomposition:
    """Exact Smith Normal Form of the integer rows ``a`` with
    minimum-magnitude pivoting."""
    try:
        u, d, v = _snf_inplace(np.array(a, dtype=np.int64), guard=True)
    except _OverflowRisk:
        u, d, v = _snf_inplace(np.array(a, dtype=object), guard=False)
    return SnfDecomposition(
        tuple(map(tuple, u.tolist())), tuple(int(x) for x in d), tuple(map(tuple, v.tolist()))
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
class ScalingLattice:
    """Weight vectors of the detected scaling symmetries: ``rows``, each with
    its modulus in ``moduli``.

    A free row (modulus 0) is an exact left-null vector of the
    exponent-difference matrix and generates one C* factor of the continuous
    group.  A row of modulus d > 1 is a left-null vector mod d, with entries
    in [0, d), and generates root-of-unity candidates.  The free rows come
    first, then the torsion rows by ascending modulus, so a multidegree (the
    weight under every row, in row order) sorts free part first.
    """

    nvars: int
    rows: tuple[tuple[int, ...], ...]
    moduli: tuple[int, ...]

    def __post_init__(self):
        if len(self.moduli) != len(self.rows) or list(self.moduli) != sorted(self.moduli):
            raise ValueError("one modulus per row, free rows first, then ascending moduli")

    @property
    def free(self) -> tuple[tuple[int, ...], ...]:
        """The free rows."""
        return tuple(row for row, d in zip(self.rows, self.moduli) if d == 0)

    @property
    def torsion(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        """The torsion rows of each modulus, by ascending modulus."""
        pairs = itertools.groupby(zip(self.rows, self.moduli), key=lambda pair: pair[1])
        return {d: tuple(row for row, _ in rows) for d, rows in pairs if d}


def exponent_difference_matrix(system: System) -> tuple[tuple[int, ...], ...]:
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
    return tuple(tuple(col[i] for col in cols) for i in range(nvars))


def extract_scaling_lattice(snf: SnfDecomposition, n_plus_m: int) -> ScalingLattice:
    """Split the rows of U by their diagonal divisor d (0 past the diagonal):
    d = 1 is dropped, d = 0 gives a free row and d > 1 a torsion row reduced
    mod d.  Free rows come first, then torsion rows by ascending d, each in
    U's row order."""
    if len(snf.U) != n_plus_m:
        raise ValueError("SNF does not match the variable count")
    split = sorted(
        (
            (d, tuple(x % d for x in row) if d else row)
            for row, d in itertools.zip_longest(snf.U, snf.diag, fillvalue=0)
            if d != 1
        ),
        key=lambda kept: kept[0],
    )
    return ScalingLattice(n_plus_m, tuple(row for _, row in split), tuple(d for d, _ in split))


def detect_scalings(system: System) -> ScalingLattice:
    """Exponent matrix -> SNF -> lattice, in one step."""
    a = exponent_difference_matrix(system)
    return extract_scaling_lattice(smith_normal_form(a), len(a))


# ---------------------------------------------------------------------------
# Multidegrees
# ---------------------------------------------------------------------------


def denominator_multidegree(
    numer: tuple[int, ...], lattice: ScalingLattice, j: int
) -> tuple[int, ...]:
    """Multidegree forced on the denominator class for unknown j (0-based):
    the numerator's weights minus column j of the lattice rows, reduced mod d
    on torsion rows."""
    if not 0 <= j < lattice.nvars:
        raise ValueError("coordinate index out of range")
    return tuple(
        (w - row[j]) % d if d else w - row[j]
        for w, row, d in zip(numer, lattice.rows, lattice.moduli)
    )


def multidegrees_bulk(
    exponents: Sequence[Exponent], lattice: ScalingLattice
) -> list[tuple[int, ...]]:
    """The multidegree of every exponent vector: one integer product with the
    lattice rows and one reduction (int64-safe sizes only)."""
    if not exponents:
        return []
    rows = np.array(lattice.rows, dtype=np.int64).reshape(len(lattice.rows), lattice.nvars)
    moduli = np.array(lattice.moduli, dtype=np.int64)
    weights = np.asarray(exponents, dtype=np.int64) @ rows.T
    reduced = np.where(moduli > 0, weights % np.maximum(moduli, 1), weights)
    return list(map(tuple, reduced.tolist()))


# ---------------------------------------------------------------------------
# Scaling actions on points
# ---------------------------------------------------------------------------


def scale_factors(row: Sequence[int], lam: complex) -> np.ndarray:
    return np.array([lam ** int(u) for u in row], dtype=complex)


def apply_scaling(row: Sequence[int], lam: complex, point: np.ndarray) -> np.ndarray:
    return np.asarray(point, dtype=complex) * scale_factors(row, lam)


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
    # Free rows acting on the unknowns only (parameter weights all zero).
    rows = [row for row in lattice.free if not any(row[system.n :])]
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
    lattice: ScalingLattice  # same free rows, torsion rows replaced by the commuting ones
    candidates: list[CandidateOutcome]
    enumeration_truncated: bool = False
    composite_modulus_note: bool = False


def _enumerate_candidates(d: int, rows: Sequence[tuple[int, ...]]):
    """All Z_d-combinations of the torsion rows of modulus d (nonzero,
    deduplicated); above ``_ENUMERATION_CAP``, only single rows and pairwise
    sums."""
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
            push([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(rows[0]))])
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
    """Filter the torsion rows down to scalings that preserve the tracked
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
    their paths in at most three lockstep calls.  The filtered lattice keeps
    the free rows and, per modulus d, rows of the passing candidates: a
    maximal independent subset mod a prime d, and for a composite d only
    passing original rows (``composite_modulus_note``).
    """
    base = mono.base
    nontrivial, _, orbit = monodromy.deck_orbit(mono, deck_perms)

    tested: list[tuple[int, tuple[int, ...], tracker.FiberSample | str]] = []
    truncated_any = False
    torsion = lattice.torsion
    composite = any(not _is_prime(d) for d in torsion)
    for d, rows in torsion.items():
        lam = -1.0 + 0.0j if d == 2 else cmath.exp(2j * cmath.pi / d)
        candidates, truncated = _enumerate_candidates(d, rows)
        truncated_any = truncated_any or truncated
        tested += [(d, u, _scaled_orbit(system, lattice, orbit, u, lam)) for u in candidates]

    decided = _decide(system, base, nontrivial, [scaled for _, _, scaled in tested], rng)
    outcomes: list[CandidateOutcome] = []
    passing: dict[int, list[tuple[int, ...]]] = {}
    for (d, u, _), outcome in zip(tested, decided):
        outcomes.append(CandidateOutcome(d, u, outcome))
        if outcome == "passed":
            passing.setdefault(d, []).append(u)

    free = lattice.free
    rows, moduli = list(free), [0] * len(free)
    for d, block in torsion.items():
        vecs = passing.get(d, [])
        kept = _independent_mod_p(vecs, d) if _is_prime(d) else [v for v in vecs if v in block]
        rows += kept
        moduli += [d] * len(kept)
    filtered = ScalingLattice(lattice.nvars, tuple(rows), tuple(moduli))
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
