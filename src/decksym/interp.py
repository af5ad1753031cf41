"""Recover rational-function formulas for deck transformations.

Per coordinate, the linear constraint  sum a_k m_k(x,p) - x'_j sum b_k m_k(x,p) = 0
over paired orbit samples builds a Vandermonde-type matrix; its nullspace is
row-reduced and a sparse representative is picked (entries below 1e-5 are
truncated first).  One loop serves both paths: it partitions the monomials
up to the current degree into multidegree classes under a scaling lattice and
solves one small system per class, with the denominator class forced by the
coordinate's own weights.  The graded path passes the detected lattice; the
dense path is the one-class case, the empty lattice, where every monomial up
to the degree lands in the same class.

Candidates are accepted only when they reproduce held-out samples that never
entered the Vandermonde; accepted coefficients are snapped to nearby small
rationals and the snap is rolled back if re-validation fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import monodromy as monodromy_mod
from . import numcore, permgrp, scaling
from .expr import Exponent, Polynomial, RationalFunction, System, monomials_up_to_degree
from .monodromy import MonodromyConfig, MonodromyResult
from .permgrp import Perm
from .tracker import FiberSample
from . import tracker

TRUNCATE_TOL = 1e-5
VALIDATE_RTOL = 1e-6
SNAP_TOL = 1e-8
SNAP_BOUND = 20


@dataclass
class DeckMap:
    """One deck transformation: fiber permutation plus per-coordinate formulas.

    ``coords[j]`` is None while coordinate j has no representative within the
    degree bound (explicitly legal: those coordinates stay missing).
    """

    permutation: Perm
    coords: list[RationalFunction | None]
    degree_bound_used: int
    worst_validation: float = 0.0

    @property
    def complete(self) -> bool:
        return all(c is not None for c in self.coords)

    def missing(self) -> list[int]:
        return [j for j, c in enumerate(self.coords) if c is None]


@dataclass
class InterpolationStats:
    largest_vandermonde: int = 0
    subproblems: int = 0
    parameter_dependent: bool = False
    graded: bool = False
    class_count: int = 0
    largest_class: int = 0


def eval_monomials(points: np.ndarray, exps: Sequence[Exponent]) -> np.ndarray:
    """Evaluate monomials at points: out[s, k] = prod_v points[s, v] ** exps[k, v]."""
    points = np.asarray(points, dtype=complex)
    e = np.asarray(exps, dtype=np.int64)
    s, nv = points.shape
    maxd = int(e.max(initial=0))
    powers = np.ones((s, nv, maxd + 1), dtype=complex)
    for d in range(1, maxd + 1):
        powers[:, :, d] = powers[:, :, d - 1] * points
    out = np.ones((s, e.shape[0]), dtype=complex)
    for v in range(nv):
        out *= powers[:, v, :][:, e[:, v]]
    return out


def build_vandermonde(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    j: int,
    numer_monomials: Sequence[Exponent],
    denom_monomials: Sequence[Exponent],
) -> np.ndarray:
    """Constraint matrix with rows [monos_n(pt) | -x'_j * monos_d(pt)].

    The interpolation algorithms build it square (one row per column) or
    overdetermined; fewer rows still yield a well-formed matrix.
    """
    if not pairs:
        raise ValueError("need at least one sample pair")
    pts = np.asarray([a for a, _ in pairs], dtype=complex)
    imgs = np.asarray([b[j] for _, b in pairs], dtype=complex)
    vn = eval_monomials(pts, numer_monomials)
    vd = eval_monomials(pts, denom_monomials)
    return np.hstack([vn, -imgs[:, None] * vd])


def get_representative(rref_n: np.ndarray, split: int, truncate_tol: float = TRUNCATE_TOL):
    """Sparsest row of the reduced nullspace whose numerator and denominator
    parts are both nonzero after truncating entries below ``truncate_tol``;
    ties go to the earlier row.  None when no row qualifies."""
    m = np.array(rref_n, dtype=complex, copy=True)
    m[np.abs(m) < truncate_tol] = 0.0
    best = None
    best_nz = None
    for row in m:
        a, b = row[:split], row[split:]
        if not (np.any(a) and np.any(b)):
            continue
        nz = int(np.count_nonzero(row))
        if best_nz is None or nz < best_nz:
            best, best_nz = (a.copy(), b.copy()), nz
    return best


def constant_denominator_representative(
    rref_n: np.ndarray,
    split: int,
    const_index: int = 0,
    truncate_tol: float = TRUNCATE_TOL,
):
    """Search the row span for a polynomial representative: denominator fixed
    to the constant monomial, numerator greedily sparsified.

    Solves (r^T N)_denominator = e_const; the affine solution family is then
    scanned by repeatedly choosing the free parameter value that annihilates
    the largest remaining numerator coefficient, keeping a change only when
    it strictly reduces the nonzero count.  None when the linear system has
    no solution.
    """
    m = np.asarray(rref_n, dtype=complex)
    rows = m.shape[0]
    bt = m[:, split:].T  # (t_d, rows)
    target = np.zeros(bt.shape[0], dtype=complex)
    target[const_index] = 1.0
    # rcond matters: RREF leaves ~1e-9 noise in "zero" entries, and fitting
    # it would pull in large spurious components along the solution family.
    r0, *_ = np.linalg.lstsq(bt, target, rcond=numcore.DEFAULT_RANK_TOL)
    if np.linalg.norm(bt @ r0 - target) > 1e-8 * max(1.0, np.linalg.norm(target)):
        return None
    directions = numcore.nullspace(bt, numcore.DEFAULT_RANK_TOL)
    at = m[:, :split].T  # (t_n, rows)
    a = at @ r0
    dirs_a = [at @ directions[:, k] for k in range(directions.shape[1])]

    def nonzeros(vec):
        return int(np.count_nonzero(np.abs(vec) > truncate_tol))

    changed = True
    while changed and dirs_a:
        changed = False
        for da in dirs_a:
            active = np.abs(da) > 1e-12
            if not np.any(active):
                continue
            idx = np.where(active)[0]
            largest = idx[int(np.argmax(np.abs(a[idx])))]
            if abs(a[largest]) <= truncate_tol:
                continue
            step = -a[largest] / da[largest]
            cand = a + step * da
            if nonzeros(cand) < nonzeros(a):
                a = cand
                changed = True
    a = np.where(np.abs(a) > truncate_tol, a, 0.0)
    if not np.any(a):
        return None
    b = np.zeros(m.shape[1] - split, dtype=complex)
    b[const_index] = 1.0
    return a, b


def representative_to_rational(
    a: np.ndarray,
    b: np.ndarray,
    numer_monomials: Sequence[Exponent],
    denom_monomials: Sequence[Exponent],
    nvars: int,
) -> RationalFunction:
    num = Polynomial(nvars, [(e, complex(c)) for e, c in zip(numer_monomials, a) if c != 0])
    den = Polynomial(nvars, [(e, complex(c)) for e, c in zip(denom_monomials, b) if c != 0])
    return RationalFunction(num, den)


def _snap_coeff(c: complex):
    parts = []
    for x in (c.real, c.imag):
        fr = Fraction(x).limit_denominator(SNAP_BOUND)
        if abs(fr.numerator) > SNAP_BOUND or abs(x - float(fr)) > SNAP_TOL * max(1.0, abs(x)):
            return None
        parts.append(fr)
    return (parts[0], parts[1])


def snap_rational(rf: RationalFunction) -> RationalFunction:
    """Snap coefficients within 1e-8 of a ratio p/q, |p|,|q| <= 20, to that
    exact value; coefficients that do not snap are kept as floats."""

    def snap_poly(p: Polynomial) -> Polynomial:
        terms = []
        for e, c in p.terms:
            z = c if isinstance(c, tuple) else _snap_coeff(complex(c)) or c
            terms.append((e, z))
        return Polynomial(p.nvars, terms)

    return RationalFunction(snap_poly(rf.numerator), snap_poly(rf.denominator))


def _validate(
    rf: RationalFunction,
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    j: int,
) -> tuple[bool, float]:
    worst = 0.0
    for pt, img in pairs:
        den = rf.denominator.evaluate(pt)
        if abs(den) < 1e-12 * (1 + abs(rf.numerator.evaluate(pt))):
            return False, np.inf
        err = abs(rf.numerator.evaluate(pt) / den - img[j]) / (1.0 + abs(img[j]))
        worst = max(worst, err)
        if not np.isfinite(err) or err > VALIDATE_RTOL:
            return False, worst
    return True, worst


class SampleCache:
    """Append-only cache of deck-orbit samples, shared across degrees.

    Raising the degree bound only draws the shortfall; previously tracked
    samples are reused (tracking dominates runtime).
    """

    def __init__(
        self,
        system: System,
        mono: MonodromyResult,
        deck_perms: Sequence[Perm],
        cfg: MonodromyConfig,
        rng: np.random.Generator,
    ):
        self.system = system
        self.mono = mono
        self.deck_perms = list(deck_perms)
        self.cfg = cfg
        self.rng = rng
        self.samples: list[FiberSample] = []

    def ensure(self, count: int) -> list[FiberSample]:
        if count > len(self.samples):
            self.samples.extend(
                monodromy_mod.sample_orbit(
                    self.system,
                    self.mono,
                    self.deck_perms,
                    count - len(self.samples),
                    self.cfg,
                    self.rng,
                )
            )
        return self.samples[:count]


def _holdout_count(fit: int) -> int:
    return max(3, math.ceil(0.1 * fit))


@dataclass
class _SampleArrays:
    points: np.ndarray  # (s, n+m) base points
    images: list[np.ndarray]  # per deck perm: (s, n) paired solutions

    @staticmethod
    def build(samples: Sequence[FiberSample], n_perms: int) -> "_SampleArrays":
        pts = np.asarray(
            [np.concatenate([s.solutions[0], s.params]) for s in samples], dtype=complex
        )
        imgs = [
            np.asarray([s.solutions[1 + k] for s in samples], dtype=complex)
            for k in range(n_perms)
        ]
        return _SampleArrays(pts, imgs)

    def pairs(self, k: int, count: int, start: int = 0):
        sl = slice(start, start + count)
        pts = self.points[sl]
        imgs = self.images[k][sl]
        return [(pts[i], imgs[i]) for i in range(pts.shape[0])]


def _try_candidate(
    system: System,
    arrays: _SampleArrays,
    vn: np.ndarray,
    vd: np.ndarray,
    numer_monos,
    denom_monos,
    j: int,
    k: int,
    size: int,
    holdout: Sequence[tuple[np.ndarray, np.ndarray]],
    rank_tol: float,
    truncate_tol: float,
):
    imgs = arrays.images[k][:size, j]
    a_mat = np.hstack([vn[:size], -imgs[:, None] * vd[:size]])
    try:
        null = numcore.nullspace(a_mat, rank_tol)
    except (np.linalg.LinAlgError, ValueError):
        return None
    if null.shape[1] == 0:
        return None
    reduced = numcore.rref(null.T)
    rep = get_representative(reduced, len(numer_monos), truncate_tol)
    if rep is None:
        return None
    rf = representative_to_rational(rep[0], rep[1], numer_monos, denom_monos, system.n + system.m)
    ok, worst = _validate(rf, holdout, j)
    if not ok:
        return None
    snapped = snap_rational(rf)
    ok2, worst2 = _validate(snapped, holdout, j)
    if ok2:
        return snapped, worst2
    return rf, worst


def monomial_classes(
    monos: Sequence[Exponent], lattice: scaling.ScalingLattice
) -> dict[scaling.Multidegree, list[Exponent]]:
    """Partition monomials by multidegree; with an empty lattice everything
    lands in one class and graded interpolation degenerates to dense."""
    degs = scaling.multidegrees_bulk(monos, lattice)
    out: dict[scaling.Multidegree, list[Exponent]] = {}
    for exp, deg in zip(monos, degs):
        out.setdefault(deg, []).append(exp)
    return out


def _class_sort_key(md: scaling.Multidegree):
    return (md.free, md.torsion)


def _interpolate(
    system: System,
    mono: MonodromyResult,
    deck_perms: Sequence[Perm],
    lattice: scaling.ScalingLattice,
    degree_bound: int,
    parameter_dependent: bool,
    cfg: MonodromyConfig,
    rng: np.random.Generator,
    rank_tol: float,
    truncate_tol: float,
) -> tuple[list[DeckMap], InterpolationStats]:
    """Degree-by-degree interpolation of every deck permutation over the
    multidegree classes of the lattice.

    For each degree D up to the bound, the monomials up to degree D are
    split into classes; the numerator class determines the denominator class
    through the coordinate's own weights, and classes whose denominator
    multidegree has no monomials are skipped.  The sample budget per degree
    is twice the largest class size plus a held-out tail.  Coordinates that
    admit a validated representative are filled in, and the loop stops
    early once every coordinate is found.
    """
    perms = sorted(set(monodromy_mod.check_deck_perms(mono, deck_perms)))
    n, m = system.n, system.m
    decks = [DeckMap(p, [None] * n, 0) for p in perms]
    stats = InterpolationStats(parameter_dependent=parameter_dependent, graded=True)
    if not perms:
        return decks, stats
    cache = SampleCache(system, mono, perms, cfg, rng)

    for degree in range(1, degree_bound + 1):
        monos = monomials_up_to_degree(n, m, degree, parameter_dependent)
        classes = monomial_classes(monos, lattice)
        stats.class_count = len(classes)
        t = max(len(v) for v in classes.values())
        stats.largest_class = max(stats.largest_class, t)
        fit_max = 2 * t
        samples = cache.ensure(fit_max + _holdout_count(fit_max))
        arrays = _SampleArrays.build(samples, len(perms))
        holdouts = [
            arrays.pairs(k, len(samples) - fit_max, start=fit_max)
            for k in range(len(perms))
        ]
        values: dict[scaling.Multidegree, np.ndarray] = {}

        def class_values(key):
            got = values.get(key)
            if got is None:
                got = eval_monomials(arrays.points, classes[key])
                values[key] = got
            return got

        for key in sorted(classes.keys(), key=_class_sort_key):
            mon_n = classes[key]
            for j in range(n):
                if all(d.coords[j] is not None for d in decks):
                    continue
                deg_d = scaling.denominator_multidegree(key, lattice, j)
                mon_d = classes.get(deg_d)
                if mon_d is None:
                    continue
                vn = class_values(key)
                vd = class_values(deg_d)
                for k, deck in enumerate(decks):
                    if deck.coords[j] is not None:
                        continue
                    stats.subproblems += 1
                    stats.largest_vandermonde = max(
                        stats.largest_vandermonde, len(mon_n) + len(mon_d)
                    )
                    got = _try_candidate(
                        system, arrays, vn, vd, mon_n, mon_d, j, k,
                        len(mon_n) + len(mon_d), holdouts[k],
                        rank_tol, truncate_tol,
                    )
                    if got is not None:
                        deck.coords[j] = got[0]
                        deck.degree_bound_used = degree
                        deck.worst_validation = max(deck.worst_validation, got[1])
        if all(d.complete for d in decks):
            break
    return decks, stats


def interpolate_graded(
    system: System,
    mono: MonodromyResult,
    deck_perms: Sequence[Perm],
    lattice: scaling.ScalingLattice,
    degree_bound: int,
    parameter_dependent: bool,
    cfg: MonodromyConfig,
    rng: np.random.Generator,
    rank_tol: float = numcore.DEFAULT_RANK_TOL,
    truncate_tol: float = TRUNCATE_TOL,
) -> tuple[list[DeckMap], InterpolationStats]:
    """Quasi-homogeneous interpolation over the multidegree classes of the
    lattice (see ``_interpolate``)."""
    return _interpolate(
        system, mono, deck_perms, lattice, degree_bound, parameter_dependent,
        cfg, rng, rank_tol, truncate_tol,
    )


def interpolate_dense(
    system: System,
    mono: MonodromyResult,
    deck_perms: Sequence[Perm],
    degree_bound: int,
    parameter_dependent: bool,
    cfg: MonodromyConfig,
    rng: np.random.Generator,
    rank_tol: float = numcore.DEFAULT_RANK_TOL,
    truncate_tol: float = TRUNCATE_TOL,
) -> tuple[list[DeckMap], InterpolationStats]:
    """Dense interpolation: the graded loop over the empty lattice, where all
    monomials up to each degree form one class of t monomials fitted on 2t
    samples.  The stats report no grading."""
    nvars = system.n + system.m
    empty = scaling.ScalingLattice(nvars, scaling.IntMatrix(0, nvars, ()), ())
    decks, stats = _interpolate(
        system, mono, deck_perms, empty, degree_bound, parameter_dependent,
        cfg, rng, rank_tol, truncate_tol,
    )
    stats.graded, stats.class_count, stats.largest_class = False, 0, 0
    return decks, stats


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass
class DeckVerification:
    pairing_ok: bool
    fiber_ok: bool | None  # None when the deck map is incomplete
    quasi_ok: bool | None  # None when no lattice was supplied
    worst_pairing: float
    worst_fiber_residual: float
    worst_quasi: float
    trials: int
    trials_requested: int

    @property
    def passed(self) -> bool:
        return (
            self.trials >= self.trials_requested
            and self.pairing_ok
            and (self.fiber_ok is None or self.fiber_ok)
            and (self.quasi_ok is None or self.quasi_ok)
        )


def verify_deck(
    system: System,
    deck: DeckMap,
    mono: MonodromyResult,
    trial_count: int,
    cfg: MonodromyConfig,
    rng: np.random.Generator,
    lattice: scaling.ScalingLattice | None = None,
) -> DeckVerification:
    """Check a deck map against freshly tracked fibers.

    (a) each formula maps every solution to the sigma-paired coordinate;
    (b) for complete maps, the image point satisfies the structural
    equations; (c) each formula is quasi-homogeneous for every free scaling
    row.  Failures are reported, not raised.  A fiber that
    ``tracker.sample_fiber`` cannot track in three attempts is dropped, and a
    check with fewer tracked fibers than ``trial_count`` does not pass: zero
    fibers would otherwise pass vacuously.
    """
    present = [j for j, c in enumerate(deck.coords) if c is not None]
    if not present:
        raise ValueError("deck map has no interpolated coordinates")
    sigma = deck.permutation
    n = system.n
    comp = tracker.compiled(system)

    worst_pair = 0.0
    worst_res = 0.0
    fibers: list[FiberSample] = []
    for _ in range(trial_count):
        got = tracker.sample_fiber(system, mono.base, cfg.tracker, rng)
        if got is not None:
            fibers.append(got[0])

    for sample in fibers:
        for i, sol in enumerate(sample.solutions):
            pt = np.concatenate([sol, sample.params])
            paired = sample.solutions[sigma[i]]
            for j in present:
                err = abs(deck.coords[j].evaluate(pt) - paired[j]) / (1.0 + abs(paired[j]))
                worst_pair = max(worst_pair, err)
            if deck.complete:
                image = np.array([deck.coords[j].evaluate(pt) for j in range(n)])
                f = comp.f_at(image, sample.params)
                skip = set(system.patch_indices)
                res = max(
                    (abs(f[idx]) for idx in range(n) if idx not in skip), default=0.0
                )
                worst_res = max(worst_res, float(res))

    worst_quasi = 0.0
    quasi_ok: bool | None = None
    if lattice is not None and lattice.free.rows and fibers:
        quasi_ok = True
        sample = fibers[0]
        for row in lattice.free.data:
            lam = complex(np.exp(1j * rng.uniform(0, 2 * np.pi))) * rng.uniform(0.5, 1.5)
            for sol in sample.solutions[:3]:
                pt = np.concatenate([sol, sample.params])
                scaled = scaling.apply_scaling(row, lam, pt)
                for j in present:
                    base_val = deck.coords[j].evaluate(pt)
                    scaled_val = deck.coords[j].evaluate(scaled)
                    expected = lam ** row[j] * base_val
                    err = abs(scaled_val - expected) / (1.0 + abs(expected))
                    worst_quasi = max(worst_quasi, err)
        quasi_ok = worst_quasi <= VALIDATE_RTOL

    return DeckVerification(
        pairing_ok=worst_pair <= VALIDATE_RTOL,
        fiber_ok=(worst_res <= max(10 * cfg.tracker.path_tol, 1e-6)) if deck.complete else None,
        quasi_ok=quasi_ok,
        worst_pairing=worst_pair,
        worst_fiber_residual=worst_res,
        worst_quasi=worst_quasi,
        trials=len(fibers),
        trials_requested=trial_count,
    )


def derive_deck_permutation(
    system: System, formulas: dict[str, RationalFunction], base: FiberSample
) -> tuple[Perm, list[RationalFunction | None]]:
    """Find the fiber permutation realized by user-supplied formulas.

    Evaluates the available coordinate formulas on each base solution and
    matches the partial image against the fiber; ambiguous or unmatched
    images are an error.
    """
    coords: list[RationalFunction | None] = [None] * system.n
    for name, rf in formulas.items():
        coords[system.unknowns.index(name)] = rf
    present = [j for j, c in enumerate(coords) if c is not None]
    if not present:
        raise ValueError("no formulas supplied")
    images = []
    partial_fiber = np.asarray(base.solutions)[:, present]
    for i, sol in enumerate(base.solutions):
        pt = np.concatenate([sol, base.params])
        predicted = np.array([coords[j].evaluate(pt) for j in present])
        best, d1, d2 = tracker.nearest(predicted, partial_fiber)
        if d1 > 1e-6 * (1 + float(np.abs(predicted).max())):
            raise ValueError(f"formula image of solution {i} does not lie in the fiber")
        if d2 < 10 * d1:
            raise ValueError(
                "formula image is ambiguous on the fiber; supply more coordinates"
            )
        images.append(best)
    if not permgrp.is_permutation(images):
        raise ValueError("formulas do not induce a permutation of the fiber")
    return tuple(images), coords
