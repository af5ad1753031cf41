"""Recover rational-function formulas for deck transformations.

Per coordinate, the linear constraint  sum a_k m_k(x,p) - x'_j sum b_k m_k(x,p) = 0
over paired orbit samples builds a Vandermonde-type matrix; its nullspace is
row-reduced and a sparse representative is picked (entries below 1e-5 are
truncated first).  One loop serves both paths: it partitions the monomials
up to the current degree into classes under a scaling lattice, keyed by
their multidegrees (flat tuples, ``scaling.multidegrees_bulk``), and solves
one small system per class in key order, with the denominator class forced
by the coordinate's own weights.  The graded path passes the detected
lattice; the dense path is the one-class case, the empty lattice, where
every monomial up to the degree lands in the same class.

Each orbit sample is a ``tracker.FiberSample`` of the base solution and its
|G|-1 deck images, tracked to one random parameter point.  Each of its |G|
points x gives the pairs (x, Psi_k(x)) for every deck map, since the deck
permutations send x to another point of the same sample.  A degree that
needs 2t rows fits on every point of ceil(2t/|G|) samples when that many
parameter points rule out the nullspace vectors that shared parameters
add, and on point 0 of 2t samples otherwise.  A fit that takes orbit mates
is certified on the held-out rows, and refit on point 0 of 2t samples when
the mates left it underdetermined (the rule, the check and their
derivation are in ``_interpolate``).  The samples are kept across degrees,
so a higher degree draws only the shortfall of its budget, in one
``monodromy.sample_orbit`` call, and a degree with a refit one more: each
call's samples go out in one lockstep tracking call and come back for
their round trip in one more (``tracker.sample_fiber``), and only failed
samples are redrawn.  At each degree the fit and held-out points [x | p]
are stacked once as an (R, n+m) array and their deck images as an
(R, |G|-1, n) array (``_Rows``), and every subproblem indexes those two;
the point-0 rows of a refit are stacked once more.

Candidates are accepted only when they reproduce held-out rows that never
entered the Vandermonde: point 0 of samples that give no fit row.
Accepted coefficients are snapped to nearby small rationals and the snap is
rolled back if re-validation fails.

Every value here comes from the one evaluation kernel of ``expr``: the
Vandermonde columns of a multidegree class are its monomial rows at the
sample points (``expr.monomial_values``), and a formula is evaluated once
over a whole array of points: the held-out samples in validation, the base
fiber in ``derive_deck_permutation``, and in ``verify_deck`` the held-out
fibers that ``held_out_fibers`` tracks once per run for every deck map, all
of their paths in one lockstep call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import monodromy as monodromy_mod
from . import numcore, permgrp, scaling
from .expr import (
    Exponent,
    Polynomial,
    RationalFunction,
    System,
    monomial_values,
    monomials_up_to_degree,
)
from .monodromy import MonodromyResult
from .permgrp import Perm
from .tracker import FiberSample
from . import tracker

TRUNCATE_TOL = 1e-5
VALIDATE_RTOL = 1e-6
# ||F||_inf a deck image may have on a held-out fiber in ``verify_deck``.
IMAGE_RESIDUAL_TOL = 1e-6
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
    orbit_samples: int = 0
    point_0_refits: int = 0
    rows_per_sample: list[int] = field(default_factory=list)


def get_representative(rref_n: np.ndarray, split: int):
    """Sparsest row of the reduced nullspace whose numerator and denominator
    parts are both nonzero after truncating entries below ``TRUNCATE_TOL``;
    ties go to the earlier row.  None when no row qualifies."""
    m = np.array(rref_n, dtype=complex, copy=True)
    m[np.abs(m) < TRUNCATE_TOL] = 0.0
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


def _validate(rf: RationalFunction, points: np.ndarray, images: np.ndarray) -> bool:
    """Whether ``rf`` reproduces ``images`` (S,) at ``points`` (S, n+m) within
    ``VALIDATE_RTOL``, with every denominator clear of 0."""
    num = rf.numerator.evaluate(points)
    den = rf.denominator.evaluate(points)
    if np.any(np.abs(den) < 1e-12 * (1 + np.abs(num))):
        return False
    err = np.abs(num / den - images) / (1.0 + np.abs(images))
    return bool(np.all(err <= VALIDATE_RTOL))


def _holdout_count(fit: int) -> int:
    return max(3, math.ceil(0.1 * fit))


class _Underdetermined(Exception):
    """A fit on orbit rows whose nullspace has a direction that misses a
    held-out row: the orbit mates gave fewer independent rows than their
    count (see ``_interpolate``)."""


def _try_candidate(
    system: System,
    points: np.ndarray,
    images: np.ndarray,
    vn: np.ndarray,
    vd: np.ndarray,
    numer_monos,
    denom_monos,
    j: int,
    k: int,
    size: int,
    holdout: int,
    certify: bool,
) -> RationalFunction | None:
    """The validated formula for coordinate j of deck k from the first
    ``size`` rows, snapped when the snap still validates; None when the
    nullspace has no representative or it fails the held-out rows, those
    from index ``holdout`` on.  Row r of ``points`` (R, n+m) is an orbit
    point [x | p] and row r of ``images`` (R, |G|-1, n) its images under
    the deck maps (``_orbit_rows``); ``vn`` and ``vd`` hold the numerator
    and denominator columns at every row.

    With ``certify``, every nullspace direction must also vanish at the
    held-out rows, within ``VALIDATE_RTOL`` of the row's norm, or the fit
    raises ``_Underdetermined``.  Such a direction is not an identity on the
    solution variety: a held-out row is point 0 of a sample that gives no
    fit row, a generic point of the variety."""
    imgs = images[:, k, j]
    a_mat = np.hstack([vn[:size], -imgs[:size, None] * vd[:size]])
    try:
        null = numcore.nullspace(a_mat)
    except (np.linalg.LinAlgError, ValueError):
        return None
    if null.shape[1] == 0:
        return None
    if certify:
        held = np.hstack([vn[holdout:], -imgs[holdout:, None] * vd[holdout:]])
        miss = np.abs(held @ null) / np.linalg.norm(held, axis=1, keepdims=True)
        if np.any(miss > VALIDATE_RTOL):
            raise _Underdetermined
    reduced = numcore.rref(null.T)
    rep = get_representative(reduced, len(numer_monos))
    if rep is None:
        return None
    rf = representative_to_rational(rep[0], rep[1], numer_monos, denom_monos, system.n + system.m)
    points, images = points[holdout:], images[holdout:, k, j]
    if not _validate(rf, points, images):
        return None
    snapped = snap_rational(rf)
    return snapped if _validate(snapped, points, images) else rf


def _image_positions(perms: Sequence[Perm], labels: Sequence[int]) -> list[list[int | None]]:
    """Row tau: the orbit position of sigma_k(labels[tau]) for every deck
    permutation sigma_k, None where that image lies outside the orbit.  Row 0
    is [1, ..., |G|-1] (``monodromy.deck_orbit``)."""
    position = {label: i for i, label in enumerate(labels)}
    return [[position.get(sigma[label]) for sigma in perms] for label in labels]


def _orbit_rows(
    samples: Sequence[FiberSample], image_positions: Sequence[Sequence[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """The points (R, n+m) and their deck images (R, |G|-1, n) of the first
    ``len(image_positions)`` orbit positions of every sample, stacked
    position-major: position 0 of every sample, then position 1 of every
    sample, and so on."""
    sols = np.array([s.solutions for s in samples])
    params = np.array([s.params for s in samples])
    points = [np.hstack([sols[:, tau], params]) for tau in range(len(image_positions))]
    images = [sols[:, row] for row in image_positions]
    return np.concatenate(points), np.concatenate(images)


class _Rows:
    """The fit rows of one degree, then its held-out rows, each a pair of
    points and images from ``_orbit_rows``, and the values of each
    multidegree class at every row, computed on first use."""

    def __init__(self, fit: tuple[np.ndarray, np.ndarray], held: tuple[np.ndarray, np.ndarray]):
        self.points = np.concatenate([fit[0], held[0]])
        self.images = np.concatenate([fit[1], held[1]])
        self.holdout = len(fit[0])
        self._values: dict[tuple[int, ...], np.ndarray] = {}

    def values(self, key: tuple[int, ...], monos: Sequence[Exponent]) -> np.ndarray:
        got = self._values.get(key)
        if got is None:
            got = self._values[key] = monomial_values(monos, self.points)
        return got

    def fit(self, system, mon_n, mon_d, key, deg_d, j, k, size, certify=False):
        """``_try_candidate`` for coordinate j of deck k on these rows."""
        return _try_candidate(
            system, self.points, self.images, self.values(key, mon_n),
            self.values(deg_d, mon_d), mon_n, mon_d, j, k, size, self.holdout, certify,
        )


def monomial_classes(
    monos: Sequence[Exponent], lattice: scaling.ScalingLattice
) -> dict[tuple[int, ...], list[Exponent]]:
    """Partition monomials by multidegree (``scaling.multidegrees_bulk``);
    with an empty lattice everything lands in the one class () and graded
    interpolation degenerates to dense."""
    degs = scaling.multidegrees_bulk(monos, lattice)
    out: dict[tuple[int, ...], list[Exponent]] = {}
    for exp, deg in zip(monos, degs):
        out.setdefault(deg, []).append(exp)
    return out


def _interpolate(
    system: System,
    mono: MonodromyResult,
    deck_perms: Sequence[Perm],
    lattice: scaling.ScalingLattice,
    degree_bound: int,
    parameter_dependent: bool,
    rng: np.random.Generator,
) -> tuple[list[DeckMap], InterpolationStats]:
    """Degree-by-degree interpolation of every deck permutation over the
    multidegree classes of the lattice.

    For each degree D up to the bound, the monomials up to degree D are
    split into classes (``monomial_classes``), taken in multidegree order;
    the numerator class determines the denominator class through the
    coordinate's own weights (``scaling.denominator_multidegree``), and
    classes whose denominator multidegree has no monomials are skipped.  A
    fit needs 2t rows, t the largest class size.  Coordinates that admit a
    validated representative are filled in, and the loop stops early once
    every coordinate is found.

    Every point x_tau of an orbit sample gives a row (x_tau, Psi_k(x_tau))
    for each deck k: Psi_k(x_tau) is the sample's point at the orbit
    position of sigma_k(l_tau), l_tau the base labels of
    ``monodromy.deck_orbit``.  The |G| points of a sample are not |G|
    independent samples, though, and their rows can have lower rank than
    their count; the nullspace then holds vectors that are no identity on
    the solution variety.  Two causes are known.

    Shared parameters.  Let P be the number of the degree's monomials with
    no unknown, the constant included: 1 without ``parameter_dependent``,
    C(m+D, D) with it.  A nonzero h(p) of degree <= D that vanishes at every
    fit parameter point puts (h*A, h*B) into the nullspace for every pair of
    polynomials A, B whose products with h are columns of the subproblem:
    (h, 0), and h times the true numerator and denominator when the degrees
    allow, since h*A - y*h*B is 0 on every row however generic the samples.
    The h of degree <= D span a space of dimension P, and S generic
    parameter points impose S independent conditions on it, so such an h
    exists exactly when S < P.  (With one row per sample, every row has its
    own parameter point.)  Hence the rule: a degree fits on all |G| points
    of S = ceil(2t/|G|) samples when S >= P and the deck images of every
    orbit point lie in the orbit (the permutations and the identity form a
    group), and on point 0 of 2t samples otherwise.

    Deck maps that act linearly.  A deck element that scales a class by one
    factor, such as a lattice scaling that fixes the parameters (a sign
    flip on a Z/2 torsion), makes the mate's row a multiple of the point-0
    row; a column that takes one value over the orbit acts like h(p).
    S >= P rules out neither, and the list need not be complete.  So the
    rank is checked, not assumed: a fit that takes orbit mates must have a
    nullspace whose every direction vanishes at the held-out rows
    (``_try_candidate`` with ``certify``), since a held-out row is a generic
    point of the variety.  A fit that fails the check is refit on point 0
    of 2t samples, the rows it would have with one row per sample; the
    degree's first refit draws the 2t - S samples past its held-out ones.

    Fit rows are stacked position-major (``_orbit_rows``), and a subproblem
    with ``size`` columns takes the first ``size`` rows.  So a subproblem
    with at most S columns sees only point-0 rows of distinct samples and
    needs no check, and one that needs orbit mates has first used every fit
    parameter point.  The held-out rows are point 0 of the next
    ``_holdout_count(2t)`` samples, which give no fit row: orbit mates of a
    fit row share its parameters and so check nothing new.  Samples are
    kept across degrees, and a degree draws only the shortfall of its fit
    and held-out samples.
    """
    perms = sorted(set(monodromy_mod.check_deck_perms(mono, deck_perms)))
    n, m = system.n, system.m
    decks = [DeckMap(p, [None] * n, 0) for p in perms]
    stats = InterpolationStats(parameter_dependent=parameter_dependent, graded=True)
    if not perms:
        return decks, stats
    _, labels, _ = monodromy_mod.deck_orbit(mono, perms)
    image_positions = _image_positions(perms, labels)
    closed = all(None not in row for row in image_positions)
    samples: list[FiberSample] = []

    def draw(budget: int) -> None:
        if budget > len(samples):
            samples.extend(
                monodromy_mod.sample_orbit(system, mono, perms, budget - len(samples), rng)
            )

    for degree in range(1, degree_bound + 1):
        monos = monomials_up_to_degree(n, m, degree, parameter_dependent)
        classes = monomial_classes(monos, lattice)
        stats.class_count = len(classes)
        t = max(len(v) for v in classes.values())
        stats.largest_class = max(stats.largest_class, t)
        fit_rows = 2 * t
        parameter_columns = sum(1 for exp in monos if not any(exp[:n]))
        fit_samples = math.ceil(fit_rows / len(labels))
        positions = len(labels)
        if not closed or fit_samples < parameter_columns:
            fit_samples, positions = fit_rows, 1
        stats.rows_per_sample.append(positions)
        budget = fit_samples + _holdout_count(fit_rows)
        draw(budget)
        held = _orbit_rows(samples[fit_samples:budget], image_positions[:1])
        orbit = _Rows(_orbit_rows(samples[:fit_samples], image_positions[:positions]), held)
        point_0: _Rows | None = None

        def point_0_rows() -> _Rows:
            """Point 0 of ``fit_rows`` samples: the orbit samples, then
            samples drawn past this degree's held-out ones."""
            extra = fit_rows - fit_samples
            draw(budget + extra)
            fit = samples[:fit_samples] + samples[budget : budget + extra]
            return _Rows(_orbit_rows(fit, image_positions[:1]), held)

        for key in sorted(classes):
            mon_n = classes[key]
            for j in range(n):
                if all(d.coords[j] is not None for d in decks):
                    continue
                deg_d = scaling.denominator_multidegree(key, lattice, j)
                mon_d = classes.get(deg_d)
                if mon_d is None:
                    continue
                size = len(mon_n) + len(mon_d)
                for k, deck in enumerate(decks):
                    if deck.coords[j] is not None:
                        continue
                    stats.subproblems += 1
                    stats.largest_vandermonde = max(stats.largest_vandermonde, size)
                    try:
                        got = orbit.fit(
                            system, mon_n, mon_d, key, deg_d, j, k, size,
                            certify=size > fit_samples,
                        )
                    except _Underdetermined:
                        stats.point_0_refits += 1
                        point_0 = point_0 or point_0_rows()
                        got = point_0.fit(system, mon_n, mon_d, key, deg_d, j, k, size)
                    if got is not None:
                        deck.coords[j] = got
                        deck.degree_bound_used = degree
        if all(d.complete for d in decks):
            break
    stats.orbit_samples = len(samples)
    return decks, stats


def interpolate_graded(
    system: System,
    mono: MonodromyResult,
    deck_perms: Sequence[Perm],
    lattice: scaling.ScalingLattice,
    degree_bound: int,
    parameter_dependent: bool,
    rng: np.random.Generator,
) -> tuple[list[DeckMap], InterpolationStats]:
    """Quasi-homogeneous interpolation over the multidegree classes of the
    lattice (see ``_interpolate``)."""
    return _interpolate(
        system, mono, deck_perms, lattice, degree_bound, parameter_dependent, rng
    )


def interpolate_dense(
    system: System,
    mono: MonodromyResult,
    deck_perms: Sequence[Perm],
    degree_bound: int,
    parameter_dependent: bool,
    rng: np.random.Generator,
) -> tuple[list[DeckMap], InterpolationStats]:
    """Dense interpolation: the graded loop over the empty lattice, where all
    monomials up to each degree form one class of t monomials fitted on 2t
    samples.  The stats report no grading."""
    nvars = system.n + system.m
    empty = scaling.ScalingLattice(nvars, (), ())
    decks, stats = _interpolate(
        system, mono, deck_perms, empty, degree_bound, parameter_dependent, rng
    )
    stats.graded, stats.class_count, stats.largest_class = False, 0, 0
    return decks, stats


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass
class DeckVerification:
    pairing_ok: bool
    fiber_preservation_ok: bool | None  # None when the deck map is incomplete
    quasi_homogeneity_ok: bool | None  # None when no lattice was supplied
    worst_pairing: float
    worst_fiber_residual: float
    worst_quasi_homogeneity: float
    trials: int
    trials_requested: int

    @property
    def passed(self) -> bool:
        return (
            self.trials >= self.trials_requested
            and self.pairing_ok
            and (self.fiber_preservation_ok is None or self.fiber_preservation_ok)
            and (self.quasi_homogeneity_ok is None or self.quasi_homogeneity_ok)
        )


def held_out_fibers(
    system: System, base: FiberSample, count: int, rng: np.random.Generator
) -> list[FiberSample]:
    """The fibers that track out of one ``tracker.sample_fiber`` call for
    ``count`` slots from ``base`` (every path of every fiber in one lockstep
    call); a slot that fails all its attempts is dropped."""
    samples = tracker.sample_fiber(system, base, count, rng)
    return [sample for sample in samples if sample is not None]


def _values(rf: RationalFunction, points: np.ndarray) -> np.ndarray:
    """``rf`` at every row of ``points``; all NaN when its denominator is
    exactly 0 at some row, so that a check on the values fails there
    instead of raising."""
    try:
        return rf.evaluate(points)
    except ZeroDivisionError:
        return np.full(len(points), complex(np.nan, np.nan))


def verify_deck(
    system: System,
    deck: DeckMap,
    fibers: Sequence[FiberSample],
    trial_count: int,
    rng: np.random.Generator,
    lattice: scaling.ScalingLattice | None = None,
) -> DeckVerification:
    """Check a deck map against held-out fibers (``held_out_fibers``).

    (a) each formula maps every solution to the sigma-paired coordinate;
    (b) for complete maps, the image point satisfies the structural
    equations within ``IMAGE_RESIDUAL_TOL``; (c) each formula is
    quasi-homogeneous for every free scaling row, at scalings drawn from
    ``rng``.  Failures are reported, not raised: a formula whose denominator
    is exactly 0 at a held-out or scaled point fails its check with a NaN
    worst value.  ``trial_count`` is the number of fibers requested, and a
    check on fewer fibers does not pass: zero fibers would otherwise pass
    vacuously.  For the same reason a ``trial_count`` below 1 is a
    ValueError.  The fibers are only read, so every deck map of a run is
    checked on the same ones.
    """
    if trial_count < 1:
        raise ValueError("trial_count must be >= 1")
    present = [j for j, c in enumerate(deck.coords) if c is not None]
    if not present:
        raise ValueError("deck map has no interpolated coordinates")
    sigma = deck.permutation
    n = system.n

    worst_pair = 0.0
    worst_res = 0.0
    if fibers:
        # Each formula over every held-out solution at once, against the
        # solution's sigma-partner, and every image's residual in one stacked
        # evaluation.  The worst values are numpy maxima, so a NaN carries
        # through and fails the check.
        points = np.concatenate([s.points() for s in fibers])
        paired = np.concatenate([s.solutions[list(sigma)] for s in fibers])[:, present]
        values = np.column_stack([_values(deck.coords[j], points) for j in present])
        worst_pair = float(np.max(np.abs(values - paired) / (1.0 + np.abs(paired))))
        if deck.complete:
            comp = tracker.compiled(system)
            structural = [i for i in range(n) if i not in system.patch_indices]
            f = comp.f_rows(comp.monomial_rows(values, points[:, n:]))[:, structural]
            worst_res = float(np.max(np.abs(f), initial=0.0))

    worst_quasi = 0.0
    quasi_ok: bool | None = None
    if lattice is not None and lattice.free and fibers:
        points = fibers[0].points()[:3]
        base = [_values(deck.coords[j], points) for j in present]
        for row in lattice.free:
            lam = complex(np.exp(1j * rng.uniform(0, 2 * np.pi))) * rng.uniform(0.5, 1.5)
            scaled = scaling.apply_scaling(row, lam, points)
            for j, base_vals in zip(present, base):
                expected = lam ** row[j] * base_vals
                err = np.abs(_values(deck.coords[j], scaled) - expected) / (1.0 + np.abs(expected))
                worst_quasi = float(np.max(err, initial=worst_quasi))
        quasi_ok = worst_quasi <= VALIDATE_RTOL

    return DeckVerification(
        pairing_ok=worst_pair <= VALIDATE_RTOL,
        fiber_preservation_ok=(worst_res <= IMAGE_RESIDUAL_TOL) if deck.complete else None,
        quasi_homogeneity_ok=quasi_ok,
        worst_pairing=worst_pair,
        worst_fiber_residual=worst_res,
        worst_quasi_homogeneity=worst_quasi,
        trials=len(fibers),
        trials_requested=trial_count,
    )


def derive_deck_permutation(
    system: System, formulas: dict[str, RationalFunction], base: FiberSample
) -> tuple[Perm, list[RationalFunction | None]]:
    """Find the fiber permutation realized by user-supplied formulas.

    Evaluates the available coordinate formulas on each base solution and
    matches the partial image against the fiber (``tracker.match``); a
    denominator that vanishes on the fiber, or a new or ambiguous image, is
    an error.
    """
    coords: list[RationalFunction | None] = [None] * system.n
    for name, rf in formulas.items():
        coords[system.unknowns.index(name)] = rf
    present = [j for j, c in enumerate(coords) if c is not None]
    if not present:
        raise ValueError("no formulas supplied")
    images = []
    partial_fiber = base.solutions[:, present]
    try:
        predicted_rows = np.column_stack([coords[j].evaluate(base.points()) for j in present])
    except ZeroDivisionError:
        raise ValueError("a formula's denominator vanishes on the base fiber") from None
    for i, predicted in enumerate(predicted_rows):
        j = tracker.match(predicted, partial_fiber)
        if j == tracker.NEW:
            raise ValueError(f"formula image of solution {i} does not lie in the fiber")
        if j == tracker.AMBIGUOUS:
            raise ValueError(
                "formula image is ambiguous on the fiber; supply more coordinates"
            )
        images.append(j)
    if not permgrp.is_permutation(images):
        raise ValueError("formulas do not induce a permutation of the fiber")
    return tuple(images), coords
