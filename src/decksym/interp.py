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

Each orbit sample is a ``tracker.FiberSample`` of the base solution and its
|G|-1 deck images.  The samples are kept across degrees, so a higher degree
draws only the shortfall of its budget, in one ``monodromy.sample_orbit``
call: the whole shortfall goes out in one lockstep tracking call and comes
back for its round trip in one more (``tracker.sample_fiber``), and only
failed samples are redrawn.  At each degree the base points [x | p] are
stacked once as an (S, n+m) array and the images as an (S, |G|-1, n) array,
and every subproblem indexes those two.

Candidates are accepted only when they reproduce held-out samples that never
entered the Vandermonde; accepted coefficients are snapped to nearby small
rationals and the snap is rolled back if re-validation fails.

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
from dataclasses import dataclass
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
) -> RationalFunction | None:
    """The validated formula for coordinate j of deck k from the first
    ``size`` samples, snapped when the snap still validates; None when the
    nullspace has no representative or it fails the samples from index
    ``holdout`` on.  ``points`` (S, n+m) holds each sample's base point and
    ``images`` (S, |G|-1, n) its deck images."""
    imgs = images[:size, k, j]
    a_mat = np.hstack([vn[:size], -imgs[:, None] * vd[:size]])
    try:
        null = numcore.nullspace(a_mat)
    except (np.linalg.LinAlgError, ValueError):
        return None
    if null.shape[1] == 0:
        return None
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
    rng: np.random.Generator,
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
    samples: list[FiberSample] = []

    for degree in range(1, degree_bound + 1):
        monos = monomials_up_to_degree(n, m, degree, parameter_dependent)
        classes = monomial_classes(monos, lattice)
        stats.class_count = len(classes)
        t = max(len(v) for v in classes.values())
        stats.largest_class = max(stats.largest_class, t)
        fit_max = 2 * t
        budget = fit_max + _holdout_count(fit_max)
        if budget > len(samples):
            samples += monodromy_mod.sample_orbit(
                system, mono, perms, budget - len(samples), rng
            )
        points = np.array([s.points()[0] for s in samples[:budget]])
        images = np.array([s.solutions[1:] for s in samples[:budget]])
        values: dict[scaling.Multidegree, np.ndarray] = {}

        def class_values(key):
            got = values.get(key)
            if got is None:
                got = values[key] = monomial_values(classes[key], points)
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
                        system, points, images, vn, vd, mon_n, mon_d, j, k,
                        len(mon_n) + len(mon_d), fit_max,
                    )
                    if got is not None:
                        deck.coords[j] = got
                        deck.degree_bound_used = degree
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
    empty = scaling.ScalingLattice(nvars, scaling.IntMatrix(0, nvars, ()), ())
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


def held_out_fibers(
    system: System, base: FiberSample, count: int, rng: np.random.Generator
) -> list[FiberSample]:
    """The fibers that track out of one ``tracker.sample_fiber`` call for
    ``count`` slots from ``base`` (every path of every fiber in one lockstep
    call); a slot that fails all its attempts is dropped."""
    samples = tracker.sample_fiber(system, base, count, rng)
    return [sample for sample in samples if sample is not None]


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
    ``rng``.  Failures are reported, not raised.  ``trial_count`` is the
    number of fibers requested, and a check on fewer fibers does not pass:
    zero fibers would otherwise pass vacuously.  For the same reason a
    ``trial_count`` below 1 is a ValueError.  The fibers are only read, so
    every deck map of a run is checked on the same ones.
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
        values = np.column_stack([deck.coords[j].evaluate(points) for j in present])
        worst_pair = float(np.max(np.abs(values - paired) / (1.0 + np.abs(paired))))
        if deck.complete:
            comp = tracker.compiled(system)
            structural = [i for i in range(n) if i not in system.patch_indices]
            f = comp.f_rows(comp.monomial_rows(values, points[:, n:]))[:, structural]
            worst_res = float(np.max(np.abs(f), initial=0.0))

    worst_quasi = 0.0
    quasi_ok: bool | None = None
    if lattice is not None and lattice.free.rows and fibers:
        points = fibers[0].points()[:3]
        base = [deck.coords[j].evaluate(points) for j in present]
        for row in lattice.free.data:
            lam = complex(np.exp(1j * rng.uniform(0, 2 * np.pi))) * rng.uniform(0.5, 1.5)
            scaled = scaling.apply_scaling(row, lam, points)
            for j, base_vals in zip(present, base):
                expected = lam ** row[j] * base_vals
                err = np.abs(deck.coords[j].evaluate(scaled) - expected) / (1.0 + np.abs(expected))
                worst_quasi = float(np.max(err, initial=worst_quasi))
        quasi_ok = worst_quasi <= VALIDATE_RTOL

    return DeckVerification(
        pairing_ok=worst_pair <= VALIDATE_RTOL,
        fiber_ok=(worst_res <= IMAGE_RESIDUAL_TOL) if deck.complete else None,
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
