"""Monodromy solving: discover the fiber over a base point and the loop permutations.

Loops are triangles p* -> q1 -> q2 -> p* through two fully random complex
parameter points; ``_track_loop`` carries one solution around one, for
``run_monodromy`` and for ``replay_loop``.  Endpoints are matched back to
the known fiber by nearest neighbor within ``tracker.MATCH_TOL`` and with a
strict distinctness ratio, so a mislabeled path fails the loop instead of
corrupting the permutation record.  A loop contributes a permutation only
once the known fiber did not grow during it.  The run stops after
``_STALL_LIMIT`` loops without a new solution (or at the expected degree)
and ``_PERM_STALL_LIMIT`` loops without group growth, or at ``_MAX_LOOPS``.

Deck-orbit samples come from ``tracker.sample_fiber``, each checked by a
round trip back to the base point (``tracker.retraces``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import numcore, permgrp, tracker
from .expr import System, coeff_to_complex
from .permgrp import Perm
from .tracker import MATCH_TOL, FiberSample, TrackerConfig

__all__ = [
    "FiberSample",
    "MonodromyConfig",
    "MonodromyError",
    "MonodromyResult",
    "check_deck_perms",
    "deck_orbit",
    "run_monodromy",
    "sample_orbit",
    "seed_from_linear_params",
]


class MonodromyError(RuntimeError):
    pass


_STALL_LIMIT = 10
_PERM_STALL_LIMIT = 5
_MAX_LOOPS = 400
_SEED_RESIDUAL_TOL = 1e-10


@dataclass
class MonodromyConfig:
    expected_degree: int | None = None
    tracker: TrackerConfig = field(default_factory=TrackerConfig)


@dataclass(frozen=True)
class LoopRecord:
    """Replay data for one permutation-producing loop: the two waypoints and
    the per-segment gamma factors."""

    q1: np.ndarray
    q2: np.ndarray
    gammas: tuple[complex, complex, complex]
    permutation: Perm


@dataclass
class MonodromyResult:
    base: FiberSample
    permutations: list[Perm]
    loop_count: int
    loop_log: list[LoopRecord] = field(default_factory=list)

    @property
    def degree(self) -> int:
        return len(self.base.solutions)

    def group(self) -> permgrp.PermutationGroup:
        return permgrp.PermutationGroup(self.degree, tuple(self.permutations))


def _track_loop(
    system: System, sol, p0, q1, q2, gammas, cfg: TrackerConfig
) -> np.ndarray | None:
    """Carry one solution around the triangle p0 -> q1 -> q2 -> p0, one gamma
    per segment; None when a path fails."""
    cur = sol
    for a, b, g in ((p0, q1, gammas[0]), (q1, q2, gammas[1]), (q2, p0, gammas[2])):
        r = tracker.track_path(system, cur, a, b, cfg, gamma=g)
        if not r.success:
            return None
        cur = r.endpoint
    return cur


def replay_loop(
    system: System, result: MonodromyResult, record: LoopRecord, cfg: MonodromyConfig
) -> bool:
    """Re-track a recorded loop and check it reproduces the same matching."""
    p0 = result.base.params
    sols = result.base.solutions
    for i, sol in enumerate(sols):
        end = _track_loop(system, sol, p0, record.q1, record.q2, record.gammas, cfg.tracker)
        if end is None:
            return False
        best, d1, _ = tracker.nearest(end, sols)
        if d1 > MATCH_TOL or best != record.permutation[i]:
            return False
    return True


def _group_signature(degree: int, perms: list[Perm]):
    """Cheap fingerprint of the generated group, used for stall detection.

    Repeating an already-seen permutation must not reset the stall counter,
    but any growth of the generated group must: otherwise a run can stop
    with a proper (even intransitive) subgroup and an inflated centralizer.
    The costlier invariants are skipped at large degrees.
    """
    group = permgrp.PermutationGroup(degree, tuple(perms))
    seen: set[int] = set()
    orbits = []
    for v in range(degree):
        if v in seen:
            continue
        orb = permgrp.orbit(group, v)
        seen |= orb
        orbits.append(len(orb))
    sig: list = [tuple(sorted(orbits))]
    if degree <= 64:
        sig.append(permgrp.group_order_capped(group, 3000))
    if degree <= 512 and len(orbits) == 1:
        sig.append(len(permgrp.centralizer_in_symmetric(group)))
    return tuple(sig)


def seed_from_linear_params(
    system: System,
    x_star="random",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sampling oracle for systems affine-linear in the parameters.

    Picks random complex unknowns (or uses the given ones), solves the
    induced linear system for the parameters by least squares, and accepts
    when the residual is small and the Jacobian in the unknowns has full
    rank.  Resamples up to 10 times in the random mode.
    """
    n, m = system.n, system.m
    for eq in system.equations:
        for exp, _ in eq.terms:
            if sum(exp[n:]) > 1:
                raise MonodromyError("system is not affine-linear in the parameters")
    given = not (isinstance(x_star, str) and x_star == "random")
    if given:
        attempts = [np.asarray(x_star, dtype=complex)]
    else:
        if rng is None:
            raise ValueError("random seeding needs an rng")
        attempts = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(10)]
    comp = tracker.compiled(system)
    last = "no attempt"
    for x in attempts:
        a = np.zeros((n, m), dtype=complex)
        c = np.zeros(n, dtype=complex)
        for i, eq in enumerate(system.equations):
            for exp, coeff in eq.terms:
                v = coeff_to_complex(coeff)
                for k, e in enumerate(exp[:n]):
                    if e:
                        v *= x[k] ** e
                pexp = exp[n:]
                j = next((k for k, e in enumerate(pexp) if e), None)
                if j is None:
                    c[i] += v
                else:
                    a[i, j] += v
        p, *_ = np.linalg.lstsq(a, -c, rcond=None)
        # The least-squares solution is minimal-norm; add a generic element of
        # the nullspace so under-determined parameters (e.g. homogeneous
        # coefficient systems) come out generic rather than zero.
        null = numcore.nullspace(a, 1e-10)
        if null.shape[1]:
            gen = rng if rng is not None else np.random.default_rng(0)
            coeffs = gen.standard_normal(null.shape[1]) + 1j * gen.standard_normal(
                null.shape[1]
            )
            p = p + null @ coeffs
        res = float(np.abs(comp.f_at(x, p)).max())
        if res > _SEED_RESIDUAL_TOL:
            last = f"residual {res:.3e}"
            continue
        jx = comp.jx_at(x, p)
        s = np.linalg.svd(jx, compute_uv=False)
        if s[-1] <= 1e-8 * s[0]:
            last = "rank-deficient Jacobian at the seed"
            continue
        return x, p
    raise MonodromyError(f"could not build a valid seed pair ({last})")


def run_monodromy(
    system: System,
    seed: tuple[np.ndarray, np.ndarray],
    cfg: MonodromyConfig,
    rng: np.random.Generator,
) -> MonodromyResult:
    """Grow the fiber over the seed parameters and collect loop permutations.

    Terminates once the fiber is stable (expected degree reached, or
    ``_STALL_LIMIT`` loops without a new solution) and ``_PERM_STALL_LIMIT``
    further loops produced no new permutation.
    """
    x0, p0 = np.asarray(seed[0], dtype=complex), np.asarray(seed[1], dtype=complex)
    x0 = tracker.newton_polish(system, x0, p0, cfg.tracker.path_tol / 100)
    fiber: list[np.ndarray] = [x0]
    perms: list[Perm] = []
    loop_log: list[LoopRecord] = []
    loops = 0
    since_new_sol = 0
    since_new_perm = 0
    last_signature = None
    failure_window: deque[float] = deque(maxlen=5)
    tcfg = cfg.tracker

    while loops < _MAX_LOOPS:
        loops += 1
        q1 = tracker.random_params(system.m, rng)
        q2 = tracker.random_params(system.m, rng)
        gammas = [tracker.draw_gamma(rng) for _ in range(3)]
        endpoints = [_track_loop(system, sol, p0, q1, q2, gammas, tcfg) for sol in fiber]
        failed = sum(1 for e in endpoints if e is None)
        failure_window.append(failed / len(endpoints))
        if len(failure_window) == 5 and all(f > 0.5 for f in failure_window):
            raise MonodromyError("persistent path failures during monodromy loops")

        start_count = len(fiber)
        images: list[int | None] = [None] * start_count
        clean = failed == 0
        for i, endpoint in enumerate(endpoints):
            if endpoint is None:
                continue
            best, d1, d2 = tracker.nearest(endpoint, fiber)
            if d1 <= MATCH_TOL and d2 >= 100 * d1:
                images[i] = best
            elif d1 >= 100 * MATCH_TOL:
                try:
                    new = tracker.newton_polish(system, endpoint, p0, tcfg.path_tol / 100)
                except tracker.NewtonError:
                    clean = False
                    continue
                nb, nd, _ = tracker.nearest(new, fiber)
                if nd <= MATCH_TOL:
                    images[i] = nb
                elif nd >= 100 * MATCH_TOL:
                    fiber.append(new)
                else:
                    clean = False
            else:
                clean = False

        grew = len(fiber) > start_count
        since_new_sol = 0 if grew else since_new_sol + 1
        if grew:
            # Earlier permutations were relative to a partial fiber; only
            # permutations recorded after the count stabilizes are total.
            perms.clear()
            loop_log.clear()
            since_new_perm = 0
            last_signature = None
        else:
            if clean and all(v is not None for v in images):
                candidate = tuple(images)  # type: ignore[arg-type]
                if permgrp.is_permutation(candidate) and candidate not in perms:
                    perms.append(candidate)
                    loop_log.append(LoopRecord(q1, q2, tuple(gammas), candidate))
            if perms:
                sig = _group_signature(len(fiber), perms)
                if sig != last_signature:
                    last_signature = sig
                    since_new_perm = 0
                else:
                    since_new_perm += 1

        fiber_stable = (
            cfg.expected_degree is not None and len(fiber) >= cfg.expected_degree
        ) or since_new_sol >= _STALL_LIMIT
        if (
            fiber_stable
            and perms
            and since_new_perm >= _PERM_STALL_LIMIT
            and permgrp.is_transitive(permgrp.PermutationGroup(len(fiber), tuple(perms)))
        ):
            break

    if len(fiber) < 2:
        raise MonodromyError("monodromy stalled with fewer than 2 solutions")
    if cfg.expected_degree is not None and len(fiber) != cfg.expected_degree:
        raise MonodromyError(
            f"found {len(fiber)} solutions, expected {cfg.expected_degree}"
        )
    base = FiberSample(p0, tuple(fiber))
    if base.min_pairwise_distance() <= MATCH_TOL:
        raise MonodromyError("fiber solutions are not well separated")
    return MonodromyResult(base, perms, loops, loop_log)


def check_deck_perms(result: MonodromyResult, deck_perms: Sequence[Perm]) -> list[Perm]:
    """Deck permutations must act on the fiber and commute with the recorded
    monodromy; returns the non-identity ones in the given order (the identity
    carries no extra orbit point)."""
    d = result.degree
    ident = permgrp.identity(d)
    out = []
    for sigma in map(tuple, deck_perms):
        if len(sigma) != d:
            raise ValueError("deck permutation degree does not match the fiber")
        for g in result.permutations:
            if permgrp.compose(sigma, g) != permgrp.compose(g, sigma):
                raise ValueError("deck permutation does not centralize the monodromy group")
        if sigma != ident:
            out.append(sigma)
    return out


def deck_orbit(
    result: MonodromyResult, deck_perms: Sequence[Perm]
) -> tuple[list[Perm], FiberSample]:
    """The non-identity deck permutations (``check_deck_perms``) and the deck
    orbit of the base solution over the base parameters: solution 0, then
    solution sigma(0) for each of them, which must all be distinct."""
    nontrivial = check_deck_perms(result, deck_perms)
    indices = [0] + [sigma[0] for sigma in nontrivial]
    if len(set(indices)) != len(indices):
        raise ValueError("deck permutations do not have distinct images of the base point")
    base = result.base
    return nontrivial, FiberSample(base.params, tuple(base.solutions[i] for i in indices))


def sample_orbit(
    system: System,
    result: MonodromyResult,
    deck_perms: Sequence[Perm],
    count: int,
    cfg: MonodromyConfig,
    rng: np.random.Generator,
) -> list[FiberSample]:
    """Track the deck orbit of the base solution to ``count`` random targets.

    Each returned sample holds the orbit only, index-correspondent: pair
    (solutions[0], solutions[j]) realizes (x, Psi_j(x)) for the j-th
    non-identity deck permutation.  Each sample is drawn with up to 3 tries
    of ``tracker.sample_fiber`` and must pass a round trip.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    _, orbit = deck_orbit(result, deck_perms)

    def roundtrip(sample: FiberSample, gamma: complex) -> bool:
        return tracker.retraces(system, orbit, sample, gamma, cfg.tracker)

    samples: list[FiberSample] = []
    for _ in range(count):
        got = tracker.sample_fiber(system, orbit, cfg.tracker, rng, 3, roundtrip)
        if got is None:
            raise MonodromyError("orbit sampling failed after 3 retries")
        samples.append(got[0])
    return samples
