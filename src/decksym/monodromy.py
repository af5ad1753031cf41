"""Monodromy solving over a homotopy graph: the fiber over a base point and
generators of the monodromy group.

The nodes of the graph are the base parameters p0 and random complex
parameter points, and each node keeps its own partial fiber.  An edge joins
two nodes with one gamma and caches the correspondence of its tracked paths
in both directions.  A solution is tracked along an edge only while the edge
maps it nowhere; from the far end the same arc is tracked with 1/gamma, as
in ``tracker.retraces``.  So each new edge costs at most d paths and closes
a new cycle.  An endpoint matches a solution of the far fiber within
``tracker.MATCH_TOL`` and 100 times closer than the runner-up, or is
polished into a new solution there.  A failed or ambiguous path leaves its
edge incomplete, and the other endpoint may complete it; two solutions
landing on one break the edge.

Each round adds one edge between two nodes not yet joined.  Once every pair
is joined, a new random node enters with edges to nodes 0 and 1.  Generators
are read from a breadth-first spanning tree over the complete edges between
complete nodes: one cycle per non-tree edge, with no identity and no
repeats.  The base fiber is stable at the expected degree when one is
given, and otherwise after ``_STALL_LIMIT`` rounds without a new base
solution.  The run stops once the fiber is stable and ``_PERM_STALL_LIMIT``
rounds did not grow the group, or at ``_MAX_LOOPS`` rounds.

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


Segment = tuple[np.ndarray, np.ndarray, complex]  # (from, to, gamma) of one tracked arc


@dataclass(frozen=True)
class LoopRecord:
    """One generator's cycle through the base point: its arcs in order, and
    the permutation of the base fiber it induces (solution i ends at
    ``permutation[i]``)."""

    segments: tuple[Segment, ...]
    permutation: Perm


@dataclass
class MonodromyResult:
    """The base fiber, the generators with their cycles (``loop_log``), and
    the graph's counts: rounds (``loop_count``), edges, and paths tracked
    and failed."""

    base: FiberSample
    permutations: list[Perm]
    loop_count: int
    loop_log: list[LoopRecord]
    edges: int
    paths_tracked: int
    paths_failed: int

    @property
    def degree(self) -> int:
        return len(self.base.solutions)

    def group(self) -> permgrp.PermutationGroup:
        return permgrp.PermutationGroup(self.degree, tuple(self.permutations))


@dataclass
class _Edge:
    """Nodes a and b joined with one gamma.  ``maps[0]`` sends a solution
    index at a to its index at b, ``maps[1]`` the reverse; ``tried`` holds
    the (direction, solution) pairs already tracked."""

    a: int
    b: int
    gamma: complex
    maps: tuple[dict[int, int], dict[int, int]] = field(default_factory=lambda: ({}, {}))
    tried: set[tuple[int, int]] = field(default_factory=set)
    broken: bool = False

    def ends(self, direction: int) -> tuple[int, int]:
        return (self.b, self.a) if direction else (self.a, self.b)

    def segment(self, direction: int, params) -> Segment:
        """The arc from one end to the other; direction 1 runs the a -> b arc
        backwards, with 1/gamma."""
        src, dst = self.ends(direction)
        return params[src], params[dst], (1.0 / self.gamma if direction else self.gamma)


class _Graph:
    """The homotopy graph: node parameters, node fibers and edges."""

    def __init__(self, system: System, p0, x0, cfg: TrackerConfig):
        self.system, self.cfg = system, cfg
        self.params: list[np.ndarray] = [p0]
        self.fibers: list[list[np.ndarray]] = [[x0]]
        self.edges: list[_Edge] = []
        self.tracked = 0
        self.failed = 0

    def grow(self, rng: np.random.Generator) -> None:
        """Join the first pair of nodes (b, then a) with no edge, or add a
        random node joined to nodes 0 and 1 once every pair has one."""
        joined = {(e.a, e.b) for e in self.edges}
        k = len(self.params)
        pair = next(((a, b) for b in range(k) for a in range(b) if (a, b) not in joined), None)
        if pair is not None:
            self.edges.append(_Edge(*pair, tracker.draw_gamma(rng)))
            return
        self.params.append(tracker.random_params(self.system.m, rng))
        self.fibers.append([])
        for a in range(min(k, 2)):
            self.edges.append(_Edge(a, k, tracker.draw_gamma(rng)))

    def propagate(self) -> tuple[int, int]:
        """Track every solution along every edge that maps it nowhere yet,
        until no edge has one left to try; returns the paths tracked and
        failed."""
        tracked, failed = self.tracked, self.failed
        progress = True
        while progress:
            progress = False
            for e in self.edges:
                for direction in (0, 1):
                    src = e.ends(direction)[0]
                    for i in range(len(self.fibers[src])):
                        if e.broken:
                            break
                        if i not in e.maps[direction] and (direction, i) not in e.tried:
                            self._track(e, direction, i)
                            progress = True
        return self.tracked - tracked, self.failed - failed

    def _track(self, e: _Edge, direction: int, i: int) -> None:
        src, dst = e.ends(direction)
        p_from, p_to, gamma = e.segment(direction, self.params)
        e.tried.add((direction, i))
        self.tracked += 1
        r = tracker.track_path(
            self.system, self.fibers[src][i], p_from, p_to, self.cfg, gamma=gamma
        )
        if not r.success:
            self.failed += 1
            return
        j = self._locate(dst, r.endpoint)
        if j is None:
            return
        back = e.maps[1 - direction]
        if j in back:  # two solutions land on one: a sheet jump on this edge
            e.broken = True
        else:
            e.maps[direction][i] = j
            back[j] = i

    def _locate(self, node: int, point) -> int | None:
        """The index of ``point`` in the node's fiber, appending it when it
        is new; None when the match is ambiguous or the polish fails."""
        fiber = self.fibers[node]
        if fiber:
            best, d1, d2 = tracker.nearest(point, fiber)
            if d1 <= MATCH_TOL and d2 >= 100 * d1:
                return best
            if d1 < 100 * MATCH_TOL:
                return None
        try:
            new = tracker.newton_polish(
                self.system, point, self.params[node], self.cfg.path_tol / 100
            )
        except tracker.NewtonError:
            return None
        if fiber:
            best, d1, _ = tracker.nearest(new, fiber)
            if d1 <= MATCH_TOL:
                return best
            if d1 < 100 * MATCH_TOL:
                return None
        fiber.append(new)
        return len(fiber) - 1

    def cycles(self) -> list[LoopRecord]:
        """One cycle per non-tree edge of a breadth-first spanning tree from
        node 0 over the complete edges between complete nodes (as many
        solutions as node 0), without the identity or repeats."""
        d = len(self.fibers[0])
        complete = [
            e for e in self.edges
            if not e.broken and len(e.maps[0]) == d == len(self.fibers[e.a]) == len(self.fibers[e.b])
        ]
        adjacent: dict[int, list[tuple[int, int]]] = {}
        for k, e in enumerate(complete):
            adjacent.setdefault(e.a, []).append((k, 0))
            adjacent.setdefault(e.b, []).append((k, 1))
        # label[v][i]: the index at node v of base solution i along the tree;
        # path[v]: the tree's arcs from node 0 to node v.
        label = {0: list(range(d))}
        path: dict[int, tuple[Segment, ...]] = {0: ()}
        tree: set[int] = set()
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for k, direction in adjacent.get(u, ()):
                e = complete[k]
                v = e.ends(direction)[1]
                if v not in label:
                    label[v] = [e.maps[direction][j] for j in label[u]]
                    path[v] = path[u] + (e.segment(direction, self.params),)
                    tree.add(k)
                    queue.append(v)
        out: list[LoopRecord] = []
        seen = {permgrp.identity(d)}
        for k, e in enumerate(complete):
            if k in tree or e.a not in label:
                continue
            at_base = {v: i for i, v in enumerate(label[e.b])}
            perm = tuple(at_base[e.maps[0][j]] for j in label[e.a])
            if perm in seen:
                continue
            seen.add(perm)
            home = tuple((q, p, 1.0 / g) for p, q, g in reversed(path[e.b]))
            out.append(LoopRecord(path[e.a] + (e.segment(0, self.params),) + home, perm))
        return out


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
    """Grow the homotopy graph round by round from the seed pair and read
    the generators off its cycles.

    Terminates once the base fiber is stable (the expected degree reached
    when one is given, else ``_STALL_LIMIT`` rounds without a new solution)
    and ``_PERM_STALL_LIMIT`` further rounds did not grow the generated
    group, or after ``_MAX_LOOPS`` rounds.  A fiber that never reaches the
    expected degree fails only then.
    """
    x0, p0 = np.asarray(seed[0], dtype=complex), np.asarray(seed[1], dtype=complex)
    x0 = tracker.newton_polish(system, x0, p0, cfg.tracker.path_tol / 100)
    graph = _Graph(system, p0, x0, cfg.tracker)
    fiber = graph.fibers[0]
    cycles: list[LoopRecord] = []
    rounds = 0
    since_new_sol = 0
    since_new_perm = 0
    last_signature = None
    failure_window: deque[float] = deque(maxlen=5)

    while rounds < _MAX_LOOPS:
        rounds += 1
        start_count = len(fiber)
        graph.grow(rng)
        tracked, failed = graph.propagate()
        # A round that tracks nothing (an edge between two empty nodes)
        # says nothing about the failure rate.
        if tracked:
            failure_window.append(failed / tracked)
        if len(failure_window) == 5 and all(f > 0.5 for f in failure_window):
            raise MonodromyError("persistent path failures in the homotopy graph")

        grew = len(fiber) > start_count
        since_new_sol = 0 if grew else since_new_sol + 1
        cycles = graph.cycles()
        perms = [c.permutation for c in cycles]
        if grew:
            since_new_perm = 0
            last_signature = None
        elif perms:
            sig = _group_signature(len(fiber), perms)
            if sig != last_signature:
                last_signature = sig
                since_new_perm = 0
            else:
                since_new_perm += 1

        if cfg.expected_degree is None:
            fiber_stable = since_new_sol >= _STALL_LIMIT
        else:
            fiber_stable = len(fiber) >= cfg.expected_degree
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
    return MonodromyResult(
        base,
        [c.permutation for c in cycles],
        rounds,
        cycles,
        edges=len(graph.edges),
        paths_tracked=graph.tracked,
        paths_failed=graph.failed,
    )


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
        got = tracker.sample_fiber(system, orbit, cfg.tracker, rng, roundtrip)
        if got is None:
            raise MonodromyError("orbit sampling failed after 3 retries")
        samples.append(got[0])
    return samples
