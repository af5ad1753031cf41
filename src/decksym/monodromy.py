"""Monodromy solving over a homotopy graph: the fiber over a base point and
generators of the monodromy group.

The nodes of the graph are the base parameters p0 and random complex
parameter points, and each node keeps its own partial fiber, a (k, n) array
that grows by one row per new solution.  An edge joins two nodes with one
gamma and caches the correspondence of its tracked paths in both
directions.  A solution is tracked along an edge only while the edge
maps it nowhere; from the far end the same arc is tracked with 1/gamma, as
in ``tracker.retraces``.  So each new edge costs at most d paths and closes
a new cycle.  ``tracker.match`` decides which solution of the far fiber an
endpoint is; an endpoint it calls new is polished, matched again, and added
to the far fiber when it is still new.  A failed or ambiguous path leaves its
edge incomplete, and the other endpoint may complete it; two solutions
landing on one break the edge.  The solutions an edge maps nowhere yet in
one direction share one homotopy, so they are tracked in one
``tracker.track_paths`` call (lockstep, bit-identical to one ``track_path``
call each; up to two paths go one at a time).  The results are taken in
index order: a break stops the edge there, and the paths after it count as
never tracked.

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
from .expr import System, format_polynomial
from .permgrp import Perm
from .tracker import PATH_TOL, FiberSample

__all__ = [
    "FiberSample",
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

    def __init__(self, system: System, p0, x0):
        self.system = system
        self.params: list[np.ndarray] = [p0]
        self.fibers: list[np.ndarray] = [x0[None, :]]  # (k, n) per node
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
        self.fibers.append(np.empty((0, self.system.n), dtype=complex))
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
                    if not e.broken and self._track(e, direction):
                        progress = True
        return self.tracked - tracked, self.failed - failed

    def _track(self, e: _Edge, direction: int) -> bool:
        """Track every solution the edge maps nowhere yet in one direction,
        in one ``tracker.track_paths`` call, then take the results in index
        order; a break ends the edge there, and the paths after it count as
        never tracked.  Returns whether any path was pending."""
        src, dst = e.ends(direction)
        pending = [
            i for i in range(len(self.fibers[src]))
            if i not in e.maps[direction] and (direction, i) not in e.tried
        ]
        if not pending:
            return False
        p_from, p_to, gamma = e.segment(direction, self.params)
        starts = self.fibers[src][pending]
        results = tracker.track_paths(self.system, starts, p_from, p_to, gamma)
        for i, r in zip(pending, results):
            e.tried.add((direction, i))
            self.tracked += 1
            if not r.success:
                self.failed += 1
                continue
            j = self._locate(dst, r.endpoint)
            if j is None:
                continue
            back = e.maps[1 - direction]
            if j in back:  # two solutions land on one: a sheet jump on this edge
                e.broken = True
                break
            e.maps[direction][i] = j
            back[j] = i
        return True

    def _locate(self, node: int, point) -> int | None:
        """The index of ``point`` in the node's fiber (``tracker.match``); a
        new point is polished and matched again, and appended when it is
        still new, as the fiber's next row.  None when the match is ambiguous
        or the polish fails."""
        fiber = self.fibers[node]
        j = tracker.match(point, fiber)
        if j != tracker.NEW:
            return None if j == tracker.AMBIGUOUS else j
        try:
            point = tracker.newton_polish(self.system, point, self.params[node], PATH_TOL / 100)
        except tracker.NewtonError:
            return None
        j = tracker.match(point, fiber)
        if j == tracker.NEW:
            self.fibers[node] = np.vstack([fiber, point])
            return len(fiber)
        return None if j == tracker.AMBIGUOUS else j

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
    but growth of the generated group should: otherwise a run can stop
    with a proper (even intransitive) subgroup and an inflated centralizer.
    The fingerprint is the orbit sizes, the order capped at 3000 (d <= 64)
    and the centralizer size (transitive, d <= 512), so growth that changes
    none of them goes unseen: past the cap, or at a large degree.  There the
    stall counter runs on while the group still grows.
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
    rank.  Resamples up to 10 times in the random mode, which rejects a
    parameter-free equation up front: no choice of p satisfies it at a
    random x.
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
        for k, eq in enumerate(system.equations, 1):
            if not any(any(exp[n:]) for exp, _ in eq.terms):
                raise MonodromyError(
                    f"equation {k} ({format_polynomial(eq, system.names)}) has no "
                    "parameter, so no random point satisfies it; pass a seed pair (--seed-pair)"
                )
        if rng is None:
            raise ValueError("random seeding needs an rng")
        attempts = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(10)]
    comp = tracker.compiled(system)
    last = "no attempt"
    zero = np.zeros(m, dtype=complex)
    for x in attempts:
        # F is affine in p: F(x, p) = c + a p with a = dF/dp and c = F(x, 0).
        a = comp.jp_at(x, zero)
        c = comp.f_at(x, zero)
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
    rng: np.random.Generator,
    *,
    expected_degree: int | None = None,
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
    x0 = tracker.newton_polish(system, x0, p0, PATH_TOL / 100)
    graph = _Graph(system, p0, x0)
    cycles: list[LoopRecord] = []
    rounds = 0
    since_new_sol = 0
    since_new_perm = 0
    last_signature = None
    failure_window: deque[float] = deque(maxlen=5)

    while rounds < _MAX_LOOPS:
        rounds += 1
        start_count = len(graph.fibers[0])
        graph.grow(rng)
        tracked, failed = graph.propagate()
        # A round that tracks nothing (an edge between two empty nodes)
        # says nothing about the failure rate.
        if tracked:
            failure_window.append(failed / tracked)
        if len(failure_window) == 5 and all(f > 0.5 for f in failure_window):
            raise MonodromyError("persistent path failures in the homotopy graph")

        degree = len(graph.fibers[0])
        grew = degree > start_count
        since_new_sol = 0 if grew else since_new_sol + 1
        cycles = graph.cycles()
        perms = [c.permutation for c in cycles]
        if grew:
            since_new_perm = 0
            last_signature = None
        elif perms:
            sig = _group_signature(degree, perms)
            if sig != last_signature:
                last_signature = sig
                since_new_perm = 0
            else:
                since_new_perm += 1

        if expected_degree is None:
            fiber_stable = since_new_sol >= _STALL_LIMIT
        else:
            fiber_stable = degree >= expected_degree
        if (
            fiber_stable
            and perms
            and since_new_perm >= _PERM_STALL_LIMIT
            and permgrp.is_transitive(permgrp.PermutationGroup(degree, tuple(perms)))
        ):
            break

    base = FiberSample(p0, graph.fibers[0])
    if len(base) < 2:
        raise MonodromyError("monodromy stalled with fewer than 2 solutions")
    if expected_degree is not None and len(base) != expected_degree:
        raise MonodromyError(f"found {len(base)} solutions, expected {expected_degree}")
    if not base.distinct():
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
    return nontrivial, FiberSample(base.params, base.solutions[indices])


def sample_orbit(
    system: System,
    result: MonodromyResult,
    deck_perms: Sequence[Perm],
    count: int,
    rng: np.random.Generator,
) -> list[FiberSample]:
    """Track the deck orbit of the base solution to ``count`` random targets.

    Each returned sample holds the orbit only, index-correspondent: pair
    (solutions[0], solutions[j]) realizes (x, Psi_j(x)) for the j-th
    non-identity deck permutation.  Each sample must pass a round trip, in
    ``tracker.sample_fiber``'s ``tracker.SAMPLE_ATTEMPTS`` tries.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    _, orbit = deck_orbit(result, deck_perms)

    def roundtrip(sample: FiberSample, gamma: complex) -> bool:
        return tracker.retraces(system, orbit, sample, gamma)

    samples: list[FiberSample] = []
    for _ in range(count):
        got = tracker.sample_fiber(system, orbit, rng, roundtrip)
        if got is None:
            raise MonodromyError(f"orbit sampling failed after {tracker.SAMPLE_ATTEMPTS} attempts")
        samples.append(got[0])
    return samples
