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
landing on one break the edge.  The results of an edge direction's paths
are taken at its turn in the sweep, in index order: a break stops the edge
there, and the paths after it count as never tracked.  They are tracked
ahead of that turn: when a turn finds a path not yet tracked, one
``tracker.track_paths`` call (lockstep, each row along its own arc and
bit-identical to one ``track_path`` call; up to two paths go one at a time)
tracks the turn's missing paths together with the direction-0 paths every
other unbroken edge still has pending and those of the edges of the rounds
already planned (below), up to ``_CALL_ROWS`` rows unless the turn's own
paths are more.  An edge's direction-0 pending set only grows until its
turn, so the sweep tracks exactly the paths it tracked one edge direction
at a time, in fewer and larger calls.

Each round adds one edge between two nodes not yet joined.  Once every pair
is joined, a new random node enters with edges to nodes 0 and 1.  Generators
are read from a breadth-first spanning tree over the complete edges between
complete nodes: one cycle per non-tree edge, with no identity and no
repeats.  The base fiber is stable at the expected degree when one is
given, and otherwise after ``_STALL_LIMIT`` rounds without a new base
solution.  The run stops once the fiber is stable and ``_PERM_STALL_LIMIT``
rounds did not grow the group, or at ``_MAX_LOOPS`` rounds.  So once the
fiber is stable, the rounds until the stall count can reach the limit are
certain to run, and they are drawn at the end of each round, in the order
the rounds would draw them: their nodes and edges enter the graph's lists
at once, at their final indices, and only the sweep, the cycles and the
edge count wait until their round grows them.  A planned edge whose source
node holds every solution has its direction-0 paths known, and they go out
with the calls of the rounds before it.  The rng is drawn in the same
sequence and every path keeps its bits, so only the number of calls
changes.

Deck-orbit samples come from ``tracker.sample_fiber``: all the samples one
call asks for are tracked out together and checked together by a round trip
back to the base point (``tracker.retraces``), and only the failed ones are
redrawn.
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
# A ``_Graph._track_ahead`` call adds paths of other edges up to this many
# rows in all (the turn's own paths always go out): the largest call a node
# round of triangular (two edges of 32 paths) makes without planned rounds.
_CALL_ROWS = 64


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
    """The homotopy graph: node parameters, node fibers and edges, the first
    ``live`` edges grown and the rest planned, with the edge count after each
    planned round (``plan``), and the paths tracked ahead of their turn,
    keyed by (edge index, direction, solution index).  A planned round's
    nodes and edges sit in the lists from the draw on, at their final
    indices; its nodes' fibers stay empty until its edges grow."""

    def __init__(self, system: System, p0, x0):
        self.system = system
        self.params: list[np.ndarray] = [p0]
        self.fibers: list[np.ndarray] = [x0[None, :]]  # (k, n) per node
        self.edges: list[_Edge] = []
        self.live = 0
        self.plan: deque[int] = deque()
        self.ahead: dict[tuple[int, int, int], tracker.PathResult] = {}
        self.tracked = 0
        self.failed = 0

    def grow(self, rng: np.random.Generator) -> None:
        """Grow the first planned round's edges, drawing the round now when
        none is planned."""
        if not self.plan:
            self._draw(rng)
        self.live = self.plan.popleft()

    def plan_rounds(self, rng: np.random.Generator, rounds: int) -> None:
        """Draw the next ``rounds`` rounds, past those already planned; every
        planned round must run, so that the rng is drawn as one round at a
        time draws it."""
        while len(self.plan) < rounds:
            self._draw(rng)

    def _draw(self, rng: np.random.Generator) -> None:
        """Plan the round after the planned ones: join the first pair of
        nodes (b, then a) with no edge, or add a random node (its parameters,
        then one gamma per edge) joined to nodes 0 and 1 once every pair has
        one."""
        joined = {(e.a, e.b) for e in self.edges}
        k = len(self.params)
        pair = next(((a, b) for b in range(k) for a in range(b) if (a, b) not in joined), None)
        if pair is not None:
            self.edges.append(_Edge(*pair, tracker.draw_gamma(rng)))
        else:
            self.params.append(tracker.random_params(self.system.m, rng))
            self.fibers.append(np.empty((0, self.system.n), dtype=complex))
            self.edges += [_Edge(a, k, tracker.draw_gamma(rng)) for a in range(min(k, 2))]
        self.plan.append(len(self.edges))

    def propagate(self) -> tuple[int, int]:
        """Track every solution along every grown edge that maps it nowhere
        yet, until no edge has one left to try; returns the paths tracked and
        failed."""
        tracked, failed = self.tracked, self.failed
        progress = True
        while progress:
            progress = False
            for k, e in enumerate(self.edges[: self.live]):
                for direction in (0, 1):
                    if not e.broken and self._track(k, direction):
                        progress = True
        return self.tracked - tracked, self.failed - failed

    def _pending(self, e: _Edge, direction: int) -> list[int]:
        """The solutions at the edge's source that it maps nowhere yet in one
        direction and has not tried, in index order."""
        src = e.ends(direction)[0]
        return [
            i for i in range(len(self.fibers[src]))
            if i not in e.maps[direction] and (direction, i) not in e.tried
        ]

    def _track(self, k: int, direction: int) -> bool:
        """Take the paths of every solution edge k maps nowhere yet in one
        direction, tracking the ones not tracked ahead (``_track_ahead``),
        and use them in index order; a break ends the edge there, and the
        paths after it count as never tracked.  Returns whether any path was
        pending."""
        e = self.edges[k]
        pending = self._pending(e, direction)
        if not pending:
            return False
        if any((k, direction, i) not in self.ahead for i in pending):
            self._track_ahead(k, direction, pending)
        results = [self.ahead.pop((k, direction, i)) for i in pending]
        dst = e.ends(direction)[1]
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

    def _track_ahead(self, k: int, direction: int, pending: list[int]) -> None:
        """One ``tracker.track_paths`` call, each row along its own edge's
        arc: the pending paths of edge k not yet tracked, then, in edge order,
        the pending direction-0 paths of every other unbroken grown edge and
        every path of each planned edge whose source node holds as many
        solutions as node 0, up to ``_CALL_ROWS`` rows unless edge k's are
        more.  The sweep of ``propagate`` takes those anyway: until an
        edge's direction-0 turn, only its own turns change what it maps or
        has tried, and fibers only grow, so its pending set only grows; the
        sweep after this one comes round to every edge, and every planned
        round runs."""
        rows = [(k, direction, i) for i in pending if (k, direction, i) not in self.ahead]
        own = len(rows)
        for k2, e2 in enumerate(self.edges):
            if len(rows) >= _CALL_ROWS:
                break
            if k2 == k or e2.broken:
                continue
            if k2 < self.live or len(self.fibers[e2.a]) == len(self.fibers[0]):
                rows += [(k2, 0, i) for i in self._pending(e2, 0) if (k2, 0, i) not in self.ahead]
        rows = rows[: max(own, _CALL_ROWS)]
        starts, p_from, p_to, gammas = [], [], [], []
        for k2, d, i in rows:
            e2 = self.edges[k2]
            a, b, g = e2.segment(d, self.params)
            starts.append(self.fibers[e2.ends(d)[0]][i])
            p_from.append(a)
            p_to.append(b)
            gammas.append(g)
        results = tracker.track_paths(
            self.system, np.array(starts), np.array(p_from), np.array(p_to), gammas
        )
        self.ahead.update(zip(rows, results))

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
        node 0 over the complete grown edges between complete nodes (as many
        solutions as node 0), without the identity or repeats."""
        d = len(self.fibers[0])
        complete = [
            e for e in self.edges[: self.live]
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
        if fiber_stable:
            # since_new_perm grows by at most one a round, and the run stops
            # only at _PERM_STALL_LIMIT, so these rounds are certain to run.
            certain = max(1, _PERM_STALL_LIMIT - since_new_perm)
            graph.plan_rounds(rng, min(certain, _MAX_LOOPS - rounds))

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
        edges=graph.live,
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
) -> tuple[list[Perm], list[int], FiberSample]:
    """The non-identity deck permutations (``check_deck_perms``), the base
    labels of the deck orbit of the base solution, and that orbit over the
    base parameters.  The labels are 0, then sigma(0) for each permutation,
    and must all be distinct; orbit point tau is base solution labels[tau],
    so deck k maps it to the orbit point labelled sigma_k(labels[tau])."""
    nontrivial = check_deck_perms(result, deck_perms)
    labels = [0] + [sigma[0] for sigma in nontrivial]
    if len(set(labels)) != len(labels):
        raise ValueError("deck permutations do not have distinct images of the base point")
    base = result.base
    return nontrivial, labels, FiberSample(base.params, base.solutions[labels])


def sample_orbit(
    system: System,
    result: MonodromyResult,
    deck_perms: Sequence[Perm],
    count: int,
    rng: np.random.Generator,
) -> list[FiberSample]:
    """Track the deck orbit of the base solution to ``count`` random targets.

    Each returned sample holds the orbit only, in the order of
    ``deck_orbit``: pair (solutions[0], solutions[j]) realizes
    (x, Psi_j(x)) for the j-th non-identity deck permutation, and deck k
    maps solutions[tau] to the solution at the position of
    sigma_k(labels[tau]).  Each sample must pass a round trip, in
    ``tracker.SAMPLE_ATTEMPTS`` rounds of one ``tracker.sample_fiber`` call
    for all ``count`` samples.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    _, _, orbit = deck_orbit(result, deck_perms)
    samples = tracker.sample_fiber(system, orbit, count, rng, retrace=True)
    if any(sample is None for sample in samples):
        raise MonodromyError(f"orbit sampling failed after {tracker.SAMPLE_ATTEMPTS} attempts")
    return samples
