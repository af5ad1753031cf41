from collections import Counter

import numpy as np
import pytest

from conftest import (
    EX57_TEXT,
    assert_cycles_retrace,
    ex57_seed,
    fixture_system,
    max_residual,
    per_edge_track,
    record_paths,
    run_fixture_monodromy,
    track_paths_one_by_one,
)
from decksym import monodromy, tracker
from decksym.expr import parse_seed_pair, parse_system
from decksym.fixtures import EXPECTED_DEGREE, seed_path
from decksym.monodromy import (
    MonodromyError,
    _Graph,
    run_monodromy,
    sample_orbit,
    seed_from_linear_params,
)
from decksym.permgrp import (
    centralizer_in_symmetric,
    group_order_capped,
    identity,
    is_permutation,
    is_transitive,
)

EX41 = parse_system("unknowns x; parameters p; equations x^2 + p*x + 1;")
EX42 = parse_system("unknowns x, y; parameters p; equations x^2 + x + p; x + y + p;")
SEXTIC = parse_system(
    "unknowns x; parameters a, b, c, d;"
    "equations a*x^6 + b*x^5 + c*x^4 + d*x^3 + c*x^2 + b*x + a;"
)
Z8_TEXT = "unknowns x; parameters p; equations x^8 + p*x^4 + 1;"
NONLINEAR_P = parse_system("unknowns x; parameters p; equations x^2 + p^2;")


def mono_ex41(seed=0):
    rng = np.random.default_rng(seed)
    pair = seed_from_linear_params(EX41, np.array([2.0 + 0j]), rng)
    return run_monodromy(EX41, pair, rng, expected_degree=2), rng


def mono_sextic(monkeypatch=None, wrap=None):
    """run_monodromy on the sextic at rng seed 3, optionally with every path
    that ``tracker.track_paths`` tracks wrapped, one call per path in index
    order: wrap(real, system, x, p_from, p_to, gamma=gamma) -> PathResult,
    where real is ``tracker.track_path``."""
    if wrap is not None:
        real = tracker.track_path
        track_paths_one_by_one(
            monkeypatch, lambda *args, **kwargs: wrap(real, *args, **kwargs)
        )
    rng = np.random.default_rng(3)
    pair = seed_from_linear_params(SEXTIC, rng=rng)
    return run_monodromy(SEXTIC, pair, rng, expected_degree=6)


FAILED = tracker.PathResult("singular", None, 0, np.inf)


def test_seed_oracle_hand_computed():
    rng = np.random.default_rng(0)
    x, p = seed_from_linear_params(EX41, np.array([2.0 + 0j]), rng)
    assert abs(p[0] + 2.5) < 1e-12


def test_seed_oracle_consistent_point_ex42():
    x, p = seed_from_linear_params(EX42, np.array([1.0 + 0j, 1.0 + 0j]))
    assert abs(p[0] + 2.0) < 1e-10


def test_seed_oracle_random_ex42_fails_residual():
    # generic (x, y) cannot satisfy both equations with a single p
    with pytest.raises(MonodromyError, match="residual"):
        seed_from_linear_params(EX42, rng=np.random.default_rng(1))


@pytest.mark.parametrize("fixture", ["ex5_7", "p3p_quasihom"])
def test_seed_oracle_random_rejects_parameter_free_equation(fixture):
    """No p satisfies a parameter-free equation at a random x, so random mode
    names the equation and asks for a seed pair before drawing any point."""
    system = fixture_system(fixture)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(MonodromyError, match=r"equation 1 \(.*\) has no parameter.*--seed-pair"):
        seed_from_linear_params(system, rng=rng)
    assert rng.bit_generator.state == state


def test_seed_oracle_rejects_nonlinear_parameters():
    with pytest.raises(MonodromyError, match="affine-linear"):
        seed_from_linear_params(NONLINEAR_P, rng=np.random.default_rng(0))


def test_monodromy_ex41_full_s2():
    result, _ = mono_ex41()
    assert result.degree == 2
    group = result.group()
    assert is_transitive(group)
    assert group_order_capped(group, 100) == 2
    assert max_residual(EX41, result.base) <= tracker.PATH_TOL


def test_monodromy_permutations_are_bijections_and_replayable():
    result, _ = mono_ex41()
    for perm in result.permutations:
        assert is_permutation(perm)
    assert result.loop_log
    assert_cycles_retrace(EX41, result)


def test_monodromy_sextic_degree_and_group_order():
    result = mono_sextic()
    assert result.degree == 6
    assert group_order_capped(result.group(), 10**4) == 48
    cent = centralizer_in_symmetric(result.group())
    assert len(cent) == 2


def test_sample_orbit_vieta_pairs():
    result, rng = mono_ex41()
    deck = [p for p in centralizer_in_symmetric(result.group()) if p != identity(2)]
    assert deck == [(1, 0)]
    samples = sample_orbit(EX41, result, deck, 5, rng)
    assert len(samples) == 5
    for s in samples:
        x, ximg = s.solutions[0][0], s.solutions[1][0]
        assert abs(x * ximg - 1.0) < 1e-7  # product of the two roots is 1


def test_sample_orbit_identity_only():
    result, rng = mono_ex41()
    samples = sample_orbit(EX41, result, [identity(2)], 2, rng)
    for s in samples:
        assert len(s.solutions) == 1
        assert max_residual(EX41, s) <= tracker.PATH_TOL


def test_sample_orbit_rejects_non_centralizing_perm():
    result, rng = mono_ex41()
    bogus = (0, 1, 2)
    with pytest.raises(ValueError):
        sample_orbit(EX41, result, [bogus], 1, rng)


def test_fiber_closure_under_permutations():
    result, _ = mono_ex41()
    sols = result.base.solutions
    for perm in result.permutations:
        permuted = [sols[perm[i]] for i in range(len(sols))]
        for a in permuted:
            assert min(float(np.abs(a - b).max()) for b in sols) < 1e-6


def test_sample_orbit_fails_after_three_draws(monkeypatch):
    """Fault injection: when no orbit tracks, sampling stops with an error
    after three rounds of target and gamma draws, one per sample a round."""
    result, _ = mono_ex41()
    calls = []

    def fail(system, fibers, targets, gammas):
        calls.append(1)
        return [None] * len(fibers)

    monkeypatch.setattr(tracker, "track_fiber", fail)
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    with pytest.raises(MonodromyError, match="orbit sampling failed after 3 attempts"):
        sample_orbit(EX41, result, [(1, 0)], 2, rng)
    assert len(calls) == 3
    for _ in range(3 * 2):
        twin.standard_normal(2)
        twin.random()
    assert rng.random() == twin.random()


def test_every_path_failing_raises_persistent_failure(monkeypatch):
    """Fault injection: when no path tracks, the run stops with an error
    after five rounds that tracked a path, instead of running every round."""
    calls = []

    def fail(real, *args, **kwargs):
        calls.append(1)
        return FAILED

    with pytest.raises(MonodromyError, match="persistent path failures"):
        mono_sextic(monkeypatch, fail)
    assert len(calls) == 5  # one path in each of rounds 1, 2, 3, 5 and 8


def test_failed_forward_path_is_completed_from_the_other_end(monkeypatch):
    """Fault injection: the first path (the seed along the first edge) fails.
    The edge is completed by tracking its arc backwards from the far node,
    and the group is the same as without the failure."""
    clean = mono_sextic()
    calls = []

    def fail_first(real, system, x, p_from, p_to, gamma=None, **kwargs):
        r = FAILED if not calls else real(system, x, p_from, p_to, gamma=gamma, **kwargs)
        calls.append((x, p_from, p_to, gamma, r))
        return r

    result = mono_sextic(monkeypatch, fail_first)
    x0, p_from, p_to, gamma, _ = calls[0]
    back = [
        r for _, a, b, g, r in calls[1:]
        if np.array_equal(a, p_to) and np.array_equal(b, p_from) and g == 1.0 / gamma
    ]
    assert any(r.success and np.abs(r.endpoint - x0).max() <= tracker.MATCH_TOL for r in back)
    assert result.paths_failed >= 1
    assert group_order_capped(result.group(), 10**4) == group_order_capped(clean.group(), 10**4) == 48


def test_locate_matches_polishes_and_appends():
    """Over p = -2.5 the roots of x^2 + p x + 1 are 2 and 1/2; the node's
    fiber starts as [2]."""
    graph = _Graph(EX41, np.array([-2.5 + 0j]), np.array([2.0 + 0j]))
    assert graph._locate(0, np.array([2.0 + 1e-7])) == 0
    # Between MATCH_TOL and 100 times it: ambiguous, and the fiber is unchanged.
    assert graph._locate(0, np.array([2.0 + 1e-5])) is None
    # New, but the polish lands on the known root.
    assert graph._locate(0, np.array([2.0 + 1e-3j])) == 0
    fiber = graph.fibers[0]
    assert fiber.shape == (1, 1) and fiber[0].tobytes() == np.array([2.0 + 0j]).tobytes()
    # New, and still new once polished: appended as the root 1/2.
    assert graph._locate(0, np.array([0.5 + 1e-3])) == 1
    fiber = graph.fibers[0]
    assert fiber.shape == (2, 1) and abs(fiber[1][0] - 0.5) <= 1e-9
    assert graph._locate(0, np.array([0.5 - 1e-8j])) == 1
    # A polish that fails (x = 5/4 is the critical point) gives None.
    assert graph._locate(0, np.array([1.25 + 0j])) is None
    assert len(graph.fibers[0]) == 2


def test_sheet_jump_onto_a_matched_solution_breaks_the_edge(monkeypatch):
    """Fault injection: one path lands where an earlier path along the same
    arc landed, as after a sheet jump.  The edge breaks, so no generator
    crosses it: every cycle still retraces, and the group is unchanged."""
    ends: dict = {}
    jumped = []

    def jump_once(real, system, x, p_from, p_to, gamma=None, **kwargs):
        arc = (p_from.tobytes(), p_to.tobytes(), gamma)
        earlier = ends.setdefault(arc, [])
        if not jumped and len(earlier) == 3:
            jumped.append(arc)
            return earlier[0]
        r = real(system, x, p_from, p_to, gamma=gamma, **kwargs)
        if r.success:
            earlier.append(r)
        return r

    result = mono_sextic(monkeypatch, jump_once)
    monkeypatch.undo()
    assert jumped
    assert group_order_capped(result.group(), 10**4) == 48
    assert_cycles_retrace(SEXTIC, result)


def test_jump_inside_a_lockstep_edge_breaks_it_in_index_order(monkeypatch):
    """Fault injection into the results of ``track_paths`` calls: in the
    first edge direction (rows sharing one arc) that one call holds at least
    three paths of, and whose first path there succeeds, the third lands
    where the first did.  The results are taken in index order, so the edge
    breaks at that path, and the edge's paths after it, in this call or
    another, count as never tracked; the run is the same whether the paths
    are tracked in lockstep or one by one."""
    real = tracker.track_paths

    def run(one_by_one):
        arcs = []  # the arc of every path tracked, in call order
        jumped = []  # the arc of the jump, and the jumped path's index among its paths

        def jump_once(system, starts, p_from, p_to, gammas):
            count = len(starts)
            p_from = np.broadcast_to(p_from, (count, np.shape(p_from)[-1]))
            p_to = np.broadcast_to(p_to, p_from.shape)
            gammas = np.broadcast_to(gammas, (count,)).tolist()
            if one_by_one:
                results = [
                    tracker.track_path(system, x, p_from[i], p_to[i], gamma=gammas[i])
                    for i, x in enumerate(starts)
                ]
            else:
                results = real(system, starts, p_from, p_to, gammas)
            keys = [(a.tobytes(), b.tobytes(), g) for a, b, g in zip(p_from, p_to, gammas)]
            for key in dict.fromkeys(keys) if not jumped else ():
                rows = [i for i, k in enumerate(keys) if k == key]
                if len(rows) >= 3 and results[rows[0]].success:
                    results[rows[2]] = results[rows[0]]
                    jumped.append((key, arcs.count(key) + 2))
                    break
            arcs.extend(keys)
            return results

        monkeypatch.setattr(tracker, "track_paths", jump_once)
        result = mono_sextic()
        monkeypatch.undo()
        key, index = jumped[0]
        assert result.paths_tracked == len(arcs) - (arcs.count(key) - index - 1)
        assert group_order_capped(result.group(), 10**4) == 48
        assert_cycles_retrace(SEXTIC, result)
        return (result.paths_tracked, result.paths_failed, result.edges, result.permutations,
                [x.tobytes() for x in result.base.solutions])

    assert run(one_by_one=False) == run(one_by_one=True)


def test_no_solution_is_tracked_twice_along_one_edge(monkeypatch):
    """Each (edge, direction, solution) is tracked at most once: no path
    repeats its start point, its two end parameters and its gamma."""
    seen = []

    def record(real, system, x, p_from, p_to, gamma=None, **kwargs):
        seen.append((x.tobytes(), p_from.tobytes(), p_to.tobytes(), gamma))
        return real(system, x, p_from, p_to, gamma=gamma, **kwargs)

    result = mono_sextic(monkeypatch, record)
    assert len(seen) == result.paths_tracked
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("seed", [33, 45])
def test_generators_are_distinct_and_never_the_identity(seed):
    """ex5_7 at two seeds where re-tracking every solution around fresh
    triangles records the identity and, through a sheet jump, a group of
    order 48; the true order is 6."""
    system = parse_system(EX57_TEXT)
    result = run_monodromy(system, ex57_seed(), np.random.default_rng(seed), expected_degree=6)
    perms = result.permutations
    assert perms and identity(6) not in perms
    assert len(set(perms)) == len(perms)
    assert group_order_capped(result.group(), 10**4) == 6
    assert_cycles_retrace(system, result)


def test_deterministic_given_seed():
    r1, _ = mono_ex41(seed=7)
    r2, _ = mono_ex41(seed=7)
    assert r1.permutations == r2.permutations
    assert np.allclose(
        np.array(r1.base.solutions), np.array(r2.base.solutions), atol=1e-10
    )


@pytest.mark.parametrize("seed", [34, 58])
def test_sextic_does_not_stop_below_the_expected_degree(seed):
    """At these seeds every node first holds the same two solutions {x, 1/x}
    for more than ``_STALL_LIMIT`` rounds; with an expected degree given, the
    fiber is not stable until it is reached."""
    from decksym.expr import parse_seed_pair
    from decksym.fixtures import seed_path

    system = fixture_system("sextic")
    pair = parse_seed_pair(seed_path("sextic").read_text())
    result = run_monodromy(system, pair, np.random.default_rng(seed), expected_degree=6)
    assert result.degree == 6
    assert group_order_capped(result.group(), 10**4) == 48
    assert_cycles_retrace(system, result)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "two paths of one edge swap sheets at this seed, so a generator's"
        " cycle does not retrace; the group is still right"
    ),
)
def test_sextic_seed_3_generators_retrace():
    from decksym.expr import parse_seed_pair
    from decksym.fixtures import seed_path

    system = fixture_system("sextic")
    pair = parse_seed_pair(seed_path("sextic").read_text())
    result = run_monodromy(system, pair, np.random.default_rng(3), expected_degree=6)
    assert_cycles_retrace(system, result)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "x^8 + p x^4 + 1 seeded by the oracle at rng seed 5 stalls at 2 of its"
        " 8 solutions without an expected degree; the cause is not established"
    ),
)
def test_z8_oracle_seed_5_finds_every_solution():
    _, result, _ = run_fixture_monodromy(Z8_TEXT, None, 5)
    assert result.degree == 8


def test_wrong_expected_degree_fails_after_the_round_limit():
    """ex4_1 has 2 solutions: asked for 3, the run keeps looking until
    ``_MAX_LOOPS`` rounds and then fails."""
    rng = np.random.default_rng(0)
    pair = seed_from_linear_params(EX41, np.array([2.0 + 0j]), rng)
    with pytest.raises(MonodromyError, match="found 2 solutions, expected 3"):
        run_monodromy(EX41, pair, rng, expected_degree=3)


def run_recorded(monkeypatch, name, seed, reference):
    """run_monodromy on a bundled fixture with its seed pair at an rng seed,
    with the paths of every ``tracker.track_paths`` call recorded, and, when
    ``reference`` is set, with the per-edge sweep of ``tests/conftest.py`` as
    ``_Graph._track`` and no rounds planned ahead, so that ``grow`` draws
    each round at its start and no planned edge waits behind ``live``; the
    result, the paths, the call sizes and the rng's next draw."""
    calls = []
    real = tracker.track_paths

    def counting(system, starts, *args):
        calls.append(len(starts))
        return real(system, starts, *args)

    monkeypatch.setattr(tracker, "track_paths", counting)
    paths = record_paths(monkeypatch)
    if reference:
        monkeypatch.setattr(_Graph, "_track", per_edge_track)
        monkeypatch.setattr(_Graph, "plan_rounds", lambda graph, rng, rounds: None)
    pair = parse_seed_pair(seed_path(name).read_text())
    rng = np.random.default_rng(seed)
    result = run_monodromy(fixture_system(name), pair, rng, expected_degree=EXPECTED_DEGREE[name])
    monkeypatch.undo()
    return result, paths, calls, rng.random()


def loop_bits(records):
    """Each loop record's permutation and arcs, arrays as bytes."""
    return [
        (record.permutation, [(a.tobytes(), b.tobytes(), g) for a, b, g in record.segments])
        for record in records
    ]


def run_fields(result):
    """Every field of a monodromy result, arrays as bytes."""
    return (
        result.base.params.tobytes(),
        result.base.solutions.tobytes(),
        result.permutations,
        result.loop_count,
        result.edges,
        result.paths_tracked,
        result.paths_failed,
        loop_bits(result.loop_log),
    )


@pytest.mark.parametrize(
    "name, seed",
    [(name, seed) for name in ("ex4_2", "sextic", "ex5_7") for seed in range(4)]
    + [("p3p_quasihom", 0), ("triangular", 0), ("triangular", 1)],
)
def test_tracking_ahead_is_bit_identical_to_the_per_edge_sweep(monkeypatch, name, seed):
    """Edges track ahead the direction-0 paths of the other edges and of the
    edges of the rounds planned ahead: the same result, bit for bit, the
    same paths (start, arc and gamma) and the same next rng draw as tracking
    each edge direction's own paths at its turn, in no more calls, none
    larger than ``_CALL_ROWS`` rows or a turn's own paths (at most d)."""
    got, paths, calls, got_next = run_recorded(monkeypatch, name, seed, reference=False)
    want, want_paths, want_calls, want_next = run_recorded(monkeypatch, name, seed, reference=True)
    assert run_fields(got) == run_fields(want)
    assert Counter(paths) == Counter(want_paths)
    assert got_next == want_next
    assert len(calls) <= len(want_calls)
    assert max(calls) <= max(monodromy._CALL_ROWS, EXPECTED_DEGREE[name])


def test_p3p_edges_go_out_in_fewer_calls(monkeypatch):
    """P3P at rng seed 0: the same 120 paths (115 counted) in 22 calls
    instead of one per edge direction, 40; the rounds that confirm the
    group go out with the calls of the rounds before them."""
    got, paths, calls, got_next = run_recorded(monkeypatch, "p3p_quasihom", 0, reference=False)
    want, want_paths, want_calls, want_next = run_recorded(
        monkeypatch, "p3p_quasihom", 0, reference=True
    )
    assert run_fields(got) == run_fields(want)
    assert Counter(paths) == Counter(want_paths)
    assert got_next == want_next
    assert (len(paths), got.paths_tracked) == (120, 115)
    assert (len(calls), len(want_calls)) == (22, 40)


@pytest.mark.parametrize("before", [0, 2, 5])
def test_planned_rounds_are_bit_identical_to_the_rounds_grow_draws(before):
    """After ``before`` rounds, rounds planned ahead (``_Graph.plan_rounds``:
    1, 3 or 8 at once, or 1 and then 3 more while the first is pending) grow
    the graph as rounds that each draw at their start: the same nodes,
    parameters, edges and gammas, bit for bit, and the same next rng draw.
    Each planned edge keeps the index it was drawn at.  From an empty graph
    eight planned rounds add nodes 1 to 5 and join the planned nodes 2 and
    3; after five rounds the next round joins nodes 2 and 4, so the second
    plan of 1 and 3 is drawn while that joining round is pending; planning
    fewer rounds than are planned draws nothing."""
    for plans in [(1,), (3,), (8,), (1, 3)]:
        planned, drawn = (_Graph(SEXTIC, np.zeros(4, complex), np.zeros(1, complex)) for _ in range(2))
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(before):
            planned.grow(rng)
            drawn.grow(twin)
        for rounds in plans + (1,):
            planned.plan_rounds(rng, rounds)
        rounds = max(plans)
        assert len(planned.plan) == rounds
        future = list(enumerate(planned.edges[planned.live :], planned.live))
        for _ in range(rounds):
            planned.grow(rng)
            drawn.grow(twin)
        assert not planned.plan and planned.live == len(planned.edges)
        assert all(planned.edges[k] is e for k, e in future)
        assert [(e.a, e.b, np.complex128(e.gamma).tobytes()) for e in planned.edges] == [
            (e.a, e.b, np.complex128(e.gamma).tobytes()) for e in drawn.edges
        ]
        assert [p.tobytes() for p in planned.params] == [p.tobytes() for p in drawn.params]
        assert len(planned.fibers) == len(drawn.fibers) == len(planned.params)
        if (before, rounds) == (0, 8):
            assert len(planned.params) == 6 and (2, 3) in [(e.a, e.b) for _, e in future]
        if before == 5:
            assert (future[0][1].a, future[0][1].b) == (2, 4)
        assert rng.random() == twin.random()


def test_planned_edge_paths_are_bit_identical_at_the_index_grow_gives():
    """x^2 + p x + 1 over p = -2.5, node 0 holding both roots, three rounds
    planned: their nodes and edges sit in the graph at once, none grown.
    The first round's call tracks edge 0's own paths and every path of the
    planned edges that leave node 0 (1 and 3), not those that leave node 1
    (2 and 4), whose fiber is empty; each path tracked ahead is
    bit-identical to ``track_path`` along its edge from node 0."""
    graph = _Graph(EX41, np.array([-2.5 + 0j]), np.array([2.0 + 0j]))
    graph.fibers[0] = np.array([[2.0 + 0j], [0.5 + 0j]])
    rng = np.random.default_rng(1)
    graph.plan_rounds(rng, 3)
    assert [(e.a, e.b) for e in graph.edges] == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]
    assert (graph.live, len(graph.params), list(graph.plan)) == (0, 4, [1, 3, 5])
    graph.grow(rng)
    graph._track_ahead(0, 0, [0, 1])
    assert sorted(graph.ahead) == [(k, 0, i) for k in (0, 1, 3) for i in (0, 1)]
    for (k, direction, i), got in graph.ahead.items():
        p_from, p_to, gamma = graph.edges[k].segment(direction, graph.params)
        want = tracker.track_path(EX41, graph.fibers[0][i], p_from, p_to, gamma=gamma)
        assert (got.status, got.steps_taken) == (want.status, want.steps_taken)
        assert got.endpoint.tobytes() == want.endpoint.tobytes()


def test_planned_rounds_stay_invisible_and_bit_identical_until_grown(monkeypatch):
    """x^2 + p x + 1 over p = -2.5, node 0 holding both roots, after two
    rounds and with three more planned: ``propagate`` takes no planned
    edge's path (those tracked ahead wait in ``ahead``), ``cycles()`` reads
    the grown edges only, and the planned nodes 3 and 4 keep empty fibers;
    all as on a twin graph that planned nothing.  The next round fills node
    3 and leaves node 4 empty.  ``run_monodromy`` with one round planned
    past those its stop rule guarantees ends with that round planned and
    gives the same result, bit for bit, its edge count the grown edges."""
    graph, twin = (_Graph(EX41, np.array([-2.5 + 0j]), np.array([2.0 + 0j])) for _ in range(2))
    rng, twin_rng = np.random.default_rng(0), np.random.default_rng(0)
    for g, r in ((graph, rng), (twin, twin_rng)):
        g.fibers[0] = np.array([[2.0 + 0j], [0.5 + 0j]])
        g.grow(r)
        g.grow(r)
    graph.plan_rounds(rng, 3)
    for grown, empty in ((3, (3, 4)), (5, (4,))):
        assert graph.propagate() == twin.propagate()
        assert (graph.live, len(graph.edges)) == (grown, 8)
        assert all(not e.maps[0] and not e.maps[1] and not e.tried for e in graph.edges[grown:])
        assert graph.ahead and all(k >= grown for k, _, _ in graph.ahead)
        assert [e.maps for e in graph.edges[:grown]] == [e.maps for e in twin.edges]
        assert [f.tobytes() for f in graph.fibers[: len(twin.fibers)]] == [
            f.tobytes() for f in twin.fibers
        ]
        assert all(len(graph.fibers[v]) == 0 for v in empty)
        assert loop_bits(graph.cycles()) == loop_bits(twin.cycles()) != []
        graph.grow(rng)
        twin.grow(twin_rng)

    graphs = []
    plan_rounds = _Graph.plan_rounds

    def plan_one_more(graph, rng, rounds):
        graphs.append(graph)
        plan_rounds(graph, rng, rounds + 1)

    pair = parse_seed_pair(seed_path("sextic").read_text())
    want = run_monodromy(fixture_system("sextic"), pair, np.random.default_rng(0), expected_degree=6)
    monkeypatch.setattr(_Graph, "plan_rounds", plan_one_more)
    got = run_monodromy(fixture_system("sextic"), pair, np.random.default_rng(0), expected_degree=6)
    assert run_fields(got) == run_fields(want)
    assert graphs[-1].plan and got.edges == graphs[-1].live < len(graphs[-1].edges)
