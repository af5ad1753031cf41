import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_block_system
from decksym.permgrp import (
    PermutationGroup,
    centralizer_in_symmetric,
    compose,
    cycles_string,
    describe_group,
    group_order_capped,
    identity,
    inverse,
    is_permutation,
    is_transitive,
    minimal_block_systems,
)


def from_cycles(cycles, degree, one_based=True):
    """Reference: the permutation with the given cycles (labels from 1, or
    from 0 with ``one_based=False``)."""
    base = 1 if one_based else 0
    images = list(range(degree))
    for cyc in cycles:
        cyc = [c - base for c in cyc]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    p = tuple(images)
    assert is_permutation(p), "cycles do not define a permutation"
    return p

# Full group preserving the pair blocks {1,4},{2,5},{3,6} on 6 labels
# (S2 wr S3, order 48): block permutations plus one single flip.
WR23 = PermutationGroup(
    6,
    (
        from_cycles([[1, 2], [4, 5]], 6),
        from_cycles([[1, 2, 3], [4, 5, 6]], 6),
        from_cycles([[1, 4]], 6),
    ),
)

# Same block permutations but only the diagonal flip: the diagonal is
# invariant under conjugation by block permutations, so this generates a
# proper order-12 subgroup (S3 x Z2), not the full wreath product.
WR23_DIAGONAL = PermutationGroup(
    6,
    (
        from_cycles([[1, 2], [4, 5]], 6),
        from_cycles([[1, 2, 3], [4, 5, 6]], 6),
        from_cycles([[1, 4], [2, 5], [3, 6]], 6),
    ),
)


def brute_force_centralizer(group):
    out = []
    for images in itertools.permutations(range(group.degree)):
        if all(compose(images, g) == compose(g, images) for g in group.generators):
            out.append(images)
    return sorted(out)


def test_transitive_swap_on_two():
    assert is_transitive(PermutationGroup(2, ((1, 0),)))


def test_not_transitive_on_three():
    assert not is_transitive(PermutationGroup(3, ((1, 0, 2),)))


def test_wr23_transitive():
    assert is_transitive(WR23)


def test_group_order_wr23_is_48():
    assert group_order_capped(WR23, 10**5) == 48


def test_diagonal_flip_generates_proper_subgroup():
    assert group_order_capped(WR23_DIAGONAL, 10**5) == 12


def test_trivial_group_order():
    assert group_order_capped(PermutationGroup(4, ()), 10) == 1


def test_order_exceeds_cap():
    # S4 wr C8 on 32 labels: S4 on the first block of 4 (g1, g2) and an
    # 8-cycle of the blocks (g3); order (4!)^8 * 8 = 880 602 513 408 >> 1e6.
    blocks = [list(range(4 * k, 4 * k + 4)) for k in range(8)]
    g1 = from_cycles([blocks[0][:2]], 32, one_based=False)
    g2 = from_cycles([blocks[0]], 32, one_based=False)
    g3 = from_cycles([[blocks[k][i] for k in range(8)] for i in range(4)], 32, one_based=False)
    group = PermutationGroup(32, (g1, g2, g3))
    assert group_order_capped(group, 10**6) is None
    assert group_order_capped(group, 10**20) == 24**8 * 8


def test_centralizer_wr23():
    cent = centralizer_in_symmetric(WR23)
    assert len(cent) == 2
    assert from_cycles([[1, 4], [2, 5], [3, 6]], 6) in cent
    assert identity(6) in cent


def test_centralizer_of_full_symmetric_is_trivial():
    gens = (from_cycles([[1, 2]], 4), from_cycles([[1, 2, 3, 4]], 4))
    assert centralizer_in_symmetric(PermutationGroup(4, gens)) == [identity(4)]


def test_centralizer_of_cyclic_three_matches_brute_force():
    group = PermutationGroup(3, (from_cycles([[1, 2, 3]], 3),))
    got = centralizer_in_symmetric(group)
    assert got == brute_force_centralizer(group)
    assert len(got) == 3


def test_centralizer_matches_brute_force_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        gens = tuple(tuple(rng.permutation(d).tolist()) for _ in range(2))
        group = PermutationGroup(d, gens)
        if not is_transitive(group):
            continue
        assert centralizer_in_symmetric(group) == brute_force_centralizer(group)


def test_centralizer_requires_transitive():
    with pytest.raises(ValueError):
        centralizer_in_symmetric(PermutationGroup(3, ((1, 0, 2),)))


def test_centralizer_is_a_group_and_semiregular():
    cent = centralizer_in_symmetric(WR23)
    elems = set(cent)
    for a in cent:
        assert inverse(a) in elems
        for b in cent:
            assert compose(a, b) in elems
    assert len(cent) <= WR23.degree
    assert len({p[0] for p in cent}) == len(cent)


def test_blocks_wr23_pairs_only():
    systems = minimal_block_systems(WR23)
    as_sets = [tuple(sorted(tuple(sorted(b)) for b in part)) for part in systems]
    assert as_sets == [((0, 3), (1, 4), (2, 5))]
    for part in systems:
        assert is_block_system(WR23, part)


def test_blocks_diagonal_subgroup_has_both_shapes():
    systems = minimal_block_systems(WR23_DIAGONAL)
    as_sets = {tuple(sorted(tuple(sorted(b)) for b in part)) for part in systems}
    assert ((0, 1, 2), (3, 4, 5)) in as_sets
    assert ((0, 3), (1, 4), (2, 5)) in as_sets


def test_blocks_cyclic_eight_include_a_coarser_system():
    """One pair {0, alpha} generates each system; for Z8 the pair {0, 2}
    gives the two blocks of four, which the pairs of {0, 4} refine, so the
    list holds a system that is not minimal."""
    group = PermutationGroup(8, (from_cycles([list(range(1, 9))], 8),))
    systems = minimal_block_systems(group)
    assert systems == [
        (frozenset({0, 2, 4, 6}), frozenset({1, 3, 5, 7})),
        (frozenset({0, 4}), frozenset({1, 5}), frozenset({2, 6}), frozenset({3, 7})),
    ]
    coarse, fine = systems
    assert all(any(b <= c for c in coarse) for b in fine)


def test_blocks_full_symmetric_primitive():
    gens = (from_cycles([[1, 2]], 4), from_cycles([[1, 2, 3, 4]], 4))
    assert minimal_block_systems(PermutationGroup(4, gens)) == []


def test_blocks_cyclic_four_matches_brute_force():
    group = PermutationGroup(4, (from_cycles([[1, 2, 3, 4]], 4),))
    systems = minimal_block_systems(group)
    shapes = {tuple(sorted(len(b) for b in part)) for part in systems}
    assert (2, 2) in shapes
    # brute force: enumerate all 2+2 partitions and keep invariant ones
    brute = []
    labels = set(range(4))
    for pair in itertools.combinations(range(4), 2):
        part = (frozenset(pair), frozenset(labels - set(pair)))
        if is_block_system(group, part) and part not in brute:
            brute.append(part)
    found = {frozenset(part) for part in systems if len(part) == 2}
    assert found == {frozenset(p) for p in brute}


def test_cycles_string_round_trip():
    p = from_cycles([[1, 4], [2, 5], [3, 6]], 6)
    assert cycles_string(p) == "(1 4)(2 5)(3 6)"
    assert from_cycles([[1, 4], [2, 5], [3, 6]], 6) == p
    assert cycles_string(identity(5)) == "()"


def test_describe_groups():
    cent = centralizer_in_symmetric(WR23)
    assert describe_group(cent) == "Z2"
    z2z2 = [
        (0, 1, 2, 3),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
    ]
    assert describe_group(z2z2) == "Z2 x Z2"
    s3 = sorted(set(itertools.permutations(range(3))))
    assert describe_group(list(s3)) == "S3"
    assert describe_group([(0, 1, 2)]) == "trivial"


# --- property tests of the exact group layer against brute force ----------


def closure_order(group):
    """Reference order: breadth-first closure over all group elements."""
    elements = {identity(group.degree)}
    frontier = list(elements)
    while frontier:
        nxt = []
        for el in frontier:
            for g in group.generators:
                p = compose(g, el)
                if p not in elements:
                    elements.add(p)
                    nxt.append(p)
        frontier = nxt
    return len(elements)


@st.composite
def groups(draw, max_degree, min_degree=0, min_gens=0):
    d = draw(st.integers(min_degree, max_degree))
    perm = st.permutations(range(d)).map(tuple)
    gens = draw(st.lists(perm, min_size=min_gens, max_size=3))
    return PermutationGroup(d, tuple(gens))


def transitive_groups(max_degree):
    return groups(max_degree, min_degree=1, min_gens=1).filter(is_transitive)


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1 :]
        yield [[first]] + part


def invariant_partitions(group):
    """Every partition of the labels that each generator maps onto itself."""
    out = []
    for part in set_partitions(list(range(group.degree))):
        blocks = {frozenset(b) for b in part}
        if all(frozenset(g[v] for v in b) in blocks for g in group.generators for b in blocks):
            out.append(tuple(sorted(blocks, key=sorted)))
    return out


@settings(max_examples=300, deadline=None)
@given(groups(7))
def test_order_matches_closure(group):
    order = closure_order(group)
    assert group_order_capped(group, order) == order
    assert group_order_capped(group, order + 1) == order
    assert group_order_capped(group, 1) == (1 if order == 1 else None)
    if order > 1:
        assert group_order_capped(group, order - 1) is None


@settings(max_examples=150, deadline=None)
@given(transitive_groups(6))
def test_centralizer_matches_brute_force_property(group):
    assert centralizer_in_symmetric(group) == brute_force_centralizer(group)


@settings(max_examples=150, deadline=None)
@given(transitive_groups(6))
def test_block_systems_match_brute_force(group):
    d = group.degree
    invariant = invariant_partitions(group)
    # for each alpha, the finest invariant partition with 0 and alpha in one
    # block; it refines every other such partition
    expected = []
    for alpha in range(1, d):
        through = [p for p in invariant if any({0, alpha} <= b for b in p)]
        finest = max(through, key=len)
        assert all(
            all(any(b <= c for c in coarser) for b in finest) for coarser in through
        )
        if len(finest) not in (1, d) and finest not in expected:
            expected.append(finest)
    assert minimal_block_systems(group) == expected
    nontrivial = [p for p in invariant if len(p) not in (1, d)]
    assert (minimal_block_systems(group) == []) == (nontrivial == [])
