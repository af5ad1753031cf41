"""Permutation-group computations on fiber labels.

Permutations are image tuples on 0..d-1: ``sigma[i]`` is where label i goes.
Composition is (p * q)(i) = p(q(i)).  The key operation is the centralizer of
a transitive group in the full symmetric group: it is semiregular, so each of
its elements is determined by the image of label 0 and can be reconstructed
by propagating along a Schreier tree instead of enumerating the group.

The group order comes from a stabilizer chain built by the deterministic
incremental Schreier-Sims algorithm (Sims 1970; Seress, *Permutation Group
Algorithms*, 2003, ch. 4): a base b_0, b_1, ..., per level the strong
generators fixing b_0..b_{i-1}, and a transversal of the basic orbit of b_i
under them.  Every Schreier generator of a level is sifted through the levels
below it; a nonidentity residue becomes a new strong generator (and a new
base point if it fixes every current one).  When all of them sift to the
identity, |G| is the product of the basic-orbit lengths.  Each partial orbit
lies inside the true basic orbit, so the running product is a lower bound on
|G| and the computation stops as soon as it exceeds the caller's cap; no
group element is ever enumerated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd, prod
from typing import Sequence

Perm = tuple[int, ...]


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply q first, then p."""
    return tuple(map(p.__getitem__, q))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def is_permutation(p: Sequence[int]) -> bool:
    return sorted(p) == list(range(len(p)))


def order_of(p: Perm) -> int:
    seen = [False] * len(p)
    result = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        result = _lcm(result, length)
    return result


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def cycles_string(p: Perm) -> str:
    """One-based cycle notation, e.g. '(1 4)(2 5)(3 6)'; identity renders as
    '()'."""
    seen = set()
    out = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            seen.add(i)
            continue
        cyc = [i]
        j = p[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = p[j]
        seen.add(i)
        out.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(out) if out else "()"


@dataclass(frozen=True)
class PermutationGroup:
    degree: int
    generators: tuple[Perm, ...]

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.degree or not is_permutation(g):
                raise ValueError(f"bad generator {g} for degree {self.degree}")


def orbit(group: PermutationGroup, start: int) -> set[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for g in group.generators:
            w = g[v]
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def is_transitive(group: PermutationGroup) -> bool:
    if group.degree == 0:
        return True
    if not group.generators:
        return group.degree == 1
    return len(orbit(group, 0)) == group.degree


def group_order_capped(group: PermutationGroup, cap: int) -> int | None:
    """Exact order of the generated group if it is at most ``cap``, else None.

    Deterministic incremental Schreier-Sims: see the module docstring.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    ident = identity(group.degree)
    top = [g for g in group.generators if g != ident]
    if not top:
        return 1
    base: list[int] = []
    gens: list[list[Perm]] = []  # gens[i]: strong generators fixing base[:i]
    orbits: list[list[int]] = []  # orbits[i]: basic orbit of base[i], in discovery order
    trans: list[dict[int, tuple[Perm, Perm]]] = []  # trans[i][x] = (u, u^-1), u(base[i]) = x
    done: list[set[tuple[int, int]]] = []  # (orbit point, generator index) already sifted

    def new_level(g: Perm) -> None:
        b = next(i for i, j in enumerate(g) if i != j)
        base.append(b)
        gens.append([])
        orbits.append([b])
        trans.append({b: (ident, ident)})
        done.append(set())

    def add_generator(level: int, g: Perm) -> None:
        """Append g to gens[level] and extend that basic orbit and transversal."""
        gens[level].append(g)
        orbit, tr, old = orbits[level], trans[level], len(orbits[level])
        k = 0
        while k < len(orbit):
            x = orbit[k]
            u = tr[x][0]
            for s in gens[level] if k >= old else (g,):
                y = s[x]
                if y not in tr:
                    v = compose(s, u)
                    tr[y] = (v, inverse(v))
                    orbit.append(y)
            k += 1

    def sift(h: Perm, level: int) -> tuple[Perm, int]:
        for k in range(level, len(base)):
            pair = trans[k].get(h[base[k]])
            if pair is None:
                return h, k
            h = compose(pair[1], h)
        return h, len(base)

    def order() -> int:
        return prod(len(orbit) for orbit in orbits)

    new_level(top[0])
    for g in top:
        add_generator(0, g)
    if order() > cap:
        return None
    i = 0
    while i >= 0:
        residue = None
        for x in orbits[i]:
            u_x = trans[i][x][0]
            for gi, s in enumerate(gens[i]):
                if (x, gi) in done[i]:
                    continue
                done[i].add((x, gi))
                h = compose(trans[i][s[x]][1], compose(s, u_x))
                h, j = sift(h, i + 1)
                if h != ident:
                    residue = h, j
                    break
            if residue is not None:
                break
        if residue is None:
            i -= 1
            continue
        h, j = residue
        if j == len(base):
            new_level(h)
        for level in range(i + 1, j + 1):
            add_generator(level, h)
        if order() > cap:
            return None
        i = j
    return order()


def _schreier_tree(group: PermutationGroup) -> tuple[list[int], list[tuple[int, Perm] | None]]:
    """Breadth-first tree over the orbit of 0: tree[v] = (parent, generator).

    The visit order comes first; it lists every parent before its children.
    """
    tree: list[tuple[int, Perm] | None] = [None] * group.degree
    visited = [0]
    queue = deque(visited)
    while queue:
        v = queue.popleft()
        for g in group.generators:
            w = g[v]
            if w != 0 and tree[w] is None:
                tree[w] = (v, g)
                visited.append(w)
                queue.append(w)
    return visited, tree


def centralizer_in_symmetric(group: PermutationGroup) -> list[Perm]:
    """All elements of S_d commuting with every generator of a transitive group.

    For each candidate image c of label 0, the rest of sigma is forced by
    sigma(g(v)) = g(sigma(v)) along the Schreier tree, filled in the tree's
    visit order; the candidate survives if the filled-in map is a permutation
    commuting with all generators.
    The output always contains the identity and has at most d elements.
    """
    if not is_transitive(group):
        raise ValueError("centralizer computation requires a transitive group")
    d = group.degree
    order, tree = _schreier_tree(group)
    out: list[Perm] = []
    for c in range(d):
        sigma = [-1] * d
        sigma[0] = c
        for v in order[1:]:
            parent, g = tree[v]  # type: ignore[misc]
            sigma[v] = g[sigma[parent]]
        if not is_permutation(sigma):
            continue
        cand = tuple(sigma)
        if all(compose(cand, g) == compose(g, cand) for g in group.generators):
            out.append(cand)
    out.sort()
    return out


def minimal_block_containing(group: PermutationGroup, alpha: int) -> tuple[frozenset, ...]:
    """Finest block system whose block through 0 contains alpha (Atkinson).

    Union-find refinement: merge 0 with alpha, then close under the
    generators until every generator maps classes onto classes.
    """
    d = group.degree
    parent = list(range(d))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[max(rx, ry)] = min(rx, ry)
        return True

    queue = [(0, alpha)]
    union(0, alpha)
    while queue:
        x, y = queue.pop()
        for g in group.generators:
            if union(g[x], g[y]):
                queue.append((g[x], g[y]))
    classes: dict[int, set[int]] = {}
    for v in range(d):
        classes.setdefault(find(v), set()).add(v)
    return tuple(sorted((frozenset(c) for c in classes.values()), key=sorted))


def minimal_block_systems(group: PermutationGroup) -> list[tuple[frozenset, ...]]:
    """The distinct nontrivial block systems that one pair {0, alpha}
    generates, by alpha: every minimal one, and coarser ones (for Z8, both
    {0,2,4,6}|{1,3,5,7} and its refinement into pairs).  Empty iff primitive."""
    if not is_transitive(group):
        raise ValueError("block systems require a transitive group")
    d = group.degree
    systems = []
    seen = set()
    for alpha in range(1, d):
        part = minimal_block_containing(group, alpha)
        if len(part) in (1, d):
            continue
        if part not in seen:
            seen.add(part)
            systems.append(part)
    return systems


def describe_group(elements: Sequence[Perm]) -> str:
    """Isomorphism-type label from elementary invariants (order, abelianness,
    element orders); exact for the small groups that actually occur here."""
    n = len(elements)
    if n == 0:
        return "trivial"
    if n == 1:
        return "trivial"
    abelian = all(
        compose(a, b) == compose(b, a) for i, a in enumerate(elements) for b in elements[i + 1 :]
    )
    orders = sorted(order_of(p) for p in elements)
    if abelian:
        if all(o <= 2 for o in orders):
            k = n.bit_length() - 1
            if 2**k == n:
                return "Z2" if n == 2 else " x ".join(["Z2"] * k)
        if n in orders:
            return f"Z{n}"
        return f"abelian of order {n} (element orders {sorted(set(orders))})"
    if n == 6:
        return "S3"
    return f"nonabelian of order {n} (element orders {sorted(set(orders))})"
