import functools
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import settings

from decksym import expr, numcore, tracker
from decksym.expr import Exponent, System, monomial_values, parse_seed_pair, parse_system
from decksym.fixtures import fixture_path, seed_path
from decksym.interp import TRUNCATE_TOL
from decksym.monodromy import run_monodromy, seed_from_linear_params
from decksym.permgrp import inverse
from decksym.tracker import compiled

# Selected in CI with --hypothesis-profile=ci: a fixed example stream, and a
# failing example printed as a reproduction blob in the log.
settings.register_profile("ci", derandomize=True, print_blob=True)

EX41_TEXT = "unknowns x; parameters p; equations x^2 + p*x + 1;"
EX42_TEXT = "unknowns x, y; parameters p; equations x^2 + x + p; x + y + p;"
SEXTIC_TEXT = (
    "unknowns x; parameters a, b, c, d;"
    "equations a*x^6 + b*x^5 + c*x^4 + d*x^3 + c*x^2 + b*x + a;"
)
EX57_TEXT = """
unknowns x1, x2, x3, x4; parameters p1, p2, p3;
equations
2*x1^2 + 1;
x2 + 2*x1*x3 + p1;
3*x3^2 + x4^2 - 4*p1*x1*x3 - 2*p2;
x1*x3^3 + 3*x1*x3*x4^2 + p1*x3^2 + p1*x4^2 - 2*p2*x1*x3 - 2*p3;
"""


@functools.cache
def fixture_system(name: str) -> System:
    """The bundled fixture ``name``, parsed once per session: the stretch
    fixtures take 1-2 s each to parse.  A System is frozen, so tests can
    share it."""
    return parse_system(fixture_path(name).read_text())


class FoldParser(expr._Parser):
    """The parser with a term folded factor by factor: every number and
    variable is a ``RationalFunction``, and every ``*``, ``/`` and ``^`` one
    product of them.  The reference the parser's monomial products are
    compared with, term for term and coefficient for coefficient."""

    def parse_term(self):
        value = self.parse_factor()
        while self.peek().kind in "*/":
            op = self.next().kind
            rhs = self.parse_factor()
            if op == "*":
                value = value * rhs
            else:
                if rhs.numerator.is_zero:
                    t = self.toks[self.pos - 1]
                    raise expr.ParseError("division by zero", t.line, t.col)
                value = value / rhs
        return value

    def parse_factor(self):
        sign = 1
        while self.peek().kind in "+-":
            if self.next().kind == "-":
                sign = -sign
        value = self.parse_atom()
        if self.peek().kind == "^":
            self.next()
            t = self.next()
            if t.kind != "number" or not t.text.isdigit():
                raise expr.ParseError("exponent must be a non-negative integer", t.line, t.col)
            k = int(t.text)
            value = expr.RationalFunction(value.numerator**k, value.denominator**k)
        if sign < 0:
            value = -value
        return value

    def parse_atom(self):
        t = self.next()
        poly = expr.Polynomial
        if t.kind == "number":
            try:
                value = Fraction(Decimal(t.text))
            except (InvalidOperation, ValueError):
                raise expr.ParseError(f"bad numeric literal {t.text!r}", t.line, t.col)
            return expr.RationalFunction.from_polynomial(
                poly.constant(self.nvars, (value, Fraction(0)))
            )
        if t.kind == "ident":
            if t.text in self.index:
                return expr.RationalFunction.from_polynomial(
                    poly.variable(self.nvars, self.index[t.text])
                )
            if t.text == "i":
                return expr.RationalFunction.from_polynomial(
                    poly.constant(self.nvars, (Fraction(0), Fraction(1)))
                )
            raise expr.ParseError(f"undeclared variable {t.text!r}", t.line, t.col)
        if t.kind == "(":
            value = self.parse_expr()
            self.expect(")")
            return value
        raise expr.ParseError(f"unexpected token {t.text!r}", t.line, t.col)


def fold_parse(monkeypatch, parse, *args):
    """``parse(*args)`` with ``FoldParser`` in place of the parser."""
    with monkeypatch.context() as patch:
        patch.setattr(expr, "_Parser", FoldParser)
        return parse(*args)


def ex57_seed():
    """Point on the component x1 = -i/sqrt(2) from three chosen cubic roots."""
    r = np.array([0.7, -1.3, 2.1])
    p = np.array(
        [-(r[0] + r[1] + r[2]), r[0] * r[1] + r[0] * r[2] + r[1] * r[2], -r[0] * r[1] * r[2]],
        dtype=complex,
    )
    x1 = -1j / np.sqrt(2)
    x = np.array([x1, r[0], (r[1] + r[2]) / (2 * x1), (r[1] - r[2]) / (2 * x1)])
    return x, p


def max_residual(system, sample) -> float:
    """Largest ||F||_inf over the solutions of a fiber sample."""
    comp = compiled(system)
    return max(float(np.abs(comp.f_at(s, sample.params)).max()) for s in sample.solutions)


def assert_cycles_retrace(system, result):
    """Retrace every recorded generator cycle backwards (segments in reverse
    order, each with 1/gamma) from every base solution: each must come back
    to its preimage under the cycle's permutation.  Re-tracking the arcs
    forwards would repeat a sheet jump; backwards it lands elsewhere."""
    sols = result.base.solutions
    assert len(result.loop_log) == len(result.permutations)
    for record, perm in zip(result.loop_log, result.permutations):
        assert record.permutation == perm
        back = inverse(perm)
        for j, sol in enumerate(sols):
            cur = sol
            for p_from, p_to, gamma in reversed(record.segments):
                r = tracker.track_path(system, cur, p_to, p_from, gamma=1.0 / gamma)
                assert r.success, f"retrace failed ({r.status})"
                cur = r.endpoint
            got = tracker.match(cur, sols)
            assert got == back[j], f"cycle {perm} retraced solution {j} to {got}, not {back[j]}"


def is_block_system(group, partition) -> bool:
    """Reference: every generator maps every block onto a block."""
    blocks = {frozenset(b) for b in partition}
    return all(frozenset(g[v] for v in b) in blocks for g in group.generators for b in blocks)


# Reference copies of helpers that only tests use.


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
    vn = monomial_values(numer_monomials, pts)
    vd = monomial_values(denom_monomials, pts)
    return np.hstack([vn, -imgs[:, None] * vd])


def constant_denominator_representative(rref_n: np.ndarray, split: int):
    """Search the row span for a polynomial representative: denominator fixed
    to the constant monomial (the first denominator column, as
    ``monomials_up_to_degree`` lists it), numerator greedily sparsified.

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
    target[0] = 1.0
    # rcond matters: RREF leaves ~1e-9 noise in "zero" entries, and fitting
    # it would pull in large spurious components along the solution family.
    r0, *_ = np.linalg.lstsq(bt, target, rcond=numcore.DEFAULT_RANK_TOL)
    if np.linalg.norm(bt @ r0 - target) > 1e-8 * max(1.0, np.linalg.norm(target)):
        return None
    directions = numcore.nullspace(bt)
    at = m[:, :split].T  # (t_n, rows)
    a = at @ r0
    dirs_a = [at @ directions[:, k] for k in range(directions.shape[1])]

    def nonzeros(vec):
        return int(np.count_nonzero(np.abs(vec) > TRUNCATE_TOL))

    changed = True
    while changed and dirs_a:
        changed = False
        for da in dirs_a:
            active = np.abs(da) > 1e-12
            if not np.any(active):
                continue
            idx = np.where(active)[0]
            largest = idx[int(np.argmax(np.abs(a[idx])))]
            if abs(a[largest]) <= TRUNCATE_TOL:
                continue
            step = -a[largest] / da[largest]
            cand = a + step * da
            if nonzeros(cand) < nonzeros(a):
                a = cand
                changed = True
    a = np.where(np.abs(a) > TRUNCATE_TOL, a, 0.0)
    if not np.any(a):
        return None
    b = np.zeros(m.shape[1] - split, dtype=complex)
    b[0] = 1.0
    return a, b


# An integer matrix is the tuple of its row tuples, as in ``decksym.scaling``.


def int_matmul(a, b):
    """The exact product of two integer matrices; ``a`` has a row."""
    if len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def int_det(a) -> int:
    """Exact determinant by Bareiss elimination."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    m = [list(r) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def snf_verifies(snf, a) -> bool:
    """U @ A @ V is the SNF's diagonal, and U and V are unimodular."""
    prod = int_matmul(int_matmul(snf.U, a), snf.V)
    for i, row in enumerate(prod):
        for j, x in enumerate(row):
            expected = snf.diag[i] if (i == j and i < len(snf.diag)) else 0
            if x != expected:
                return False
    return abs(int_det(snf.U)) == 1 and abs(int_det(snf.V)) == 1


def lattice_is_empty(lattice) -> bool:
    return not lattice.rows


def equation_weight(row, eq) -> int | None:
    """Common weight of all terms of eq under the scaling row, or None if mixed."""
    weights = {sum(u * e for u, e in zip(row, exp)) for exp in eq.support()}
    if len(weights) != 1:
        return None
    return weights.pop()


def multidegree(exponent, lattice) -> tuple[int, ...]:
    """The multidegree of one exponent vector, term by term (the reference
    for ``scaling.multidegrees_bulk``): its weight under each lattice row,
    reduced mod the row's modulus d when d > 0."""
    if len(exponent) != lattice.nvars:
        raise ValueError("exponent length does not match the lattice")
    weights = (sum(u * e for u, e in zip(row, exponent)) for row in lattice.rows)
    return tuple(w % d if d else w for w, d in zip(weights, lattice.moduli))


def track_paths_one_by_one(monkeypatch, track=None):
    """Replace ``tracker.track_paths`` by one ``track(system, x, p_from[i],
    p_to[i], gamma=gammas[i])`` call per start, in order, with the arcs
    broadcast as ``track_paths`` broadcasts them (default: the module's
    ``tracker.track_path``, looked up at call time), so that a wrapper sees
    every path of either entry point, and each path once."""

    def one_by_one(system, starts, p_from, p_to, gammas):
        call = track or tracker.track_path
        count = len(starts)
        p_from = np.broadcast_to(p_from, (count, np.shape(p_from)[-1]))
        p_to = np.broadcast_to(p_to, p_from.shape)
        gammas = np.broadcast_to(gammas, (count,)).tolist()
        return [call(system, x, p_from[i], p_to[i], gamma=gammas[i]) for i, x in enumerate(starts)]

    monkeypatch.setattr(tracker, "track_paths", one_by_one)


def serial_sample_fiber(system, fiber, count, rng, retrace=False):
    """The reference for ``tracker.sample_fiber``: each slot in turn draws
    its target, then gamma, tracks every path alone (``tracker.track_path``),
    checks the fiber (every path succeeds, the endpoints are distinct) and,
    with ``retrace``, tracks every point back alone with 1/gamma, which must
    succeed, stay distinct and land within ``MATCH_TOL`` of its start.  A
    failed slot draws again at once, ``SAMPLE_ATTEMPTS`` times in all."""
    out = []
    for _ in range(count):
        got = None
        for _ in range(tracker.SAMPLE_ATTEMPTS):
            target = tracker.random_params(system.m, rng)
            gamma = tracker.draw_gamma(rng)
            paths = [
                tracker.track_path(system, x, fiber.params, target, gamma=gamma)
                for x in fiber.solutions
            ]
            if not all(r.success for r in paths):
                continue
            sample = tracker.FiberSample(target, [r.endpoint for r in paths])
            if not sample.distinct():
                continue
            if retrace:
                back = [
                    tracker.track_path(system, x, target, fiber.params, gamma=1.0 / gamma)
                    for x in sample.solutions
                ]
                if not all(r.success for r in back):
                    continue
                ends = tracker.FiberSample(fiber.params, [r.endpoint for r in back])
                far = np.abs(ends.solutions - fiber.solutions).max(axis=1) > tracker.MATCH_TOL
                if not ends.distinct() or far.any():
                    continue
            got = sample
            break
        out.append(got)
    return out


def record_paths(monkeypatch, alter=None):
    """Wrap ``tracker.track_paths`` (as looked up at call time) so that every
    path it tracks is recorded as (start, p_from, p_to, gamma), the arrays as
    bytes; returns the list it appends to.  ``alter(key, result)``, when
    given, may replace each result."""
    real = tracker.track_paths
    rows = []

    def recording(system, starts, p_from, p_to, gammas):
        count = len(starts)
        results = real(system, starts, p_from, p_to, gammas)
        p_from = np.broadcast_to(np.asarray(p_from, complex), (count, np.shape(p_from)[-1]))
        p_to = np.broadcast_to(np.asarray(p_to, complex), p_from.shape)
        gammas = [complex(g) for g in np.broadcast_to(gammas, (count,)).tolist()]
        for i, x in enumerate(starts):
            key = (np.asarray(x, complex).tobytes(), p_from[i].tobytes(), p_to[i].tobytes(), gammas[i])
            rows.append(key)
            if alter is not None:
                results[i] = alter(key, results[i])
        return results

    monkeypatch.setattr(tracker, "track_paths", recording)
    return rows


def per_edge_track(graph, k, direction):
    """The reference for ``monodromy._Graph._track``: the pending paths of
    edge k in one direction, and only those, in one ``tracker.track_paths``
    call at the edge's turn, taken in index order; a break ends the edge
    there, and the paths after it count as never tracked."""
    e = graph.edges[k]
    src, dst = e.ends(direction)
    pending = [
        i for i in range(len(graph.fibers[src]))
        if i not in e.maps[direction] and (direction, i) not in e.tried
    ]
    if not pending:
        return False
    p_from, p_to, gamma = e.segment(direction, graph.params)
    results = tracker.track_paths(graph.system, graph.fibers[src][pending], p_from, p_to, gamma)
    for i, r in zip(pending, results):
        e.tried.add((direction, i))
        graph.tracked += 1
        if not r.success:
            graph.failed += 1
            continue
        j = graph._locate(dst, r.endpoint)
        if j is None:
            continue
        back = e.maps[1 - direction]
        if j in back:
            e.broken = True
            break
        e.maps[direction][i] = j
        back[j] = i
    return True


class SerialFilter:
    """The reference for one attempt of ``scaling._decide``
    (``serial_decide`` runs them in rounds): one candidate with a given
    gamma, each path tracked alone (a one-path ``tracker.track_paths`` call,
    which is ``tracker.track_path``).  s(x_0) first, the rest of the orbit
    when s(x_0) stays, and the round trip of an orbit that lands on distinct
    matched points, whether or not it commutes."""

    def __init__(self, system, base, deck_perms, scaled):
        self.system, self.base, self.deck_perms, self.scaled = system, base, deck_perms, scaled

    def attempt(self, c, gamma):
        scaled, p0 = self.scaled[c], self.base.params

        def track(start):
            return tracker.track_paths(self.system, start[None], scaled.params, p0, gamma)[0]

        first = track(scaled.solutions[0])
        if not first.success:
            return "retry"
        if tracker.match(first.endpoint, self.base.solutions) == tracker.NEW:
            return "failed_stability"
        paths = [first] + [track(start) for start in scaled.solutions[1:]]
        if not all(r.success for r in paths):
            return "retry"
        back = tracker.FiberSample(p0, [r.endpoint for r in paths])
        landed = [tracker.match(x, self.base.solutions) for x in back.solutions]
        if not back.distinct() or tracker.NEW in landed or tracker.AMBIGUOUS in landed:
            return "retry"
        if not tracker.retraces(self.system, [scaled], [back], [gamma])[0]:
            return "retry"
        if any(b != sigma[landed[0]] for b, sigma in zip(landed[1:], self.deck_perms)):
            return "failed_commutation"
        return "passed"


def serial_decide(system, base, deck_perms, scaled, rng):
    """``scaling._decide`` with ``SerialFilter`` making each attempt: every
    round draws one gamma per open candidate, in order, then makes each
    candidate's attempt in turn; a retry stays open, and a candidate still
    open after ``SAMPLE_ATTEMPTS`` rounds is undetermined."""
    one = SerialFilter(system, base, deck_perms, scaled)
    outcomes = [o if isinstance(o, str) else "undetermined" for o in scaled]
    pending = [c for c, o in enumerate(scaled) if not isinstance(o, str)]
    for _ in range(tracker.SAMPLE_ATTEMPTS):
        gammas = [tracker.draw_gamma(rng) for _ in pending]
        tried = [(c, one.attempt(c, gamma)) for c, gamma in zip(pending, gammas)]
        for c, outcome in tried:
            if outcome != "retry":
                outcomes[c] = outcome
        pending = [c for c, outcome in tried if outcome == "retry"]
    return outcomes


def run_fixture_monodromy(text, degree, seed_rng, x_star="random", seed_pair=None):
    system = parse_system(text)
    rng = np.random.default_rng(seed_rng)
    if seed_pair is None:
        seed_pair = seed_from_linear_params(system, x_star, rng)
    result = run_monodromy(system, seed_pair, rng, expected_degree=degree)
    return system, result, rng


@pytest.fixture(scope="session")
def mono41():
    return run_fixture_monodromy(EX41_TEXT, 2, 0, np.array([2.0 + 0j]))


@pytest.fixture(scope="session")
def mono42():
    return run_fixture_monodromy(EX42_TEXT, 2, 1, np.array([1.0 + 0j, 1.0 + 0j]))


@pytest.fixture(scope="session")
def mono_sextic():
    return run_fixture_monodromy(SEXTIC_TEXT, 6, 2)


@pytest.fixture(scope="session")
def mono_ex57():
    return run_fixture_monodromy(EX57_TEXT, 6, 3, seed_pair=ex57_seed())


@pytest.fixture(scope="session")
def p3p_orbit():
    """P3P after monodromy at rng seed 0: the system, the result and the deck
    orbit of its base solution (2 points)."""
    from decksym.monodromy import deck_orbit
    from decksym.permgrp import centralizer_in_symmetric, identity

    system = fixture_system("p3p_quasihom")
    pair = parse_seed_pair(seed_path("p3p_quasihom").read_text())
    result = run_monodromy(system, pair, np.random.default_rng(0), expected_degree=8)
    perms = [g for g in centralizer_in_symmetric(result.group()) if g != identity(8)]
    return system, result, deck_orbit(result, perms)[2]
