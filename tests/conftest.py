import functools
from typing import Sequence

import numpy as np
import pytest
from hypothesis import settings

from decksym import numcore, tracker
from decksym.expr import Exponent, System, monomial_values, parse_system
from decksym.fixtures import fixture_path
from decksym.interp import TRUNCATE_TOL
from decksym.monodromy import run_monodromy, seed_from_linear_params
from decksym.permgrp import inverse
from decksym.scaling import IntMatrix, Multidegree
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


def int_transpose(a: IntMatrix) -> IntMatrix:
    return IntMatrix(a.cols, a.rows, tuple(zip(*a.data)) if a.data else ())


def int_matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    bt = int_transpose(b).data
    out = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a.data)
    return IntMatrix(a.rows, b.cols, out)


def int_det(a: IntMatrix) -> int:
    """Exact determinant by Bareiss elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(r) for r in a.data]
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


def snf_verifies(snf, a: IntMatrix) -> bool:
    """U @ A @ V is the SNF's diagonal, and U and V are unimodular."""
    prod = int_matmul(int_matmul(snf.U, a), snf.V)
    for i in range(prod.rows):
        for j in range(prod.cols):
            expected = snf.diag[i] if (i == j and i < len(snf.diag)) else 0
            if prod.data[i][j] != expected:
                return False
    return abs(int_det(snf.U)) == 1 and abs(int_det(snf.V)) == 1


def lattice_is_empty(lattice) -> bool:
    return lattice.free.rows == 0 and not lattice.torsion


def equation_weight(row, eq) -> int | None:
    """Common weight of all terms of eq under the scaling row, or None if mixed."""
    weights = {sum(u * e for u, e in zip(row, exp)) for exp in eq.support()}
    if len(weights) != 1:
        return None
    return weights.pop()


def multidegree(exponent, lattice) -> Multidegree:
    """The multidegree of one exponent vector, term by term (the reference
    for ``scaling.multidegrees_bulk``)."""
    if len(exponent) != lattice.nvars:
        raise ValueError("exponent length does not match the lattice")
    free = tuple(sum(u * e for u, e in zip(row, exponent)) for row in lattice.free.data)
    torsion = tuple(
        tuple(sum(u * e for u, e in zip(row, exponent)) % blk.modulus for row in blk.rows.data)
        for blk in lattice.torsion
    )
    return Multidegree(free, torsion)


def track_paths_one_by_one(monkeypatch, track=None):
    """Replace ``tracker.track_paths`` by one ``track(system, x, p_from, p_to,
    gamma=gamma)`` call per start, in order (default: the module's
    ``tracker.track_path``, looked up at call time), so that a wrapper sees
    every path of either entry point, and each path once."""

    def one_by_one(system, starts, p_from, p_to, gamma):
        call = track or tracker.track_path
        return [call(system, x, p_from, p_to, gamma=gamma) for x in starts]

    monkeypatch.setattr(tracker, "track_paths", one_by_one)


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
