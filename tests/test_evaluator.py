"""The compiled evaluator against a dense reference and the symbolic polynomials.

The compiled evaluator multiplies only the non-unit factors of each unique
monomial.  The dense form it replaced multiplied every term over all n+m
power-table factors; the extra factors are exact ones, so both must agree
bit for bit.  The evaluator also keeps the monomials of the last point it
evaluated; no order of calls, in-place change of an input or write to a
result may make any result differ from the reference.  ``Polynomial.evaluate``
and ``RationalFunction.evaluate`` run on the same kernel, so they agree with
the compiled system bit for bit, and their stacked form with their
single-point form.
"""

import gc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_system
from decksym import tracker
from decksym.expr import (
    Polynomial,
    RationalFunction,
    System,
    coeff_to_complex,
    jacobian,
    parameter_jacobian,
    parse_expression,
    parse_system,
)
from decksym.fixtures import FIXTURES


def dense_pack(polys, nvars):
    exps, coeffs, offsets = [], [], []
    for q in polys:
        offsets.append(len(exps))
        for e, c in q.terms or (((0,) * nvars, 0.0),):
            exps.append(e)
            coeffs.append(coeff_to_complex(c))
    return np.asarray(exps, dtype=np.intp), np.asarray(coeffs), offsets


class DenseReference:
    """Every term is the product of tab[v, e_v] over all n+m variables v."""

    def __init__(self, system):
        n, m = system.n, system.m
        self.blocks = [
            (dense_pack(polys, n + m), shape)
            for polys, shape in (
                (system.equations, (n,)),
                ([q for row in jacobian(system) for q in row], (n, n)),
                ([q for row in parameter_jacobian(system) for q in row], (n, m)),
            )
        ]

    def __call__(self, x, p):
        z = np.concatenate([np.asarray(x, complex), np.asarray(p, complex)])
        maxdeg = max(int(e.max()) for (e, _, _), _ in self.blocks)
        tab = np.empty((len(z), maxdeg + 1), dtype=complex)
        tab[:, 0] = 1.0
        for k in range(1, maxdeg + 1):
            tab[:, k] = tab[:, k - 1] * z
        gather = np.arange(len(z))[None, :]
        return [
            np.add.reduceat(c * np.prod(tab[gather, e], axis=1), o).reshape(shape)
            for (e, c, o), shape in self.blocks
        ]


def assert_bit_equal(comp, dense, x, p):
    f, jx, jp = dense(x, p)
    f2, jx2 = comp.f_and_jx(x, p)
    for got, want in (
        (comp.f_at(x, p), f),
        (comp.jx_at(x, p), jx),
        (comp.jp_at(x, p), jp),
        (f2, f),
        (jx2, jx),
    ):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def random_point(rng, k):
    return rng.standard_normal(k) + 1j * rng.standard_normal(k)


METHODS = ("f_at", "jx_at", "jp_at", "f_and_jx")


def check_memo(comp, dense, rng):
    """Interleave the four methods over points that share x or p, with
    inputs mutated in place and results overwritten between calls; every
    result must stay bit-equal to the dense reference."""
    n, m = comp.n, comp.m
    a = (random_point(rng, n), random_point(rng, m))
    b = (random_point(rng, n), random_point(rng, m))
    c = (a[0], b[1])
    for x, p in (a, b, a, c, c, b, a):
        f, jx, jp = dense(x, p)
        want = {"f_at": (f,), "jx_at": (jx,), "jp_at": (jp,), "f_and_jx": (f, jx)}
        for name in rng.permutation(METHODS):
            got = getattr(comp, name)(x, p)
            got = got if name == "f_and_jx" else (got,)
            assert [(g.shape, g.tobytes()) for g in got] == [
                (w.shape, w.tobytes()) for w in want[name]
            ]
        # Callers own what they get: overwriting it must not reach the memo.
        for out in (*comp.f_and_jx(x, p), comp.jp_at(x, p)):
            out[...] = np.nan
        assert not comp._monomials(x, p).flags.writeable

    # The same arrays, changed in place between two calls.
    x, p = a[0].copy(), a[1].copy()
    comp.f_and_jx(x, p)
    x[-1] += 0.5
    assert_bit_equal(comp, dense, x, p)
    p[0] *= -2.0
    assert_bit_equal(comp, dense, x, p)


def mixed_points(rng, count, k):
    """count rows of k coordinates each: generic complex values, some of them
    replaced by reals, zeros and negative zeros."""
    z = random_point(rng, count * k).reshape(count, k)
    kind = rng.integers(0, 4, size=z.shape)
    z[kind == 1] = z[kind == 1].real
    z[kind == 2] = 0.0
    z[kind == 3] = complex(-0.0, -0.0)
    return z


def assert_rows_bit_equal(comp, x, p):
    """The stacked evaluation of the lockstep tracker: row i of each block
    is bit-equal to the single-point methods at (x[i], p[i])."""
    mono = comp.monomial_rows(x, p)
    stacked = (comp.f_rows(mono), comp.jx_rows(mono), comp.jp_rows(mono))
    for i in range(len(x)):
        single = (*comp.f_and_jx(x[i], p[i]), comp.jp_at(x[i], p[i]))
        for got, want in zip(stacked, single):
            assert got[i].shape == want.shape
            assert got[i].tobytes() == want.tobytes()


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_evaluation_bit_equal_to_dense(name):
    system = fixture_system(name)
    comp = tracker.compiled(system)
    dense = DenseReference(system)
    rng = np.random.default_rng(7)
    for _ in range(10):
        assert_bit_equal(comp, dense, random_point(rng, system.n), random_point(rng, system.m))
    check_memo(comp, dense, rng)
    for count in (1, 5, 33):
        assert_rows_bit_equal(
            comp, mixed_points(rng, count, system.n), mixed_points(rng, count, system.m)
        )


NAMES = ("x0", "x1", "x2")
PARAMS = ("p0", "p1")


@st.composite
def sparse_systems(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    nvars = n + m
    exponent = st.tuples(*[st.integers(0, 6)] * nvars)
    exact = st.tuples(
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    )
    inexact = st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False)
    equations = []
    for _ in range(n):
        if draw(st.booleans()) and draw(st.booleans()):
            # constant equation: a zero row of dF/dx and dF/dp
            value = (Fraction(draw(st.integers(1, 9))), Fraction(0))
            equations.append(Polynomial.constant(nvars, value))
            continue
        terms = draw(st.lists(st.tuples(exponent, exact | inexact), min_size=1, max_size=5))
        poly = Polynomial(nvars, terms)
        equations.append(poly if not poly.is_zero else Polynomial.constant(nvars, 1.0))
    return System(NAMES[:n], PARAMS[:m], tuple(equations))


def bits(value) -> bytes:
    return np.complex128(value).tobytes()


@settings(max_examples=150, deadline=None)
@given(system=sparse_systems(), seed=st.integers(0, 2**32 - 1))
def test_compiled_matches_symbolic_on_random_sparse_systems(system, seed):
    """At a generic point, ``Polynomial.evaluate`` of every equation and every
    dF/dx and dF/dp entry is bit-equal to the compiled system's value."""
    comp = tracker.CompiledSystem(system)
    rng = np.random.default_rng(seed)
    x, p = random_point(rng, system.n), random_point(rng, system.m)
    assert_bit_equal(comp, DenseReference(system), x, p)

    z = np.concatenate([x, p])
    n, m = system.n, system.m
    f, jx, jp = comp.f_at(x, p), comp.jx_at(x, p), comp.jp_at(x, p)
    for i, eq in enumerate(system.equations):
        entries = [(f[i], eq)]
        entries += [(jx[i, j], eq.differentiate(j)) for j in range(n)]
        entries += [(jp[i, j], eq.differentiate(n + j)) for j in range(m)]
        for want, poly in entries:
            got = poly.evaluate(z)
            assert type(got) is complex
            assert bits(got) == bits(want)


@settings(max_examples=100, deadline=None)
@given(system=sparse_systems(), seed=st.integers(0, 2**32 - 1), count=st.integers(1, 8))
def test_stacked_evaluate_bit_equal_to_single_points(system, seed, count):
    """``evaluate`` on an (S, nvars) stack gives the S single-point values bit
    for bit: polynomials on points with reals, zeros and negative zeros, a
    quotient of two equations on generic points (no denominator is 0)."""
    rng = np.random.default_rng(seed)
    nvars = system.n + system.m
    z = mixed_points(rng, count, nvars)
    for eq in system.equations:
        stacked = eq.evaluate(z)
        assert stacked.shape == (count,)
        assert [bits(v) for v in stacked] == [bits(eq.evaluate(row)) for row in z]
    rf = RationalFunction(system.equations[0], system.equations[-1])
    z = random_point(rng, count * nvars).reshape(count, nvars)
    stacked = rf.evaluate(z)
    assert stacked.shape == (count,)
    assert [bits(v) for v in stacked] == [bits(rf.evaluate(list(row))) for row in z]


def test_evaluate_list_point_gives_python_complex():
    rf = parse_expression("(x^2 + 3*y)/(1 + x*y)", ["x", "y"])
    point = [0.5, 2.0 - 1j]
    for f in (rf, rf.numerator, rf.denominator):
        assert type(f.evaluate(point)) is complex
    assert rf.evaluate(point) == pytest.approx((0.25 + 6 - 3j) / (2 - 0.5j), rel=1e-15)
    with pytest.raises(ValueError):
        rf.numerator.evaluate([0.5])
    with pytest.raises(ValueError):
        rf.numerator.evaluate(np.ones((2, 3)))


def test_zero_denominator_raises_zero_division_without_numpy_warnings():
    rf = parse_expression("1/x + y", ["x", "y"])  # (1 + x*y)/x
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZeroDivisionError):
            rf.evaluate([0.0, 1.0])
        with pytest.raises(ZeroDivisionError):
            rf.evaluate(np.array([[2.0, 1.0], [0.0, 1.0]]))
        assert rf.evaluate(np.array([[2.0, 1.0]])).tolist() == [1.5]


@settings(max_examples=100, deadline=None)
@given(system=sparse_systems(), seed=st.integers(0, 2**32 - 1))
def test_memo_bit_equal_to_dense_on_random_sparse_systems(system, seed):
    check_memo(tracker.CompiledSystem(system), DenseReference(system), np.random.default_rng(seed))


@settings(max_examples=150, deadline=None)
@given(system=sparse_systems(), seed=st.integers(0, 2**32 - 1), count=st.integers(1, 8))
def test_stacked_rows_bit_equal_to_single_points(system, seed, count):
    rng = np.random.default_rng(seed)
    comp = tracker.CompiledSystem(system)
    assert_rows_bit_equal(
        comp, mixed_points(rng, count, system.n), mixed_points(rng, count, system.m)
    )


def test_compile_cache_drops_collected_systems():
    text = "unknowns u, v; parameters q; equations u^3 - q; u*v - 1;"
    system = parse_system(text)
    tracker.compiled(system)
    assert system in tracker._COMPILED
    del system
    gc.collect()
    assert parse_system(text) not in tracker._COMPILED
