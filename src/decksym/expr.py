"""Sparse multivariate polynomials, rational functions, and the system parser.

A polynomial is a canonical tuple of (exponent, coefficient) terms.  Exponent
vectors are fixed-length tuples of non-negative ints covering the unknowns
first, then the parameters.  Coefficients are complex doubles; polynomials
built from rational source text additionally carry exact values (pairs of
Fractions for real/imaginary part), which survive ring operations as long as
every input is exact.  Exactness is what lets fixture tests compare formulas
without tolerances.

Monomial order is graded lexicographic with unknowns before parameters:
monomial *lists* (interpolation bases, matrix columns) are ascending, so the
basis for n=2, m=1, D=1 reads 1, x, y, p; the *terms* of a polynomial are
stored highest-degree first, so x^2 + p*x + 1 prints in that order.

One kernel evaluates every polynomial in the package: the tracker's F, dF/dx
and dF/dp, ``Polynomial.evaluate`` and ``RationalFunction.evaluate`` (deck
formulas, patch equations) and the Vandermonde columns of interpolation.  A
set of unique monomials is a factor table: each monomial is a short row of
flat indices ``var * (maxdeg + 1) + power`` into a power table of all the
variables, listing only its non-unit factors in increasing variable order
and padded with an index of a constant 1.  A ``TermBlock`` keeps, per term of
each of its polynomials, a monomial index and a coefficient, summed per
polynomial by ``np.add.reduceat``; a block whose every polynomial has one
term (P3P's dF/dx, for one) skips the sum, which over one element is that
element, bit for bit.  An evaluation fills the power table, multiplies the
few factors of each monomial once (``monomials_at`` for one point,
``monomial_rows`` for a stack of points), and gathers the monomials into the
terms.

A polynomial compiles, on its first evaluation, into a one-entry block over
its own support.  The power of a variable, the product of a monomial's
factors and the sum of a polynomial's terms are each computed by the same
numpy operations in the same order whatever table holds the monomial, so
``Polynomial.evaluate`` is bit-equal, at generic points, to the tracker's
``CompiledSystem`` entry for the same polynomial (tests/test_evaluator.py
checks this on random sparse systems).  Padding differs between tables;
multiplying by the padding's exact 1 changes no bit of a product with
nonzero parts.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

Exponent = tuple[int, ...]
ExactComplex = tuple[Fraction, Fraction]
Coeff = Union[complex, ExactComplex]
Term = tuple[Exponent, Coeff]

_EXACT_ZERO: ExactComplex = (Fraction(0), Fraction(0))
_EXACT_ONE: ExactComplex = (Fraction(1), Fraction(0))


def mono_key(exp: Exponent) -> tuple:
    """Ascending graded-lex sort key: degree first, then x before y before p."""
    return (sum(exp), tuple(-e for e in exp))


def _term_key(exp: Exponent) -> tuple:
    # Highest degree first; same within-degree tie-break as mono_key.
    return (-sum(exp), tuple(-e for e in exp))


def is_exact(c: Coeff) -> bool:
    return isinstance(c, tuple)


def coeff_to_complex(c: Coeff) -> complex:
    if isinstance(c, tuple):
        return complex(float(c[0]), float(c[1]))
    return complex(c)


def _cadd(a: Coeff, b: Coeff) -> Coeff:
    if isinstance(a, tuple) and isinstance(b, tuple):
        return (a[0] + b[0], a[1] + b[1])
    return coeff_to_complex(a) + coeff_to_complex(b)


def _cmul(a: Coeff, b: Coeff) -> Coeff:
    if isinstance(a, tuple) and isinstance(b, tuple):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
    return coeff_to_complex(a) * coeff_to_complex(b)


def _cneg(a: Coeff) -> Coeff:
    if isinstance(a, tuple):
        return (-a[0], -a[1])
    return -a


def _cinv(a: Coeff) -> Coeff:
    if isinstance(a, tuple):
        d = a[0] * a[0] + a[1] * a[1]
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return (a[0] / d, -a[1] / d)
    return 1.0 / complex(a)


def _czero(a: Coeff) -> bool:
    if isinstance(a, tuple):
        return a[0] == 0 and a[1] == 0
    return a == 0


# ---------------------------------------------------------------------------
# The evaluation kernel
# ---------------------------------------------------------------------------


def factor_key(exponent: Exponent, stride: int) -> tuple[int, ...]:
    """Flat power-table indices ``var * stride + power`` of the non-unit
    factors of one monomial, in increasing variable order."""
    return tuple(v * stride + k for v, k in enumerate(exponent) if k)


def factor_table(keys) -> np.ndarray:
    """The (U, width) factor table of U monomial keys.  Padding points at
    power-table entry [0, 0], which is always 1."""
    keys = list(keys)
    factors = np.zeros((len(keys), max(map(len, keys), default=0) or 1), dtype=np.intp)
    for u, key in enumerate(keys):
        factors[u, : len(key)] = key
    return factors


def monomials_at(factors: np.ndarray, maxdeg: int, z: np.ndarray) -> np.ndarray:
    """The (U,) monomials of a factor table at one point z."""
    tab = np.empty((len(z), maxdeg + 1), dtype=complex)
    tab[:, 0] = 1.0
    for k in range(1, maxdeg + 1):
        tab[:, k] = tab[:, k - 1] * z
    # numpy's elementwise complex multiply may round differently from its
    # product reduction; a dense product over every variable reduced, and
    # so does this.
    return np.multiply.reduce(tab.ravel()[factors], axis=1)


def monomial_rows(factors: np.ndarray, maxdeg: int, z: np.ndarray) -> np.ndarray:
    """The (S, U) monomials of a factor table at each row of z (S, nvars),
    each row bit-equal to ``monomials_at``.  The products run as one 2-D
    reduction over (S * U, width), the form ``monomials_at`` reduces: along
    the last axis of (S, U, width), numpy rounds differently."""
    count, nvars = z.shape
    tab = np.empty((count, nvars, maxdeg + 1), dtype=complex)
    tab[:, :, 0] = 1.0
    for k in range(1, maxdeg + 1):
        tab[:, :, k] = tab[:, :, k - 1] * z
    gathered = tab.reshape(count, nvars * (maxdeg + 1)).take(factors, axis=1)
    return np.multiply.reduce(gathered.reshape(-1, factors.shape[1]), axis=1).reshape(
        gathered.shape[:2]
    )


def monomial_values(exponents: Sequence[Exponent], points) -> np.ndarray:
    """(S, K): monomial k of ``exponents`` (distinct) at row s of ``points``."""
    maxdeg = max(map(max, exponents), default=0)
    factors = factor_table(factor_key(e, maxdeg + 1) for e in exponents)
    return monomial_rows(factors, maxdeg, np.asarray(points, dtype=complex))


class TermBlock:
    """The terms of a list of polynomials over a shared monomial table: each
    term's monomial index and coefficient, and the ``reduceat`` offset of
    each polynomial's first term.  Evaluated, the block has the given shape.
    """

    __slots__ = ("terms", "coeffs", "offsets", "shape", "_stack")

    def __init__(self, polys, monomials: dict, stride: int, shape):
        terms: list[int] = []
        coeffs: list[complex] = []
        offsets: list[int] = []
        for p in polys:
            offsets.append(len(terms))
            # A zero polynomial keeps one zero term so that every offset is valid.
            for e, c in p.terms or (((0,) * p.nvars, 0.0),):
                terms.append(monomials.setdefault(factor_key(e, stride), len(monomials)))
                coeffs.append(coeff_to_complex(c))
        self.terms = np.asarray(terms, dtype=np.intp)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self.shape = shape
        self._stack: tuple[np.ndarray, np.ndarray] | None = None

    def __call__(self, mono: np.ndarray) -> np.ndarray:
        vals = self.coeffs * mono[self.terms]
        if len(self.terms) == len(self.offsets):  # one term each: a sum of one
            return vals.reshape(self.shape)
        return np.add.reduceat(vals, self.offsets).reshape(self.shape)

    def rows(self, mono: np.ndarray) -> np.ndarray:
        """The block at each row of an (S, U) monomial array, stacked as
        (S, *shape).  The coefficients, repeated once per row, multiply the
        flat terms, and one flat ``reduceat`` sums them with this block's
        offsets repeated once per row, so every entry is computed as
        ``__call__`` computes it.  The repeats are kept for the most rows
        seen so far, and fewer rows take their prefix: a lockstep tracker
        calls with every count up to its batch size.  A block whose every
        polynomial has one term skips the sum, as ``__call__`` does."""
        count = len(mono)
        if self._stack is None or len(self._stack[0]) < count * len(self.terms):
            offsets = self.offsets + len(self.terms) * np.arange(count)[:, None]
            self._stack = (np.tile(self.coeffs, count), offsets.ravel())
        coeffs, offsets = self._stack
        vals = coeffs[: count * len(self.terms)] * mono.take(self.terms, axis=1).ravel()
        if len(self.terms) == len(self.offsets):
            return vals.reshape((count, *self.shape))
        return np.add.reduceat(vals, offsets[: count * len(self.offsets)]).reshape(
            (count, *self.shape)
        )


class Polynomial:
    """Immutable sparse polynomial in canonical form.

    Canonical form: no zero coefficients, distinct exponents, terms sorted
    highest graded-lex monomial first.
    """

    __slots__ = ("nvars", "terms", "_hash", "_kernel")

    def __init__(self, nvars: int, terms: Iterable[tuple[Exponent, Coeff]]):
        acc: dict[Exponent, Coeff] = {}
        for exp, c in terms:
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise ValueError(f"exponent length {len(exp)} != nvars {nvars}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            if exp in acc:
                acc[exp] = _cadd(acc[exp], c)
            else:
                acc[exp] = c
        clean = [(e, c) for e, c in acc.items() if not _czero(c)]
        clean.sort(key=lambda t: _term_key(t[0]))
        self.nvars = nvars
        self.terms: tuple[tuple[Exponent, Coeff], ...] = tuple(clean)
        self._hash = None
        self._kernel = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars, ())

    @staticmethod
    def constant(nvars: int, value: Coeff) -> "Polynomial":
        return Polynomial(nvars, [((0,) * nvars, value)])

    @staticmethod
    def variable(nvars: int, index: int) -> "Polynomial":
        exp = [0] * nvars
        exp[index] = 1
        return Polynomial(nvars, [(tuple(exp), _EXACT_ONE)])

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> tuple[Exponent, ...]:
        return tuple(e for e, _ in self.terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial(self.nvars, itertools.chain(self.terms, other.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, [(e, _cneg(c)) for e, c in self.terms])

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check(other)
            out: list[tuple[Exponent, Coeff]] = []
            for e1, c1 in self.terms:
                for e2, c2 in other.terms:
                    out.append((tuple(a + b for a, b in zip(e1, e2)), _cmul(c1, c2)))
            return Polynomial(self.nvars, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c: Coeff) -> "Polynomial":
        if isinstance(c, (int, Fraction)):
            c = (Fraction(c), Fraction(0))
        return Polynomial(self.nvars, [(e, _cmul(t, c)) for e, t in self.terms])

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.constant(self.nvars, _EXACT_ONE)
        for _ in range(k):
            out = out * self
        return out

    def differentiate(self, var: int) -> "Polynomial":
        out = []
        for e, c in self.terms:
            k = e[var]
            if k == 0:
                continue
            new = list(e)
            new[var] = k - 1
            out.append((tuple(new), _cmul(c, (Fraction(k), Fraction(0)))))
        return Polynomial(self.nvars, out)

    def evaluate(self, point):
        """The value at one point of ``nvars`` coordinates, as a Python
        complex, or the (S,) values at an (S, nvars) stack of points.  On the
        first call the polynomial compiles into a one-entry ``TermBlock`` over
        its own support."""
        z = np.asarray(point, dtype=complex)
        if z.ndim not in (1, 2) or z.shape[-1] != self.nvars:
            raise ValueError(f"point shape {z.shape} does not end in nvars {self.nvars}")
        if self._kernel is None:
            maxdeg = max((max(e) for e, _ in self.terms), default=0)
            monomials: dict[tuple[int, ...], int] = {}
            block = TermBlock((self,), monomials, maxdeg + 1, ())
            self._kernel = (factor_table(monomials), maxdeg, block)
        factors, maxdeg, block = self._kernel
        if z.ndim == 1:
            return complex(block(monomials_at(factors, maxdeg, z)))
        return block.rows(monomial_rows(factors, maxdeg, z))

    # -- comparison --------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable counts")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.nvars != other.nvars or len(self.terms) != len(other.terms):
            return False
        for (e1, c1), (e2, c2) in zip(self.terms, other.terms):
            if e1 != e2:
                return False
            if is_exact(c1) and is_exact(c2):
                if c1 != c2:
                    return False
            elif coeff_to_complex(c1) != coeff_to_complex(c2):
                return False
        return True

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, tuple((e, coeff_to_complex(c)) for e, c in self.terms)))
        return self._hash

    def __repr__(self):
        return f"Polynomial({self.nvars}, {len(self.terms)} terms)"


# Above this, a part of numpy's complex divide can overflow: the sum
# num.real + num.imag * ratio with |ratio| <= 1, or the denominator's.
_HUGE_PART = 2.0**1021


def _scale_denominators(num: np.ndarray, den: np.ndarray):
    """``(num, den)``, where each quotient at the edge of the double range is
    scaled, numerator and denominator alike, by the power of two that brings
    the larger part of its denominator into [0.5, 1).  The edge is a
    denominator whose larger part is subnormal or above 2^1021, or a
    numerator whose larger part is above 2^1021.

    numpy's complex divide forms num.real + num.imag * ratio and den.real +
    den.imag * ratio (ratio the smaller part of den over the larger), then
    multiplies by the reciprocal of the latter.  At a subnormal denominator
    the reciprocal overflows; above 2^1021 the denominator's sum can overflow
    and the reciprocal loses bits; above 2^1021 the numerator's sum can
    overflow.  Each warns, or returns inf, NaN or 0, where the quotient is
    finite.  Scaling by a power of two is exact and leaves the ratio as it
    is, so every other quotient is left alone and keeps its bits.  A
    numerator part that the scaling takes past the double range becomes
    inf: its quotient is past the range too."""
    den_part = np.maximum(np.abs(den.real), np.abs(den.imag))
    num_part = np.maximum(np.abs(num.real), np.abs(num.imag))
    edge = (den_part < np.finfo(float).tiny) | (den_part > _HUGE_PART) | (num_part > _HUGE_PART)
    if not edge.any():
        return num, den
    shift = -np.frexp(den_part[edge])[1]
    num, den = num.copy(), den.copy()
    for z in (num, den):
        z.real[edge] = np.ldexp(z.real[edge], shift)
        z.imag[edge] = np.ldexp(z.imag[edge], shift)
    return num, den


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of two polynomials; the denominator is never the zero polynomial.

    A nonzero constant denominator is folded into the numerator on
    construction, so polynomials are exactly the rationals with denominator 1.
    """

    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self):
        if self.denominator.is_zero:
            raise ZeroDivisionError("zero denominator")
        den = self.denominator
        if len(den.terms) == 1 and sum(den.terms[0][0]) == 0:
            c = den.terms[0][1]
            if not (is_exact(c) and c == _EXACT_ONE):
                object.__setattr__(self, "numerator", self.numerator.scale(_cinv(c)))
                object.__setattr__(
                    self, "denominator", Polynomial.constant(den.nvars, _EXACT_ONE)
                )

    @property
    def nvars(self) -> int:
        return self.numerator.nvars

    @property
    def is_polynomial(self) -> bool:
        d = self.denominator
        return len(d.terms) == 1 and sum(d.terms[0][0]) == 0

    def evaluate(self, point):
        """The quotient at one point (a Python complex) or at each row of an
        (S, nvars) stack, divided by numpy's loop either way, so that both
        forms agree bit for bit.  A denominator of exactly 0 raises
        ZeroDivisionError.  A quotient past the double range has an inf or
        NaN part, without a warning."""
        num = np.asarray(self.numerator.evaluate(point), dtype=complex)
        den = np.asarray(self.denominator.evaluate(point), dtype=complex)
        if not np.all(den):
            raise ZeroDivisionError("complex division by zero")
        with np.errstate(over="ignore", invalid="ignore"):
            quotient = np.divide(*_scale_denominators(num, den))
        return quotient if quotient.ndim else complex(quotient)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if self.denominator == other.denominator:
            return RationalFunction(self.numerator + other.numerator, self.denominator)
        return RationalFunction(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.numerator, self.denominator)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.numerator * other.numerator, self.denominator * other.denominator
        )

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.numerator.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(
            self.numerator * other.denominator, self.denominator * other.numerator
        )

    @staticmethod
    def from_polynomial(p: Polynomial) -> "RationalFunction":
        return RationalFunction(p, Polynomial.constant(p.nvars, _EXACT_ONE))


@dataclass(frozen=True)
class System:
    """Square parametric polynomial system: n equations in n unknowns and m parameters.

    Patch equations are generic normalizations (affine slices of a projective
    scale freedom).  They count toward squareness and are tracked like any
    other equation, but are excluded from scaling-symmetry detection, which
    only sees the structural equations.
    """

    unknowns: tuple[str, ...]
    parameters: tuple[str, ...]
    equations: tuple[Polynomial, ...]
    patch_indices: tuple[int, ...] = ()

    def __post_init__(self):
        names = self.unknowns + self.parameters
        if len(set(names)) != len(names):
            raise SystemError_("duplicate variable names")
        if len(self.equations) != len(self.unknowns):
            raise SystemError_(
                f"system is not square: {len(self.equations)} equations, "
                f"{len(self.unknowns)} unknowns"
            )
        for eq in self.equations:
            if eq.nvars != len(names):
                raise SystemError_("equation over wrong variable count")
            if eq.is_zero:
                raise SystemError_("zero equation after canonicalization")
        for i in self.patch_indices:
            if not 0 <= i < len(self.equations):
                raise SystemError_("patch index out of range")

    @property
    def n(self) -> int:
        return len(self.unknowns)

    @property
    def m(self) -> int:
        return len(self.parameters)

    @property
    def names(self) -> tuple[str, ...]:
        return self.unknowns + self.parameters

    def structural_equations(self) -> tuple[Polynomial, ...]:
        skip = set(self.patch_indices)
        return tuple(eq for i, eq in enumerate(self.equations) if i not in skip)


class ParseError(ValueError):
    """Syntax or semantic error in an input file, with 1-based position."""

    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


class SystemError_(ValueError):
    pass


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_PUNCT = set("+-*/^();,=")


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # "ident" | "number" | punctuation | "end"
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            toks.append(_Token("number", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            toks.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("end", "", line, col))
    return toks


class _Parser:
    """Recursive-descent parser producing rational functions over declared variables.

    Grammar: expr := ['+'|'-'] term (('+'|'-') term)*
             term := factor (('*'|'/') factor)*
             factor := atom ['^' nonneg-int]
             atom := number | ident | '(' expr ')'
    '/' between integer literals yields an exact rational coefficient; used
    between polynomials it builds a rational function.  The identifier ``i``
    denotes the imaginary unit unless a declared variable shadows it.
    """

    def __init__(self, toks: list[_Token], names: Sequence[str]):
        self.toks = toks
        self.pos = 0
        self.names = list(names)
        self.index = {name: k for k, name in enumerate(names)}
        self.nvars = len(names)

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text!r}", t.line, t.col)
        return t

    def error(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg, t.line, t.col)

    def parse_expr(self) -> RationalFunction:
        """A sum of terms.  When every term has the same denominator, the
        numerators' terms build one polynomial; otherwise the terms fold
        pairwise, left to right.  Literals are exact, so both give the
        coefficients of the left-to-right fold."""
        sign = 1
        if self.peek().kind in "+-":
            sign = -1 if self.next().kind == "-" else 1
        value = self.parse_term()
        terms = [value if sign > 0 else -value]
        while self.peek().kind in "+-":
            op = self.next().kind
            rhs = self.parse_term()
            terms.append(rhs if op == "+" else -rhs)
        den = terms[0].denominator
        if len(terms) > 1 and all(t.denominator == den for t in terms[1:]):
            nums = itertools.chain.from_iterable(t.numerator.terms for t in terms)
            return RationalFunction(Polynomial(self.nvars, nums), den)
        value = terms[0]
        for rhs in terms[1:]:
            value = value + rhs
        return value

    def parse_term(self) -> RationalFunction:
        """A product of factors, folded left to right.  Numbers, variables
        and their powers are monomials (``parse_atom``): a run of them, each
        multiplied or dividing by a nonzero constant, is multiplied out
        exponent by exponent and builds one polynomial.  Literals are exact,
        so this gives the coefficients of the fold."""
        value = self.parse_factor()
        while self.peek().kind in "*/":
            op = self.next().kind
            rhs = self.parse_factor()
            if isinstance(value, tuple) and isinstance(rhs, tuple):
                if op == "*":
                    c = value[1] if rhs[1] is _EXACT_ONE else _cmul(value[1], rhs[1])
                    value = (tuple(map(operator.add, value[0], rhs[0])), c)
                    continue
                if not any(rhs[0]) and not _czero(rhs[1]):
                    value = (value[0], _cmul(value[1], _cinv(rhs[1])))
                    continue
            value, rhs = self.rational(value), self.rational(rhs)
            if op == "*":
                value = value * rhs
            else:
                if rhs.numerator.is_zero:
                    t = self.toks[self.pos - 1]
                    raise ParseError("division by zero", t.line, t.col)
                value = value / rhs
        return self.rational(value)

    def rational(self, value: RationalFunction | Term) -> RationalFunction:
        """``value`` as a rational function; a monomial becomes a polynomial."""
        if isinstance(value, tuple):
            return RationalFunction.from_polynomial(Polynomial(self.nvars, [value]))
        return value

    def parse_factor(self) -> RationalFunction | Term:
        sign = 1
        while self.peek().kind in "+-":
            if self.next().kind == "-":
                sign = -sign
        value = self.parse_atom()
        if self.peek().kind == "^":
            self.next()
            t = self.next()
            if t.kind != "number" or not t.text.isdigit():
                raise ParseError("exponent must be a non-negative integer", t.line, t.col)
            k = int(t.text)
            if isinstance(value, tuple):
                c = _EXACT_ONE
                for _ in range(k):
                    c = _cmul(c, value[1])
                value = (tuple(e * k for e in value[0]), c)
            else:
                value = RationalFunction(value.numerator**k, value.denominator**k)
        if sign < 0:
            value = (value[0], _cneg(value[1])) if isinstance(value, tuple) else -value
        return value

    def parse_atom(self) -> RationalFunction | Term:
        """A number, the imaginary unit or a variable as a monomial term
        (exponent, exact coefficient); a parenthesized expression as a
        rational function."""
        t = self.next()
        if t.kind == "number":
            try:
                value = Fraction(Decimal(t.text))
            except (InvalidOperation, ValueError):
                raise ParseError(f"bad numeric literal {t.text!r}", t.line, t.col)
            return (0,) * self.nvars, (value, Fraction(0))
        if t.kind == "ident":
            if t.text in self.index:
                exp = [0] * self.nvars
                exp[self.index[t.text]] = 1
                return tuple(exp), _EXACT_ONE
            if t.text == "i":
                return (0,) * self.nvars, (Fraction(0), Fraction(1))
            raise ParseError(f"undeclared variable {t.text!r}", t.line, t.col)
        if t.kind == "(":
            value = self.parse_expr()
            self.expect(")")
            return value
        raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)


def _parse_ident_list(p: _Parser) -> list[str]:
    names = []
    while True:
        t = p.peek()
        if t.kind == "ident":
            names.append(p.next().text)
            if p.peek().kind == ",":
                p.next()
        elif t.kind == ";":
            p.next()
            return names
        else:
            raise p.error(f"expected identifier or ';', found {t.text!r}")


def parse_system(text: str) -> System:
    """Parse system text: ``unknowns ...; parameters ...; equations e1; e2; ...``

    An optional ``patch`` section lists auxiliary normalization equations.
    Each equation must reduce to a polynomial (constant denominators are
    cleared); a zero equation is rejected.
    """
    toks = _tokenize(text)
    p = _Parser(toks, [])
    t = p.next()
    if not (t.kind == "ident" and t.text == "unknowns"):
        raise ParseError("expected 'unknowns'", t.line, t.col)
    unknowns = _parse_ident_list(p)
    t = p.next()
    if not (t.kind == "ident" and t.text == "parameters"):
        raise ParseError("expected 'parameters'", t.line, t.col)
    parameters = _parse_ident_list(p)
    names = unknowns + parameters
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable name", t.line, t.col)
    p.names = names
    p.index = {name: k for k, name in enumerate(names)}
    p.nvars = len(names)

    t = p.next()
    if not (t.kind == "ident" and t.text == "equations"):
        raise ParseError("expected 'equations'", t.line, t.col)

    def parse_eq_block() -> list[Polynomial]:
        eqs = []
        while True:
            tok = p.peek()
            if tok.kind == "end":
                break
            if tok.kind == "ident" and tok.text == "patch":
                break
            rf = p.parse_expr()
            if not rf.is_polynomial:
                raise ParseError(
                    "equation is not a polynomial (non-constant denominator)",
                    tok.line,
                    tok.col,
                )
            if rf.numerator.is_zero:
                raise ParseError("zero equation after canonicalization", tok.line, tok.col)
            eqs.append(rf.numerator)
            tok = p.peek()
            if tok.kind == ";":
                p.next()
            elif tok.kind != "end" and not (tok.kind == "ident" and tok.text == "patch"):
                raise p.error(f"expected ';', found {tok.text!r}")
        return eqs

    equations = parse_eq_block()
    patches: list[Polynomial] = []
    if p.peek().kind == "ident" and p.peek().text == "patch":
        p.next()
        patches = parse_eq_block()
    all_eqs = equations + patches
    patch_indices = tuple(range(len(equations), len(all_eqs)))
    try:
        return System(tuple(unknowns), tuple(parameters), tuple(all_eqs), patch_indices)
    except SystemError_ as exc:
        raise ParseError(str(exc), toks[-1].line, toks[-1].col)


def parse_expression(text: str, names: Sequence[str]) -> RationalFunction:
    """Parse a single expression over the given variable names."""
    toks = _tokenize(text)
    p = _Parser(toks, names)
    rf = p.parse_expr()
    t = p.peek()
    if t.kind == ";":
        p.next()
        t = p.peek()
    if t.kind != "end":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return rf


def parse_deck_formulas(text: str, system: System) -> dict[str, RationalFunction]:
    """Parse a formulas file: one ``<unknown> = <expr>`` assignment per line."""
    out: dict[str, RationalFunction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        start = len(raw) - len(raw.lstrip()) + 1  # the column where the name starts
        if "=" not in line:
            raise ParseError("expected '<unknown> = <expression>'", lineno, start)
        name, rhs = line.split("=", 1)
        name = name.strip()
        if name not in system.unknowns:
            raise ParseError(f"{name!r} is not an unknown of the system", lineno, start)
        if name in out:
            raise ParseError(f"duplicate formula for {name!r}", lineno, start)
        try:
            out[name] = parse_expression(rhs, system.names)
        except ParseError as exc:
            col = raw.index("=") + 1 + exc.col  # rhs starts after the first '='
            raise ParseError(f"in formula for {name}: {exc.msg}", lineno, col)
    return out


# ---------------------------------------------------------------------------
# Calculus / combinatorics
# ---------------------------------------------------------------------------


def jacobian(system: System) -> tuple[tuple[Polynomial, ...], ...]:
    """Symbolic Jacobian of the equations with respect to the unknowns only."""
    return tuple(
        tuple(eq.differentiate(j) for j in range(system.n)) for eq in system.equations
    )


def parameter_jacobian(system: System) -> tuple[tuple[Polynomial, ...], ...]:
    n = system.n
    return tuple(
        tuple(eq.differentiate(n + j) for j in range(system.m)) for eq in system.equations
    )


def monomials_up_to_degree(
    n: int, m: int, degree: int, parameter_dependent: bool
) -> list[Exponent]:
    """All exponent vectors of total degree <= degree, ascending graded-lex.

    Vectors have length n+m.  In the parameter-independent setting only the
    first n entries may be nonzero; the count is C(n+D, D), respectively
    C(n+m+D, D) when parameters participate.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    active = n + m if parameter_dependent else n
    out: list[Exponent] = []

    def rec(prefix: list[int], remaining: int, pos: int):
        if pos == active:
            out.append(tuple(prefix) + (0,) * (n + m - active))
            return
        for e in range(remaining + 1):
            prefix.append(e)
            rec(prefix, remaining - e, pos + 1)
            prefix.pop()

    rec([], degree, 0)
    out.sort(key=mono_key)
    assert len(out) == math.comb(active + degree, degree)
    return out


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def _format_real(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _format_coeff(c: Coeff) -> tuple[str, bool]:
    """Render a coefficient; the flag marks a+bi sums that need parentheses."""
    if is_exact(c):
        re_, im = c
        if im == 0:
            return _format_real(re_), False
        if re_ == 0:
            if im == 1:
                return "i", False
            return f"{_format_real(im)}*i", False
        sign = "+" if im > 0 else "-"
        imag = "i" if abs(im) == 1 else f"{_format_real(abs(im))}*i"
        return f"{_format_real(re_)} {sign} {imag}", True
    z = complex(c)
    if z.imag == 0:
        return _format_real(z.real), False
    if z.real == 0:
        return f"{_format_real(z.imag)}*i", False
    sign = "+" if z.imag >= 0 else "-"
    return f"{_format_real(z.real)} {sign} {_format_real(abs(z.imag))}*i", True


def _coeff_is_one(c: Coeff) -> int:
    """1 for exactly +1, -1 for exactly -1, else 0."""
    if is_exact(c):
        if c == _EXACT_ONE:
            return 1
        if c == (Fraction(-1), Fraction(0)):
            return -1
        return 0
    if c == 1:
        return 1
    if c == -1:
        return -1
    return 0


def format_polynomial(poly: Polynomial, names: Sequence[str]) -> str:
    if poly.is_zero:
        return "0"
    if len(names) != poly.nvars:
        raise ValueError("name list length mismatch")
    parts = []
    for k, (exp, c) in enumerate(poly.terms):
        monos = []
        for idx, e in enumerate(exp):
            if e == 1:
                monos.append(names[idx])
            elif e > 1:
                monos.append(f"{names[idx]}^{e}")
        unit = _coeff_is_one(c)
        if unit and monos:
            body = "*".join(monos)
            sign = "-" if unit < 0 else "+"
        else:
            text, parens = _format_coeff(c)
            sign = "+"
            if parens:
                text = f"({text})"
            elif text.startswith("-"):
                sign = "-"
                text = text[1:]
            body = "*".join([text] + monos) if monos else text
        if k == 0:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


def format_rational(rf: RationalFunction, names: Sequence[str]) -> str:
    """Human-readable formula; round-trips through the parser for exact coefficients."""
    num = format_polynomial(rf.numerator, names)
    if rf.is_polynomial:
        return num
    den = format_polynomial(rf.denominator, names)
    if len(rf.numerator.terms) > 1 or num.startswith("-"):
        num = f"({num})"
    dterm = rf.denominator.terms
    simple_den = (
        len(dterm) == 1
        and _coeff_is_one(dterm[0][1]) == 1
        and sum(1 for e in dterm[0][0] if e) == 1
    )
    if not simple_den:
        den = f"({den})"
    return f"{num}/{den}"


# ---------------------------------------------------------------------------
# Complex literals ("a+bi") used by seed files and reports
# ---------------------------------------------------------------------------


def format_complex(z: complex) -> str:
    re_ = repr(float(z.real))
    im = float(z.imag)
    sign = "+" if im >= 0 or math.isnan(im) else "-"
    return f"{re_}{sign}{repr(abs(im))}i"


def parse_complex(text: str) -> complex:
    """Parse ``a``, ``bi``, or ``a+bi`` with optional exponents on each part."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if not s.endswith("i"):
        return complex(float(s), 0.0)
    body = s[:-1]
    # Split at the last +/- that is not an exponent sign and not leading.
    split = -1
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            split = k
            break
    if split == -1:
        re_part, im_part = "0", body
    else:
        re_part, im_part = body[:split], body[split:]
    if im_part in ("", "+"):
        im = 1.0
    elif im_part == "-":
        im = -1.0
    else:
        im = float(im_part)
    return complex(float(re_part) if re_part else 0.0, im)


def parse_seed_pair(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a seed-pair file: ``x: <complex list>; p: <complex list>``."""
    cleaned = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    sections: dict[str, list[complex]] = {}
    for chunk in cleaned.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ValueError(f"bad seed section {chunk!r}")
        key, rest = chunk.split(":", 1)
        key = key.strip()
        if key not in ("x", "p"):
            raise ValueError(f"unknown seed section {key!r}")
        values = [parse_complex(v) for v in rest.split(",") if v.strip()]
        sections[key] = values
    if "x" not in sections or "p" not in sections:
        raise ValueError("seed file must contain 'x:' and 'p:' sections")
    return (
        np.array(sections["x"], dtype=complex),
        np.array(sections["p"], dtype=complex),
    )


def format_seed_pair(x: np.ndarray, p: np.ndarray) -> str:
    xs = ", ".join(format_complex(z) for z in np.asarray(x))
    ps = ", ".join(format_complex(z) for z in np.asarray(p))
    return f"x: {xs};\np: {ps};\n"
