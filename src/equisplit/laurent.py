"""Exact sparse Laurent polynomials in one variable over the rationals.

A Laurent polynomial is stored as a sparse map from integer exponent to a
nonzero coefficient in normal form: a Python ``int`` when the value is
integral, a ``fractions.Fraction`` with denominator > 1 otherwise.  Sums and
products of integers stay integers, so arithmetic runs over Z and reaches Q
only where a division forces it; every such division goes through
``scalar_div``.  The variable is written ``z`` throughout; a polynomial "in w"
is simply a Laurent polynomial with nonnegative exponents whose variable is
read as w.  All arithmetic is exact.

The polynomial-only helpers (division and the extended-gcd unimodular
completion) require nonnegative exponents and raise ``ValueError`` otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Union

#: A coefficient in normal form: ``int`` if integral, else a ``Fraction``
#: whose denominator is > 1.  Both carry ``numerator`` and ``denominator``,
#: and an ``int`` equals the ``Fraction`` of the same value.
Scalar = Union[int, Fraction]


def _canonical(c: Scalar) -> Scalar:
    """The normal form of an ``int`` or ``Fraction`` value."""
    if c.__class__ is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):  # bool and other int subclasses
        return int(c)
    raise TypeError(f"expected an int or Fraction, got {type(c).__name__}")


def scalar_div(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b in normal form (never a ``float``)."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _canonical(Fraction(a, b))


class LaurentPoly:
    """A sparse Laurent polynomial sum(c_e * z**e) with rational c_e.

    Invariant: ``terms`` holds no zero coefficients, and every coefficient is
    in normal form (an ``int`` if integral, else a ``Fraction``).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Scalar] | None = None):
        clean: dict[int, Scalar] = {}
        if terms:
            for e, c in terms.items():
                if e.__class__ is not int:
                    raise TypeError(f"exponents must be int, got {type(e).__name__}")
                c = _canonical(c)
                if c:
                    clean[e] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: Scalar = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def from_sums(cls, sums: dict[int, Scalar]) -> "LaurentPoly":
        """Adopt a dict of accumulated sums of normal-form products.

        Zero sums are dropped and integral ``Fraction`` sums become ``int``.
        """
        out = cls.__new__(cls)
        out.terms = {
            e: c if c.__class__ is int or c.denominator != 1 else c.numerator
            for e, c in sums.items()
            if c
        }
        return out

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {0}

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_polynomial(self) -> bool:
        """True if all exponents are nonnegative (an element of k[z])."""
        return not self.terms or min(self.terms) >= 0

    @property
    def deg(self) -> int:
        """Maximum exponent; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        return max(self.terms)

    def leading_coeff(self) -> Scalar:
        return self.terms[self.deg]

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms.get(0, 0)

    def monomials(self) -> Iterator[tuple[int, Scalar]]:
        """Yield (exponent, coefficient) pairs in ascending exponent order."""
        for e in sorted(self.terms):
            yield e, self.terms[e]

    # -- arithmetic --------------------------------------------------------
    # int op int stays int; a Fraction result is put back in normal form

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if not s:
                del terms[e]
            elif s.__class__ is int or s.denominator != 1:
                terms[e] = s
            else:
                terms[e] = s.numerator
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = terms
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) - c
            if not s:
                del terms[e]
            elif s.__class__ is int or s.denominator != 1:
                terms[e] = s
            else:
                terms[e] = s.numerator
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = terms
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if len(self.terms) > len(other.terms):
            self, other = other, self
        sums: dict[int, Scalar] = {}
        get = sums.get
        items = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in items:
                e = e1 + e2
                sums[e] = get(e, 0) + c1 * c2
        return LaurentPoly.from_sums(sums)

    # perfbench/tracer.py reads LaurentPoly.__dict__["__rmul__"], so
    # Tracer.install raises KeyError without this binding
    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "LaurentPoly":
        c = _canonical(c)
        if not c:
            return LaurentPoly()
        return LaurentPoly.from_sums({e: c * v for e, v in self.terms.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z**k."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {e + k: c for e, c in self.terms.items()}
        return out

    def invert_variable(self) -> "LaurentPoly":
        """Substitute z -> 1/z (exponent negation)."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = {-e: c for e, c in self.terms.items()}
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # mutable mapping inside; equality only

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.monomials():
            if e == 0:
                parts.append(str(c))
            else:
                var = "z" if e == 1 else f"z^{e}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{c}*{var}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


# -- polynomial (nonnegative exponent) helpers -----------------------------


def _require_polynomial(p: LaurentPoly) -> None:
    if not p.is_polynomial():
        raise ValueError(f"argument must have nonnegative exponents, got {p!r}")


def poly_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Quotient and remainder of polynomials, deg(rem) < deg(b).

    Each step subtracts c*z^e*b as a shift and a scaling of b, so no Laurent
    product is formed; the quotient's terms are collected in one dict.
    """
    _require_polynomial(a)
    _require_polynomial(b)
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q: dict[int, Scalar] = {}
    r = a
    db = b.deg
    lb = b.leading_coeff()
    while not r.is_zero() and r.deg >= db:
        e = r.deg - db
        c = q[e] = scalar_div(r.leading_coeff(), lb)
        r = r - b.shift(e).scale(c)
    return LaurentPoly.from_sums(q), r


def poly_ext_gcd(
    polys: list[LaurentPoly],
) -> tuple[LaurentPoly, list[list[LaurentPoly]], list[list[LaurentPoly]]]:
    """Unimodular completion of a polynomial column by 2x2 Bezout blocks.

    Returns (g, U, Uinv) with g the monic gcd of the inputs, U a k-by-k
    polynomial matrix with det(U) a nonzero rational constant such that
    U @ (f_1, ..., f_k)^T = (g, 0, ..., 0)^T, and Uinv its exact inverse.
    Each nonzero entry takes one extended-Euclid pass against the gcd so
    far, and its block is read off Euclid's two cofactor rows.  Each block
    acts on U by row operations and on Uinv by the inverse column
    operations, so no determinant or adjugate is ever formed.  Entries are
    folded left to right, so the output is deterministic.

    A block for entry i rewrites only row 0 and row i of U and columns 0
    and i of Uinv, so those are kept as ``{index: poly}`` maps of their
    nonzero entries and a block visits only the nonzero entries of row 0
    and column 0; every other row and column stays e_i.  The k-by-k lists
    are built once at the end, their zero and unit entries sharing one
    polynomial each.
    """
    k = len(polys)
    if not any(p.terms for p in polys):
        raise ValueError("poly_ext_gcd needs at least one nonzero polynomial")
    for p in polys:
        _require_polynomial(p)

    zero, one = LaurentPoly(), LaurentPoly.one()
    # the rows of U and the columns of Uinv that differ from e_i, as their
    # nonzero entries: row 0 and column 0 always, row and column i once
    # entry i took a block
    U_rows: dict[int, dict[int, LaurentPoly]] = {0: {0: one}}
    Uinv_cols: dict[int, dict[int, LaurentPoly]] = {0: {0: one}}
    g = polys[0]
    for i in range(1, k):
        f = polys[i]
        if not f.terms:
            continue
        # extended Euclid on (g, f): each step multiplies the cofactor matrix
        # [[s0, t0], [s1, t1]] on the left by [[0, 1], [1, -q]], so it ends
        # mapping (g, f) to (r0, 0) with determinant sign = (-1)**steps
        r0, r1 = g, f
        s0, t0, s1, t1 = one, zero, zero, one
        sign = 1
        while r1.terms:
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1 if q.terms and s1.terms else s0
            t0, t1 = t1, t0 - q * t1 if q.terms and t1.terms else t0
            sign = -sign
        # with d = r0 / lc monic, s1*g + t1*f = 0 and the determinant force
        # (s1, t1) = sign / lc * (-f/d, g/d), so the 2x2 block
        # [[s, t], [-f/d, g/d]] = [[s0 / lc, t0 / lc], [sign*lc*s1, sign*lc*t1]]
        # has determinant exactly 1, and inverse [[g/d, -t], [f/d, s]]
        lc = r0.leading_coeff()
        inv = scalar_div(1, lc)
        s, t = s0.scale(inv), t0.scale(inv)
        nfq, gq = s1.scale(sign * lc), t1.scale(sign * lc)
        fq, nt = -nfq, -t
        # earlier blocks touched only rows 0 and i' < i of U and columns 0 and
        # i' of Uinv, so row i of U and column i of Uinv are still e_i and
        # U[0][i] = Uinv[i][0] = 0: every updated entry is a single product
        # with a nonzero entry of row 0 (column 0), and none is formed with a
        # zero factor; the factors keep the dense loop's order
        row0, col0 = U_rows[0], Uinv_cols[0]
        U_rows[0] = {j: s * u for j, u in row0.items()} if s.terms else {}
        U_rows[i] = {j: nfq * u for j, u in row0.items()} if nfq.terms else {}
        Uinv_cols[0] = {j: u * gq for j, u in col0.items()} if gq.terms else {}
        Uinv_cols[i] = {j: u * nt for j, u in col0.items()} if nt.terms else {}
        for entries, p in ((U_rows[0], t), (U_rows[i], gq), (Uinv_cols[0], fq), (Uinv_cols[i], s)):
            if p.terms:
                entries[i] = p
        g = r0.scale(inv)
    lc = g.leading_coeff()
    if lc != 1:
        # no block ran: g is the lone nonzero entry polys[0]
        inv = scalar_div(1, lc)
        U_rows[0] = {j: u.scale(inv) for j, u in U_rows[0].items()}
        Uinv_cols[0] = {j: u.scale(lc) for j, u in Uinv_cols[0].items()}
        g = g.scale(inv)

    U = [[zero] * k for _ in range(k)]
    Uinv = [[zero] * k for _ in range(k)]
    for i in range(k):
        for j, u in U_rows.get(i, {i: one}).items():
            U[i][j] = u
        for j, u in Uinv_cols.get(i, {i: one}).items():
            Uinv[j][i] = u
    return g, U, Uinv
