import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equisplit.laurent import (
    LaurentPoly,
    poly_divmod,
    poly_ext_gcd,
    scalar_div,
)
from equisplit import splitting
from oracles import is_normal, naive_mul, reference_poly_ext_gcd

P = LaurentPoly


def lp(*pairs):
    return P(dict(pairs))


coeffs = st.integers(-6, 6).map(Fraction) | st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
laurents = st.dictionaries(st.integers(-5, 5), coeffs, max_size=5).map(P)
polys = st.dictionaries(st.integers(0, 6), coeffs, max_size=5).map(P)


class TestArithmetic:
    def test_zero_and_one(self):
        assert P.zero().is_zero()
        assert P.one().is_constant()
        assert P.one().constant_value() == 1

    def test_no_stored_zeros(self):
        p = P({2: Fraction(0), 1: Fraction(3)})
        assert list(p.terms) == [1]

    def test_ord_deg(self):
        p = lp((-2, 1), (3, 5))
        assert p.deg == 3

    def test_mul_example(self):
        # (z^-1 + 1)(z - 1) = 1 + z - z^-1 - 1 = z - z^-1
        assert lp((-1, 1), (0, 1)) * lp((1, 1), (0, -1)) == lp((1, 1), (-1, -1))

    def test_shift_and_invert(self):
        p = lp((-1, 2), (2, 3))
        assert p.shift(3) == lp((2, 2), (5, 3))
        assert p.invert_variable() == lp((1, 2), (-2, 3))
        assert p.invert_variable().invert_variable() == p

    @given(laurents, laurents, laurents)
    @settings(max_examples=60, deadline=None)
    def test_ring_identities(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a - a == P.zero()

    @given(laurents, st.integers(-4, 4))
    @settings(max_examples=40, deadline=None)
    def test_shift_is_monomial_mul(self, p, k):
        assert p.shift(k) == p * P.monomial(k)


class TestPolynomialHelpers:
    def test_divmod(self):
        q, r = poly_divmod(lp((2, 1), (0, -1)), lp((1, 1), (0, -1)))
        assert q == lp((1, 1), (0, 1)) and r.is_zero()

    def test_divmod_rejects_laurent(self):
        with pytest.raises(ValueError):
            poly_divmod(lp((-1, 1)), P.one())

    @given(polys, polys)
    @settings(max_examples=50, deadline=None)
    def test_ext_gcd2_identity(self, a, b):
        assume(not (a.is_zero() and b.is_zero()))
        g, U, _ = poly_ext_gcd([a, b])
        s, t = U[0]
        assert s * a + t * b == g
        assert g.leading_coeff() == 1
        if not a.is_zero():
            assert poly_divmod(a, g)[1].is_zero()
        if not b.is_zero():
            assert poly_divmod(b, g)[1].is_zero()


class TestUnimodularCompletion:
    def apply(self, U, fs):
        k = len(fs)
        return [sum((U[i][j] * fs[j] for j in range(k)), P.zero()) for i in range(k)]

    def test_bezout_pair(self):
        # 1*(z+1) - 1*z = 1, so gcd(z, z+1) = 1
        fs = [lp((1, 1)), lp((1, 1), (0, 1))]
        g, U, Uinv = poly_ext_gcd(fs)
        assert g == P.one()
        assert self.apply(U, fs) == [P.one(), P.zero()]
        assert matmul(U, Uinv) == identity(2)

    def test_single_entry(self):
        g, U, Uinv = poly_ext_gcd([lp((2, 1))])
        assert g == lp((2, 1))
        assert U == [[P.one()]]
        assert Uinv == [[P.one()]]

    def test_zero_then_constant(self):
        g, U, Uinv = poly_ext_gcd([P.zero(), P.monomial(0, 5)])
        assert g == P.one()
        # constant permutation/scaling block
        assert all(e.is_constant() for row in U for e in row)
        assert self.apply(U, [P.zero(), P.monomial(0, 5)]) == [P.one(), P.zero()]
        assert matmul(U, Uinv) == identity(2)

    @given(polys, polys)
    @example(P.zero(), lp((1, 2), (0, 2)))  # zero first entry: one step, s = 0
    @example(lp((2, 2)), lp((1, 4)))  # non-monic gcd 4z
    @settings(max_examples=80, deadline=None)
    def test_pair_block_is_exact(self, a, b):
        # with b nonzero, U is the one Bezout block [[s, t], [-b/g, a/g]]
        assume(not b.is_zero())
        g, U, Uinv = poly_ext_gcd([a, b])
        (aq, ar), (bq, br) = poly_divmod(a, g), poly_divmod(b, g)
        assert ar.is_zero() and br.is_zero()
        assert U[1] == [-bq, aq]
        assert U[0][0] * U[1][1] - U[0][1] * U[1][0] == P.one()
        assert Uinv == [[aq, -U[0][1]], [bq, U[0][0]]]

    def test_block_with_zero_tail(self):
        # (z^2, z) takes one block [[0, 1], [-1, z]]; the zero tail takes none
        fs = [lp((2, 1)), lp((1, 1)), P.zero()]
        g, U, Uinv = poly_ext_gcd(fs)
        assert g == lp((1, 1))
        assert U == [
            [P.zero(), P.one(), P.zero()],
            [P.monomial(0, -1), lp((1, 1)), P.zero()],
            [P.zero(), P.zero(), P.one()],
        ]
        assert matmul(U, Uinv) == identity(3)

    def test_single_non_monic_entry(self):
        # 2z + 2 followed by a zero: no block runs, and only row 0 is scaled
        g, U, Uinv = poly_ext_gcd([lp((1, 2), (0, 2)), P.zero()])
        assert g == lp((1, 1), (0, 1))
        assert U == [[P.monomial(0, Fraction(1, 2)), P.zero()], [P.zero(), P.one()]]
        assert Uinv == [[P.monomial(0, 2), P.zero()], [P.zero(), P.one()]]

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_ext_gcd([P.zero(), P.zero()])

    @given(st.lists(polys, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_completion_properties(self, fs):
        if all(f.is_zero() for f in fs):
            return
        g, U, Uinv = poly_ext_gcd(fs)
        from equisplit.linalg import LaurentMatrix, mat_det

        det = mat_det(LaurentMatrix(U))
        assert det.is_constant() and not det.is_zero()
        out = self.apply(U, fs)
        assert out[0] == g
        assert all(p.is_zero() for p in out[1:])
        assert g.leading_coeff() == 1
        for f in fs:
            if not f.is_zero():
                assert poly_divmod(f, g)[1].is_zero()
        assert matmul(U, Uinv) == matmul(Uinv, U) == identity(len(fs))

    @given(st.integers(1, 4), st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), polys),
                                        max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_inverse_on_unimodular_columns(self, k, ops):
        # e_1 under random polynomial row additions is a unimodular column
        fs = [P.one()] + [P.zero()] * (k - 1)
        for i, j, p in ops:
            i, j = i % k, j % k
            if i != j:
                fs[i] = fs[i] + p * fs[j]
        g, U, Uinv = poly_ext_gcd(fs)
        assert g == P.one()
        assert self.apply(U, fs) == [P.one()] + [P.zero()] * (k - 1)
        assert matmul(U, Uinv) == identity(k)
        assert [row[0] for row in Uinv] == fs

    def test_monic_normalization(self):
        g, U, Uinv = poly_ext_gcd([lp((1, 2))])  # 2z alone
        assert g == lp((1, 1))
        assert self.apply(U, [lp((1, 2))]) == [g]
        assert Uinv == [[P.monomial(0, 2)]]


def identity(k):
    return [[P.one() if i == j else P.zero() for j in range(k)] for i in range(k)]


def matmul(X, Y):
    n = len(Y)
    return [
        [sum((X[i][t] * Y[t][j] for t in range(n)), P.zero()) for j in range(len(Y[0]))]
        for i in range(len(X))
    ]


class TestRationalScalars:
    def test_coefficients_stay_normalized(self):
        p = P({0: Fraction(2, 4)}) * P({1: Fraction(3, -9)})
        ((e, c),) = p.terms.items()
        assert (e, c.numerator, c.denominator) == (1, -1, 6)


# int/Fraction mixes: small and huge (above 2^64) integers, integral Fractions
# such as Fraction(3), and halves and thirds whose sums cancel to integers
mixed = st.one_of(
    st.integers(-6, 6),
    st.integers(-(2**80), 2**80),
    st.integers(-6, 6).map(Fraction),
    st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3)]),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**66)),
)
mixed_laurents = st.dictionaries(st.integers(-4, 4), mixed, max_size=5).map(P)
mixed_polys = st.dictionaries(st.integers(0, 5), mixed, max_size=4).map(P)


def assert_normal(*polys):
    for p in polys:
        bad = [c for c in p.terms.values() if not is_normal(c)]
        assert not bad, f"{p!r} holds coefficients outside the normal form: {bad!r}"


def fterms(p):
    """p's terms with every coefficient as a Fraction (the reference form)."""
    return {e: Fraction(c) for e, c in p.terms.items()}


def fsum(*pairs):
    """sum(sign * terms) over Fraction, zeros dropped."""
    out = {}
    for sign, terms in pairs:
        for e, c in terms.items():
            out[e] = out.get(e, Fraction(0)) + sign * Fraction(c)
    return {e: c for e, c in out.items() if c}


class TestNormalForm:
    def test_constructor_canonicalizes(self):
        p = P({0: Fraction(4, 2), 1: Fraction(0), 2: True, 3: Fraction(1, 2)})
        assert p.terms == {0: 2, 2: 1, 3: Fraction(1, 2)}
        assert type(p.terms[0]) is int and type(p.terms[2]) is int
        assert_normal(p)

    @pytest.mark.parametrize("e", [1.5, 1.0, "2", True])
    def test_non_integer_exponent_rejected(self, e):
        # truncating 1.5 would store z^1, and int("2") would parse a string
        with pytest.raises(TypeError):
            P({e: 1})

    def test_halves_cancel_to_an_int(self):
        h = P({0: Fraction(1, 2), 1: Fraction(1, 3)})
        for p in (h + h, h.scale(2), h * P.monomial(0, 6), h - h.scale(-1)):
            assert_normal(p)
            assert type(p.terms[0]) is int
        assert (h + h).terms == {0: 1, 1: Fraction(2, 3)}

    def test_huge_integers_stay_integers(self):
        big = 2**70 + 1
        p = P({0: big, 1: -big}) * P({2: big})
        assert p.terms == {2: big * big, 3: -big * big}
        assert all(type(c) is int for c in p.terms.values())

    def test_queries_on_missing_terms_are_int_zero(self):
        assert type(P.zero().constant_value()) is int

    def test_scalar_division(self):
        assert scalar_div(6, 3) == 2 and type(scalar_div(6, 3)) is int
        assert scalar_div(1, 2) == Fraction(1, 2) and type(scalar_div(1, 2)) is Fraction
        assert scalar_div(-3, 6) == Fraction(-1, 2)
        assert type(scalar_div(Fraction(1, 2), Fraction(1, 4))) is int
        with pytest.raises(ZeroDivisionError):
            scalar_div(1, 0)

    @given(mixed, mixed)
    @settings(max_examples=100, deadline=None)
    def test_scalar_division_is_exact(self, a, b):
        if b == 0:
            return
        q = scalar_div(a, b)
        assert q == Fraction(a) / Fraction(b)
        assert q == 0 or is_normal(q)

    @given(mixed_laurents, mixed_laurents)
    @settings(max_examples=150, deadline=None)
    def test_ring_operations_match_fraction_reference(self, a, b):
        assert_normal(a, b)
        total, diff, prod = a + b, a - b, a * b
        assert_normal(total, diff, prod, -a)
        assert fterms(total) == fsum((1, a.terms), (1, b.terms))
        assert fterms(diff) == fsum((1, a.terms), (-1, b.terms))
        assert fterms(prod) == naive_mul(a, b)
        assert fterms(-a) == fsum((-1, a.terms))

    @given(mixed_laurents, mixed, st.integers(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_scale_shift_invert_match_fraction_reference(self, p, c, k):
        scaled = p.scale(c)
        assert_normal(scaled, p.shift(k), p.invert_variable())
        assert fterms(scaled) == {e: Fraction(c) * v for e, v in fterms(p).items() if c}
        # scale is the one way to scale: a product takes LaurentPoly factors only
        for product in (lambda: p * 2, lambda: 2 * p, lambda: p * c, lambda: c * p):
            with pytest.raises(TypeError):
                product()
        assert fterms(p.shift(k)) == {e + k: v for e, v in fterms(p).items()}
        assert fterms(p.invert_variable()) == {-e: v for e, v in fterms(p).items()}

    @given(mixed_polys, mixed_polys)
    @settings(max_examples=100, deadline=None)
    def test_divmod_matches_fraction_reference(self, a, b):
        if b.is_zero():
            return
        q, r = poly_divmod(a, b)
        assert_normal(q, r)
        assert fsum((1, naive_mul(q, b)), (1, r.terms)) == fterms(a)
        assert r.is_zero() or r.deg < b.deg

    @given(st.lists(mixed_polys, min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_ext_gcd_matches_fraction_reference(self, fs):
        if all(f.is_zero() for f in fs):
            return
        g, U, Uinv = poly_ext_gcd(fs)
        assert_normal(g, *(p for row in U + Uinv for p in row))
        for i, row in enumerate(U):
            got = fsum(*((1, naive_mul(u, f)) for u, f in zip(row, fs)))
            assert got == (fterms(g) if i == 0 else {})


def _random_entry(rng: random.Random) -> LaurentPoly:
    """A zero, a constant, a monomial or a short polynomial, int or Fraction coefficients."""

    def coeff():
        n = rng.choice([-3, -2, -1, 1, 2, 3, 5])
        return n if rng.random() < 0.6 else Fraction(n, rng.choice([2, 3, 4]))

    kind = rng.random()
    if kind < 0.3:
        return P.zero()
    if kind < 0.45:
        return P.monomial(0, coeff())
    if kind < 0.75:
        return P.monomial(rng.randint(1, 4), coeff())
    return P({rng.randint(0, 3): coeff() for _ in range(rng.randint(2, 3))})


# common factors for the columns that cannot reach e_1
SHARED_FACTORS = [lp((1, 1)), lp((2, 1)), lp((1, 1), (0, 1)), lp((1, 2), (0, -3)), lp((2, 1), (0, Fraction(1, 2)))]


def _random_column(rng: random.Random) -> list[LaurentPoly]:
    column = [_random_entry(rng) for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.2:
        factor = rng.choice(SHARED_FACTORS)
        column = [p * factor for p in column]
    return column


def _exact(p: LaurentPoly) -> list:
    """p's terms with the class of every coefficient, so int 1 and Fraction(1) differ."""
    return [(e, c.__class__, c) for e, c in sorted(p.terms.items())]


def _outcome(fn, *args):
    """fn(*args) with every polynomial in exact form, or the exception it raised."""
    try:
        out = fn(*args)
    except (ValueError, splitting.InvariantViolation) as exc:
        return exc.__class__, str(exc)
    g, U, Uinv = out if len(out) == 3 else (None, out[0].entries, out[1].entries)
    return (
        g if g is None else _exact(g),
        [[_exact(p) for p in row] for row in U],
        [[_exact(p) for p in row] for row in Uinv],
    )


class TestSparseCompletionMatchesReference:
    """poly_ext_gcd against the frozen dense completion on 2400 seeded columns."""

    COLUMNS = [_random_column(random.Random(seed)) for seed in range(2400)]

    def test_same_gcd_and_frames(self):
        sizes, outcomes = set(), set()
        for n, column in enumerate(self.COLUMNS):
            want = _outcome(reference_poly_ext_gcd, column)
            got = _outcome(poly_ext_gcd, column)
            assert got == want, (n, column)
            if isinstance(want[0], type):
                outcomes.add(want[0])
                continue
            g, U, Uinv = poly_ext_gcd(column)
            assert_normal(g, *(p for row in U + Uinv for p in row))
            sizes.add(len(column))
            outcomes.add("e_1" if want[0] == _exact(P.one()) else "shared factor")
        assert sizes == set(range(1, 7))
        assert outcomes == {ValueError, "e_1", "shared factor"}
        assert any(isinstance(c, Fraction) for col in self.COLUMNS for p in col for c in p.terms.values())

    def test_frame_completion_matches_reference(self, monkeypatch):
        # _frame_completion over the reference raises or returns what it does
        # over the package: the same InvariantViolation for a shared factor
        with monkeypatch.context() as patch:
            patch.setattr(splitting, "poly_ext_gcd", reference_poly_ext_gcd)
            want = [_outcome(splitting._frame_completion, column) for column in self.COLUMNS]
        got = [_outcome(splitting._frame_completion, column) for column in self.COLUMNS]
        assert got == want
        failures = {w[0] for w in want if isinstance(w[0], type)}
        assert failures == {ValueError, splitting.InvariantViolation}
