import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equisplit import linalg
from equisplit.bundle import LineSummand, TorusAction, random_instance
from equisplit.laurent import LaurentPoly, poly_ext_gcd
from equisplit.linalg import (
    LaurentMatrix,
    echelon_sparse,
    mat_adjugate,
    mat_det,
    mat_det_inverse,
    mat_inverse,
    rank_sparse,
    rref_sparse,
)
from equisplit.selftest import sample_case
from oracles import (
    dense_rank,
    dense_rref,
    exponent_range,
    is_normal,
    kernel_sparse,
    naive_det,
    naive_matmul,
    naive_mul,
)

P = LaurentPoly


def lm(rows):
    return LaurentMatrix([[P(dict(cell)) for cell in row] for row in rows])


def random_matrix(rng, m, max_terms=2, exp_range=3):
    entries = []
    for _ in range(m):
        row = []
        for _ in range(m):
            terms = {}
            for _ in range(rng.randint(0, max_terms)):
                terms[rng.randint(-exp_range, exp_range)] = Fraction(
                    rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 1, 2])
                )
            row.append(P(terms))
        entries.append(row)
    return LaurentMatrix(entries)


class TestDeterminant:
    def test_1x1(self):
        assert mat_det(lm([[{-1: 1}]])) == P.monomial(-1)

    def test_identity(self):
        assert mat_det(LaurentMatrix.identity(3)) == P.one()

    def test_2x2_by_hand(self):
        # det [[z, 1], [0, z^-1]] = z*z^-1 - 1*0 = 1
        M = lm([[{1: 1}, {0: 1}], [{}, {-1: 1}]])
        assert mat_det(M) == P.one()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            mat_det(LaurentMatrix.zeros(2, 3))

    def test_against_naive_recursion(self):
        rng = random.Random(7)
        singular = non_monomial = 0
        for _ in range(60):
            M = random_matrix(rng, rng.randint(0, 6))
            det = mat_det(M)
            assert det == naive_det(M)
            singular += det.is_zero()
            non_monomial += len(det.terms) > 1
        # both kinds occur, so the comparison is not only on units
        assert singular and non_monomial

    def test_multiplicative(self):
        rng = random.Random(11)
        for _ in range(25):
            m = rng.randint(1, 4)
            A, B = random_matrix(rng, m), random_matrix(rng, m)
            assert mat_det(A @ B) == mat_det(A) * mat_det(B)


class TestAdjugate:
    def test_1x1(self):
        assert mat_adjugate(lm([[{3: 5}]])) == (LaurentMatrix.identity(1), P.monomial(3, 5))

    def test_2x2_swap_rule(self):
        # adj [[z, 1], [0, z^-1]] = [[z^-1, -1], [0, z]]
        M = lm([[{1: 1}, {0: 1}], [{}, {-1: 1}]])
        assert mat_adjugate(M) == (lm([[{-1: 1}, {0: -1}], [{}, {1: 1}]]), P.one())

    def test_identity(self):
        for m in (0, 2):
            assert mat_adjugate(LaurentMatrix.identity(m)) == (LaurentMatrix.identity(m), P.one())

    def test_adjugate_identity_on_random_instances(self):
        # adj(M) @ M = M @ adj(M) = det(M) * I, 100 instances of size 2..4;
        # every other one gets row 1 = p * row 0, so det = 0 and both products vanish
        rng = random.Random(23)
        singular = nonzero_singular_adj = 0
        for k in range(100):
            m = rng.randint(2, 4)
            M = random_matrix(rng, m)
            if k % 2:
                p = P.monomial(rng.randint(-2, 2), rng.choice([1, -2, Fraction(1, 2)]))
                M.entries[1] = [p * q for q in M.entries[0]]
            adj, det = mat_adjugate(M)
            assert det == naive_det(M)
            want = LaurentMatrix.diagonal([det] * m)
            assert adj @ M == want
            assert M @ adj == want
            if det.is_zero():
                singular += 1
                nonzero_singular_adj += adj != LaurentMatrix.zeros(m, m)
        assert singular >= 50 and nonzero_singular_adj > 0

    def test_inverse_of_monomial_determinant(self):
        # [[z, 1], [0, 2z^-2]] has det 2z^-1 and inverse [[z^-1, -z/2], [0, z^2/2]]
        M = lm([[{1: 1}, {0: 1}], [{}, {-2: 2}]])
        inv = mat_inverse(*mat_adjugate(M))
        assert inv == lm([[{-1: 1}, {1: Fraction(-1, 2)}], [{}, {2: Fraction(1, 2)}]])
        assert M @ inv == inv @ M == LaurentMatrix.identity(2)

    def test_inverse_with_non_unit_constant_determinant(self):
        # [[2, z], [0, 1]] has det 2 and inverse [[1/2, -z/2], [0, 1]]
        M = lm([[{0: 2}, {1: 1}], [{}, {0: 1}]])
        inv = mat_inverse(*mat_adjugate(M))
        assert inv == lm([[{0: Fraction(1, 2)}, {1: Fraction(-1, 2)}], [{}, {0: 1}]])
        _assert_normal(inv)
        assert type(inv.entries[1][1].terms[0]) is int
        identity = [[{0: 1} if i == j else {} for j in range(2)] for i in range(2)]
        assert naive_matmul(M, inv) == naive_matmul(inv, M) == identity

    def test_inverse_rejects_non_monomial_determinant(self):
        M = lm([[{0: 1, 1: 1}]])
        with pytest.raises(ValueError, match="not a nonzero monomial"):
            mat_inverse(*mat_adjugate(M))


def faddeev_leverrier(M):
    """(det M, M^-1 or None) from the adjugate pass, the reference for ``mat_det_inverse``."""
    adj, det = mat_adjugate(M)
    return det, mat_inverse(adj, det) if det.is_monomial() else None


def assert_det_inverse(M):
    """mat_det_inverse(M) equals the adjugate route, with every coefficient in normal form."""
    det, inv = got = mat_det_inverse(M)
    assert got == faddeev_leverrier(M)
    assert all(is_normal(c) for c in det.terms.values())
    if inv is not None:
        _assert_normal(inv)
    return got


def count_adjugates(monkeypatch):
    sizes = []
    original = linalg.mat_adjugate

    def counted(M):
        sizes.append(M.rows)
        return original(M)

    monkeypatch.setattr(linalg, "mat_adjugate", counted)
    return sizes


class TestDetInverse:
    def test_sample_cases(self, monkeypatch):
        sizes = count_adjugates(monkeypatch)
        for seed in range(3000):
            E, _, _ = sample_case(seed)
            assert assert_det_inverse(E.A)[1] is not None, seed
        # some inputs leave a unit-free core, and every core is a proper block
        assert sizes and max(sizes) < 5

    @pytest.mark.parametrize("m", [6, 8, 12, 16])
    @pytest.mark.parametrize("a", [(), (0,), (1,)], ids=["none", "fixed", "moving"])
    def test_dense(self, m, a):
        torus = TorusAction(len(a), a)
        rng = random.Random(1)
        summands = [LineSummand(rng.randint(-3, 3), tuple(rng.randint(-2, 2) for _ in a)) for _ in range(m)]
        E, hidden = random_instance(1, summands, 10 * m, torus)
        det, _ = assert_det_inverse(E.A)
        assert det.is_monomial() and -det.deg == sum(s.n for s in hidden)

    def test_empty_and_1x1(self, monkeypatch):
        sizes = count_adjugates(monkeypatch)
        assert mat_det_inverse(LaurentMatrix.zeros(0, 0)) == (P.one(), LaurentMatrix.zeros(0, 0))
        M = lm([[{-2: Fraction(2, 3)}]])
        assert assert_det_inverse(M) == (P.monomial(-2, Fraction(2, 3)), lm([[{2: Fraction(3, 2)}]]))
        assert sizes == []  # a monomial is a unit: no core
        assert assert_det_inverse(lm([[{0: 1, 1: 1}]])) == (P({0: 1, 1: 1}), None)
        assert assert_det_inverse(lm([[{}]])) == (P.zero(), None)
        assert sizes == [1]

    def test_singular(self):
        # row 1 is z times row 0
        M = lm([[{-1: 1}, {0: 1, 1: 2}, {0: 3}], [{0: 1}, {1: 1, 2: 2}, {1: 3}], [{0: 2}, {}, {0: 1, 2: 1}]])
        assert assert_det_inverse(M) == (P.zero(), None)

    def test_non_unimodular(self):
        M = lm([[{0: 1}, {0: 1}], [{0: -1}, {1: 1}]])
        assert assert_det_inverse(M) == (P({0: 1, 1: 1}), None)

    def test_unit_free_core_is_the_whole_matrix(self, monkeypatch):
        # no entry is a monomial, yet det = 1
        M = lm([[{0: 2, 1: 2, 2: 1}, {0: 3, 1: 5, 2: 3, 3: 1}], [{0: 1, 1: 1}, {0: 2, 1: 2, 2: 1}]])
        sizes = count_adjugates(monkeypatch)
        det, inv = assert_det_inverse(M)
        assert det == P.one()
        assert sizes == [2]
        assert M @ inv == inv @ M == LaurentMatrix.identity(2)

    def test_fractional_pivots(self):
        # the pivot z/2 scales its row by 2/z, and a 1x1 core is left; the
        # second matrix has no core, and its integral results come back as int
        M = lm([[{1: Fraction(1, 2)}, {0: 1, 1: 1}], [{0: 1, 2: 1}, {0: Fraction(-2, 3)}]])
        assert_det_inverse(M)
        M = lm([[{1: Fraction(1, 2)}, {0: 1}], [{}, {-1: 2}]])
        det, inv = assert_det_inverse(M)
        assert det == P.one() and inv == lm([[{-1: 2}, {0: -1}], [{}, {1: Fraction(1, 2)}]])
        assert type(inv.entries[0][1].terms[0]) is int

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            mat_det_inverse(LaurentMatrix.zeros(2, 3))


def evaluate(p, z):
    return sum((c * Fraction(z) ** e for e, c in p.terms.items()), Fraction(0))


def det_at(M, z):
    """det M(z) at a rational point z, by exact Fraction elimination."""
    rows = [[evaluate(p, z) for p in row] for row in M.entries]
    det = Fraction(1)
    for k in range(len(rows)):
        piv = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            f = rows[i][k] / rows[k][k]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return det


# a unimodular 2x2 with no monomial entry (det 1), and a singular one
UNIT_FREE = [[{0: 2, 1: 2, 2: 1}, {0: 3, 1: 5, 2: 3, 3: 1}], [{0: 1, 1: 1}, {0: 2, 1: 2, 2: 1}]]
SINGULAR = [[{0: 1, 1: 1}, {0: 2, 1: 2}], [{0: 1, 2: 1}, {0: 2, 2: 2}]]


def zeroed_dense_fixed_base(m, line):
    """The transition of dense m, a=(0,), seed 1 with its last row or column zeroed."""
    rng = random.Random(1)
    summands = [LineSummand(rng.randint(-3, 3), (rng.randint(-2, 2),)) for _ in range(m)]
    E, _ = random_instance(1, summands, 10 * m, TorusAction(1, (0,)))
    entries = [row[:] for row in E.A.entries]
    for k in range(m):
        if line == "row":
            entries[m - 1][k] = P.zero()
        else:
            entries[k][m - 1] = P.zero()
    return LaurentMatrix(entries)


def block_diagonal(*blocks):
    m = sum(len(b) for b in blocks)
    rows, at = [], 0
    for b in blocks:
        for row in b:
            rows.append([{}] * at + row + [{}] * (m - at - len(row)))
        at += len(b)
    return rows


class TestDetInverseBlocks:
    """The unit-free core takes one adjugate pass per connected block of its pattern."""

    @pytest.mark.parametrize("m, sizes", [(16, [6, 5]), (24, [7, 3, 4]), (32, [7, 7, 4, 2])])
    def test_dense_fixed_base(self, monkeypatch, m, sizes):
        # under a fixed base the weight law makes A block-diagonal by weight
        # class up to a permutation, so the core falls apart
        rng = random.Random(1)
        summands = [LineSummand(rng.randint(-3, 3), (rng.randint(-2, 2),)) for _ in range(m)]
        E, hidden = random_instance(1, summands, 10 * m, TorusAction(1, (0,)))
        got = count_adjugates(monkeypatch)
        det, inv = mat_det_inverse(E.A)
        assert got == sizes
        assert det.is_monomial() and -det.deg == sum(s.n for s in hidden)
        _assert_normal(inv)
        if m == 16:
            assert (det, inv) == faddeev_leverrier(E.A)
        else:
            # the whole-matrix adjugate pass takes seconds here: M^-1 is
            # unique, and det M is pinned by its values at two points
            assert E.A @ inv == inv @ E.A == LaurentMatrix.identity(m)
            for z in (2, Fraction(-1, 3)):
                assert evaluate(det, z) == det_at(E.A, z)

    def test_interleaved_blocks(self, monkeypatch):
        # two unit-free 2x2 blocks of det 1, on rows (0, 2) / (1, 3) and
        # columns (1, 4) / (0, 2), and the unit pivot 3z^-2 at (4, 3), whose
        # row also meets column 0: sigma = (0 1)(2 4 3) is odd, so det is
        # -3z^-2, and the pivot row takes the correction product
        a, b = UNIT_FREE, [list(col) for col in zip(*UNIT_FREE)]
        M = [[{}] * 5 for _ in range(5)]
        for (r, c), cell in [((0, 1), a[0][0]), ((0, 4), a[0][1]), ((2, 1), a[1][0]), ((2, 4), a[1][1]),
                             ((1, 0), b[0][0]), ((1, 2), b[0][1]), ((3, 0), b[1][0]), ((3, 2), b[1][1]),
                             ((4, 3), {-2: 3}), ((4, 0), {0: 1, 1: 1})]:
            M[r][c] = cell
        sizes = count_adjugates(monkeypatch)
        det, inv = assert_det_inverse(lm(M))
        assert sizes == [2, 2]
        assert det == P.monomial(-2, -3) and inv is not None

    def test_singular_block(self, monkeypatch):
        sizes = count_adjugates(monkeypatch)
        assert assert_det_inverse(lm(block_diagonal(UNIT_FREE, SINGULAR))) == (P.zero(), None)
        assert sizes == [2, 2]

    def test_singular_block_first(self, monkeypatch):
        # the pass stops at the first block whose det is 0
        sizes = count_adjugates(monkeypatch)
        assert assert_det_inverse(lm(block_diagonal(SINGULAR, UNIT_FREE))) == (P.zero(), None)
        assert sizes == [2]

    @pytest.mark.parametrize("m", [24, 32])
    @pytest.mark.parametrize("line", ["row", "column"])
    def test_zeroed_line_takes_no_pass(self, monkeypatch, m, line):
        # a zero row or column stays zero through the unit pivots and leaves
        # a non-square component in the core, so det 0 is read off the
        # pattern; the whole-core pass took seconds here
        A = zeroed_dense_fixed_base(m, line)
        sizes = count_adjugates(monkeypatch)
        assert mat_det_inverse(A) == (P.zero(), None)
        assert sizes == []

    def test_non_square_component(self, monkeypatch):
        # column 2 is zero: the core has a 3-row, 2-column component and an
        # empty column, so the pattern alone gives det 0, with no pass
        M = [[{0: 1, 1: 1}, {0: 1, 2: 1}, {}], [{0: 2, 1: 1}, {0: 1, 1: 1}, {}], [{0: 1, 1: 1}, {0: 3, 1: 1}, {}]]
        sizes = count_adjugates(monkeypatch)
        assert assert_det_inverse(lm(M)) == (P.zero(), None)
        assert sizes == []

    def test_non_unit_block(self, monkeypatch):
        # det M is the product of the block dets, 1 * (1 + z), which is no unit
        sizes = count_adjugates(monkeypatch)
        assert assert_det_inverse(lm(block_diagonal(UNIT_FREE, [[{0: 1, 1: 1}]]))) == (P({0: 1, 1: 1}), None)
        assert sizes == [2, 1]


def dense_kernel(M, ncols):
    """kernel_sparse on dense rows, with the basis vectors made dense."""
    _, basis = kernel_sparse([{j: v for j, v in enumerate(row) if v} for row in M], ncols)
    return [[vec.get(j, Fraction(0)) for j in range(ncols)] for vec in basis]


class TestRationalKernel:
    def test_full_rank(self):
        assert dense_kernel([[1, 0], [0, 1]], 2) == []

    def test_one_relation(self):
        basis = dense_kernel([[1, 1]], 2)
        assert len(basis) == 1
        v = basis[0]
        # spans the line through (1, -1)
        assert v[0] * Fraction(-1) == v[1]
        assert v[0] + v[1] == 0

    def test_zero_matrix(self):
        basis = dense_kernel([[0, 0, 0], [0, 0, 0]], 3)
        assert len(basis) == 3

    def test_rank_nullity_and_annihilation(self):
        rng = random.Random(3)
        for _ in range(50):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            M = [[Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
            basis = dense_kernel(M, cols)
            assert len(basis) == cols - dense_rank(M)
            for v in basis:
                for row in M:
                    assert sum(a * b for a, b in zip(row, v)) == 0


class TestSparseEngine:
    def test_rref_pivots_canonical(self):
        rows = [{0: Fraction(2), 2: Fraction(2)}, {0: Fraction(1), 1: Fraction(1)}]
        pivots, reduced = rref_sparse(rows, 3)
        assert pivots == [0, 1]
        assert reduced[0] == {0: Fraction(1), 2: Fraction(1)}
        assert reduced[1] == {1: Fraction(1), 2: Fraction(-1)}

    def test_rank_matches_dense(self):
        rng = random.Random(9)
        for _ in range(40):
            rows_n = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            dense = [
                [Fraction(rng.randint(-3, 3)) if rng.random() < 0.5 else Fraction(0) for _ in range(cols)]
                for _ in range(rows_n)
            ]
            sparse = [{j: v for j, v in enumerate(row) if v} for row in dense]
            assert rank_sparse(sparse, cols) == dense_rank(dense)

    def test_echelon_of_empty_and_zero_rows(self):
        assert echelon_sparse([], 3) == ([], [])
        assert echelon_sparse([{}, {1: 0}], 3) == ([], [])
        assert echelon_sparse([{1: Fraction(2, 3), 2: Fraction(1, 2)}], 3) == ([1], [{1: 4, 2: 3}])

    def test_kernel_echelon_order(self):
        free, basis = kernel_sparse([{0: Fraction(1), 1: Fraction(2)}], 3)
        assert free == [1, 2]
        assert basis[0] == {1: Fraction(1), 0: Fraction(-2)}
        assert basis[1] == {2: Fraction(1)}


class TestMatrixOps:
    def test_matmul_shapes(self):
        A = LaurentMatrix.zeros(2, 3)
        B = LaurentMatrix.zeros(3, 1)
        assert (A @ B).rows == 2 and (A @ B).cols == 1
        with pytest.raises(ValueError):
            _ = B @ A

    def test_kron_block_structure(self):
        A = lm([[{0: 2}, {}], [{}, {1: 1}]])
        B = LaurentMatrix.identity(2)
        K = A.kron(B)
        assert K.rows == 4
        assert K.entries[0][0] == P.monomial(0, 2)
        assert K.entries[2][2] == P.monomial(1)
        assert K.entries[0][1].is_zero()

    def test_submatrix_keeps_empty_shapes(self):
        I3 = LaurentMatrix.identity(3)
        empty_rows = I3.submatrix(range(1, 1), range(1))
        assert (empty_rows.rows, empty_rows.cols) == (0, 1)
        empty_cols = I3.submatrix(range(1), range(2, 2))
        assert (empty_cols.rows, empty_cols.cols) == (1, 0)
        assert empty_cols @ empty_rows == LaurentMatrix.zeros(1, 1)
        assert (empty_rows @ empty_cols).rows == (empty_rows @ empty_cols).cols == 0

    def test_elementwise_ops_keep_empty_shapes(self):
        for shape in ((0, 3), (3, 0)):
            Z = LaurentMatrix.zeros(*shape)
            for M in (
                Z.shift(2),
                Z.invert_variable(),
                Z.scale(2),
                Z + Z,
                Z - Z,
            ):
                assert (M.rows, M.cols) == shape
            T = Z.transpose()
            assert (T.rows, T.cols) == shape[::-1]

    def test_exponent_range(self):
        assert exponent_range(lm([[{-2: 1}, {5: 1}]])) == (-2, 5)
        assert exponent_range(LaurentMatrix.zeros(2, 2)) is None


# small and huge (above 2^64) integers and fractions, mixed in one matrix
_VALUES = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.integers(-(2**80), 2**80),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**70)),
)


@st.composite
def _matrices(draw):
    """(dense rows, sparse rows, ncols) with zero and duplicate rows mixed in."""
    ncols = draw(st.integers(1, 7))
    row = st.lists(_VALUES, min_size=ncols, max_size=ncols)
    dense = draw(st.lists(row, max_size=6))
    dense += [[0] * ncols] * draw(st.integers(0, 1))
    if dense:
        dense += draw(st.lists(st.sampled_from(dense), max_size=2))
    dense = draw(st.permutations(dense))
    keep_zeros = draw(st.booleans())
    sparse = [{j: v for j, v in enumerate(r) if v or keep_zeros} for r in dense]
    return dense, sparse, ncols


class TestEliminationProperties:
    @settings(max_examples=200, deadline=None)
    @given(_matrices())
    def test_rref_matches_dense_oracle(self, case):
        dense, sparse, ncols = case
        before = copy.deepcopy(sparse)
        pivots, reduced = rref_sparse(sparse, ncols)
        assert sparse == before
        want_pivots, want_rows = dense_rref(dense, ncols)
        assert pivots == want_pivots
        assert [[r.get(j, Fraction(0)) for j in range(ncols)] for r in reduced] == want_rows
        assert all(type(v) is Fraction and v for r in reduced for v in r.values())

    @settings(max_examples=200, deadline=None)
    @given(_matrices())
    def test_rank_matches_dense_oracle(self, case):
        dense, sparse, ncols = case
        assert rank_sparse(sparse, ncols) == dense_rank(dense)

    @settings(max_examples=200, deadline=None)
    @given(_matrices())
    def test_echelon_agrees_with_rref_and_rank(self, case):
        _, sparse, ncols = case
        before = copy.deepcopy(sparse)
        pivots, echelon = echelon_sparse(sparse, ncols)
        assert sparse == before
        want = rref_sparse(sparse, ncols)
        assert pivots == want[0]
        assert len(pivots) == rank_sparse(sparse, ncols)
        assert all(type(v) is int and v for r in echelon for v in r.values())
        assert [min(r) for r in echelon] == pivots
        assert rref_sparse(echelon, ncols) == want

    @settings(max_examples=200, deadline=None)
    @given(_matrices())
    def test_kernel_vectors_annihilate_every_row(self, case):
        dense, sparse, ncols = case
        free, basis = kernel_sparse(sparse, ncols)
        assert len(basis) == ncols - dense_rank(dense)
        for f, vec in zip(free, basis):
            assert vec[f] == 1
            for r in dense:
                assert sum(r[j] * vec.get(j, 0) for j in range(ncols)) == 0


# Laurent coefficients: the values above plus halves and thirds, so that
# sums cancel to integers
_COEFFS = _VALUES | st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)])
_LAURENTS = st.dictionaries(st.integers(-3, 3), _COEFFS, max_size=3).map(LaurentPoly)


def _laurent_matrices(rows, cols):
    cells = st.lists(_LAURENTS, min_size=cols, max_size=cols)
    return st.lists(cells, min_size=rows, max_size=rows).map(lambda e: LaurentMatrix(e, rows, cols))


def _assert_normal(M):
    bad = [c for row in M.entries for p in row for c in p.terms.values() if not is_normal(c)]
    assert not bad, f"coefficients outside the normal form: {bad!r}"


# integer coefficients only, so that the lcm d of the denominators is 1
_INT_COEFFS = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))
_INT_LAURENTS = st.dictionaries(st.integers(-3, 3), _INT_COEFFS, max_size=3).map(LaurentPoly)


@st.composite
def _invertible_matrices(draw, min_m=1, max_m=3, coeffs=_COEFFS, laurents=_LAURENTS, shifts=False):
    """L D U: unit triangular factors with Laurent entries, D diagonal.

    D is constant, or with ``shifts`` has monomial entries c z^k; either way
    det = prod(D) is a nonzero monomial whose constant is often not a unit of
    Z (2, 1/3, ...).
    """
    m = draw(st.integers(min_m, max_m))
    diag = draw(st.lists(coeffs.filter(bool), min_size=m, max_size=m))
    exps = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m)) if shifts else [0] * m
    L, U = LaurentMatrix.identity(m), LaurentMatrix.identity(m)
    for i in range(m):
        for j in range(i):
            L.entries[i][j] = draw(laurents)
            U.entries[j][i] = draw(laurents)
    D = LaurentMatrix.diagonal([LaurentPoly.monomial(k, c) for k, c in zip(exps, diag)])
    return L @ D @ U


def _naive_adjugate(M):
    """The terms of adj M by cofactors: entry (i, j) is (-1)^(i+j) det of M without row j and column i."""
    m = M.rows

    def cofactor(i, j):
        minor = M.submatrix([r for r in range(m) if r != j], [c for c in range(m) if c != i])
        return naive_det(minor).scale((-1) ** (i + j)).terms

    return [[cofactor(i, j) for j in range(m)] for i in range(m)]


def _terms(M):
    return [[p.terms for p in row] for row in M.entries]


@st.composite
def _square_matrices(draw, integral):
    """Square Laurent matrices of size 0..4 whose coefficient lcm d is 1 (integral) or > 1.

    A non-integral matrix gets z^4 / 2 added to entry (0, 0); no drawn
    monomial has exponent 4, so it cannot cancel.  (The 0x0 matrix has d = 1
    either way.)
    """
    m = draw(st.integers(0, 4))
    cells = st.lists(_INT_LAURENTS if integral else _LAURENTS, min_size=m, max_size=m)
    M = LaurentMatrix(draw(st.lists(cells, min_size=m, max_size=m)), m, m)
    if m and not integral:
        M.entries[0][0] = M.entries[0][0] + P.monomial(4, Fraction(1, 2))
    return M


def _sparse_cells(laurents):
    """Laurent entries that are zero with probability about 0.6."""
    return st.tuples(st.integers(0, 9), laurents.filter(bool)).map(lambda t: P.zero() if t[0] < 6 else t[1])


def _sparse_laurent_matrices(rows, cols, laurents=_LAURENTS):
    cells = st.lists(_sparse_cells(laurents), min_size=cols, max_size=cols)
    return st.lists(cells, min_size=rows, max_size=rows).map(lambda e: LaurentMatrix(e, rows, cols))


@st.composite
def _sparse_matrices(draw, integral):
    """Square Laurent matrices of size 1..6 whose cells are empty with probability about 0.6.

    Such patterns reach zero rows and columns, cores of several blocks and
    non-square components, which dense draws rarely do.
    """
    m = draw(st.integers(1, 6))
    return draw(_sparse_laurent_matrices(m, m, _INT_LAURENTS if integral else _LAURENTS))


def _snapshot(*matrices):
    """Every entry's terms, in insertion order and with each coefficient's class."""
    return [[[[(e, c.__class__, c) for e, c in p.terms.items()] for p in row] for row in M.entries] for M in matrices]


class TestExactNormalForm:
    @pytest.mark.parametrize("matrices", [_laurent_matrices, _sparse_laurent_matrices], ids=["dense", "sparse"])
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
    def test_matmul_matches_fraction_reference(self, matrices, n, k, p, data):
        # the row-sparse product skips zero entries of both operands, and the
        # entries no term reaches share one zero; no operand is written to
        A = data.draw(matrices(n, k))
        B = data.draw(matrices(k, p))
        before = _snapshot(A, B)
        C = A @ B
        assert _snapshot(A, B) == before
        assert (C.rows, C.cols) == (n, p)
        _assert_normal(C)
        assert _terms(C) == naive_matmul(A, B)
        # a product with shared zero entries as an operand of the next one
        X = data.draw(matrices(p, k))
        product = _snapshot(C, X)
        D = C @ X
        assert _snapshot(C, X) == product and _snapshot(A, B) == before
        _assert_normal(D)
        assert _terms(D) == naive_matmul(C, X)

    @settings(max_examples=60, deadline=None)
    @given(_invertible_matrices())
    def test_inverse_with_constant_determinant(self, M):
        adj, det = mat_adjugate(M)
        assert det.is_constant() and not det.is_zero()
        inv = mat_inverse(adj, det)
        _assert_normal(inv)
        identity = [[{0: 1} if i == j else {} for j in range(M.rows)] for i in range(M.rows)]
        assert naive_matmul(M, inv) == naive_matmul(inv, M) == identity

    @pytest.mark.parametrize("matrices", [_laurent_matrices, _sparse_laurent_matrices], ids=["dense", "sparse"])
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 4), st.integers(-3, 3), _COEFFS, st.data())
    def test_entrywise_maps_match_fraction_reference(self, matrices, n, k, s, c, data):
        # an int or Fraction scales the coefficients; shift, invert_variable
        # and scale pass zero entries through as they are
        M = data.draw(matrices(n, k))
        before = _snapshot(M)
        S, V, W = M.shift(s), M.invert_variable(), M.scale(c)
        assert _snapshot(M) == before
        for R in (S, V, W):
            assert (R.rows, R.cols) == (n, k)
            _assert_normal(R)
        assert _terms(S) == [[naive_mul(e, P.monomial(s)) for e in row] for row in M.entries]
        assert _terms(V) == [[{-d: v for d, v in e.terms.items()} for e in row] for row in M.entries]
        assert _terms(W) == [[naive_mul(e, P.monomial(0, c)) for e in row] for row in M.entries]
        # the maps' outputs share M's zero entries, and a product of them writes to none
        mapped = _snapshot(S, V, W)
        Y = S @ W.transpose()
        assert _snapshot(M) == before and _snapshot(S, V, W) == mapped
        assert _terms(Y) == naive_matmul(S, W.transpose())

    @pytest.mark.parametrize("integral", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_adjugate_matches_cofactor_reference(self, integral, data):
        # d = 1 skips the scalings by d; d > 1 runs the pass on d M and scales back
        M = data.draw(_square_matrices(integral))
        adj, det = mat_adjugate(M)
        assert (adj.rows, adj.cols) == (M.rows, M.rows)
        _assert_normal(adj)
        assert all(is_normal(c) for c in det.terms.values())
        assert det == naive_det(M)
        assert _terms(adj) == _naive_adjugate(M)

    @pytest.mark.parametrize("integral", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_det_inverse_matches_adjugate(self, integral, data):
        # singular and non-unimodular draws come back as (det, None)
        assert_det_inverse(data.draw(_square_matrices(integral)))
        assert_det_inverse(data.draw(_sparse_matrices(integral)))
        coeffs, laurents = (_INT_COEFFS, _INT_LAURENTS) if integral else (_COEFFS, _LAURENTS)
        M = data.draw(_invertible_matrices(0, 4, coeffs, laurents, shifts=True))
        assert assert_det_inverse(M)[1] is not None

    @pytest.mark.parametrize("integral", [True, False])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_inverse_matches_fraction_reference(self, integral, data):
        # det = c z^e: each adjugate entry is shifted by -e and scaled by 1/c in one dict
        coeffs, laurents = (_INT_COEFFS, _INT_LAURENTS) if integral else (_COEFFS, _LAURENTS)
        M = data.draw(_invertible_matrices(0, 4, coeffs, laurents, shifts=True))
        adj, det = mat_adjugate(M)
        assert det == naive_det(M) and det.is_monomial()
        ((e, c),) = det.terms.items()
        before = _snapshot(adj)
        inv = mat_inverse(adj, det)
        assert _snapshot(adj) == before
        _assert_normal(inv)
        want = [[{k - e: Fraction(v, c) for k, v in cell.items()} for cell in row] for row in _naive_adjugate(M)]
        assert _terms(inv) == want
        identity = [[{0: 1} if i == j else {} for j in range(M.rows)] for i in range(M.rows)]
        assert naive_matmul(M, inv) == naive_matmul(inv, M) == identity

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_ext_gcd_with_zero_entries(self, k, data):
        # the Bezout updates skip products with zero entries of U and Uinv
        polys = st.dictionaries(st.integers(0, 3), _COEFFS, max_size=3).map(LaurentPoly).filter(bool)
        fs = data.draw(st.lists(polys, min_size=k, max_size=k))
        zeros = data.draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=k - 1))
        fs = [P.zero() if i in zeros else f for i, f in enumerate(fs)]
        g, U, Uinv = poly_ext_gcd(fs)
        U, Uinv = LaurentMatrix(U), LaurentMatrix(Uinv)
        _assert_normal(U)
        _assert_normal(Uinv)
        assert g.leading_coeff() == 1
        F = LaurentMatrix([[f] for f in fs])
        assert naive_matmul(U, F) == [[g.terms]] + [[{}]] * (k - 1)
        identity = [[{0: 1} if i == j else {} for j in range(k)] for i in range(k)]
        assert naive_matmul(U, Uinv) == naive_matmul(Uinv, U) == identity
