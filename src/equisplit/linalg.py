"""Exact matrices of Laurent polynomials and rational linear algebra.

Two small engines live here:

* ``LaurentMatrix`` — rectangular matrices over the Laurent ring, with the
  exact adjugate and determinant from one Faddeev–LeVerrier pass of matrix
  products (``mat_adjugate``), the inverse ``mat_inverse`` of a matrix with
  monomial determinant, and Kronecker products.  ``mat_det_inverse`` takes
  det M and M^-1 together by Gauss–Jordan elimination pivoting on monomial
  entries, the units of the ring.  It runs on the entries' raw term dicts,
  so its cost follows their nonzero terms, and wraps polynomials only for
  its results; the adjugate pass runs only on the core left with no unit
  entry, which is often empty, once per connected block of the core's
  nonzero pattern.  The matrix product is fused and row-sparse (Gustavson,
  ACM TOMS 4, 1978): row i of the product gathers a * (row k of the right
  operand) over the nonzero entries a of row i of the left one, so only
  nonzero entry pairs are visited, and each output entry is one
  coefficient dict accumulated straight from the operands' terms, with no
  intermediate polynomial per product.  The entries that no term reaches
  share one zero polynomial, and the entrywise maps (shift, z -> 1/z,
  scaling, division by a unit determinant) pass a zero entry through as
  itself; see ``LaurentMatrix`` for why sharing is safe.  Results are
  wrapped by the private constructor ``LaurentMatrix._adopt``, which takes
  only freshly built rows of a known shape and so skips the copy and the
  ragged check.  Scalar scalings (by the coefficient lcm, by a sign, by an
  inverse determinant) scale coefficients and never go through the Laurent
  product.
* rational row reduction — one sparse, fraction-free elimination routine
  over Python integers, used by every cohomology computation.  Rows enter
  with their denominators cleared, are combined by integer
  cross-multiplication and kept primitive by dividing out their content.
  ``echelon_sparse`` is the forward pass, whose pivot columns are already
  those of the canonical reduced form; ``rank_sparse`` counts them, and
  ``rref_sparse`` back-substitutes and returns to ``Fraction`` only to
  normalize each row by its pivot, so its output is the canonical reduced
  row echelon form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Iterable, Sequence

from .laurent import LaurentPoly, Scalar, scalar_div


class LaurentMatrix:
    """A rows-by-cols grid of LaurentPoly entries (row-major, immutable use).

    Entries may be shared: between matrices (a submatrix, a transpose, an
    entrywise map's zero entries) and within one (the zero entries of a
    product).  That is safe because no code mutates a ``LaurentPoly``'s
    ``terms`` after construction; only ``dict(...)`` copies are ever
    written.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[LaurentPoly]], rows: int | None = None, cols: int | None = None):
        entries = [list(row) for row in entries]
        if rows is None:
            rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if entries else 0
        if len(entries) != rows or any(len(row) != cols for row in entries):
            raise ValueError("ragged or mis-sized matrix data")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def _adopt(cls, entries: list[list[LaurentPoly]], rows: int, cols: int) -> "LaurentMatrix":
        """Wrap freshly built rows of the given shape: no copy, no ragged check."""
        out = cls.__new__(cls)
        out.rows = rows
        out.cols = cols
        out.entries = entries
        return out

    @classmethod
    def identity(cls, n: int) -> "LaurentMatrix":
        return cls(
            [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(n)] for i in range(n)],
            n,
            n,
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "LaurentMatrix":
        return cls([[LaurentPoly.zero() for _ in range(cols)] for _ in range(rows)], rows, cols)

    @classmethod
    def diagonal(cls, diag: Sequence[LaurentPoly]) -> "LaurentMatrix":
        n = len(diag)
        out = cls.zeros(n, n)
        for i, d in enumerate(diag):
            out.entries[i][i] = d
        return out

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.entries == other.entries

    __hash__ = None

    def __repr__(self) -> str:
        body = "; ".join("[" + ", ".join(repr(e) for e in row) + "]" for row in self.entries)
        return f"LaurentMatrix({self.rows}x{self.cols}: {body})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._check_same_shape(other)
        return LaurentMatrix._adopt(
            [[p + q for p, q in zip(r, s)] for r, s in zip(self.entries, other.entries)], self.rows, self.cols
        )

    def __sub__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        self._check_same_shape(other)
        return LaurentMatrix._adopt(
            [[p - q for p, q in zip(r, s)] for r, s in zip(self.entries, other.entries)], self.rows, self.cols
        )

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        # row-sparse (Gustavson): row k of other as its nonzero (j, terms)
        # pairs, taken once; row i of the product gathers a * other[k] over
        # the nonzero entries a = self[i][k] in ascending k, so each output
        # entry sees the terms in the same order as an inner-index loop
        brows = [[(j, p.terms) for j, p in enumerate(row) if p.terms] for row in other.entries]
        zero = LaurentPoly()  # every entry that no term reaches
        from_sums = LaurentPoly.from_sums
        cols = other.cols
        entries = []
        for row in self.entries:
            acc: dict[int, dict[int, Scalar]] = {}
            for k, a in enumerate(row):
                at = a.terms
                brow = brows[k]
                if not at or not brow:
                    continue
                aitems = at.items()
                for j, bt in brow:
                    sums = acc.get(j)
                    if sums is None:
                        sums = acc[j] = {}
                    get = sums.get
                    bitems = bt.items()
                    for e1, c1 in aitems:
                        for e2, c2 in bitems:
                            e = e1 + e2
                            # the first product is stored as it is: 0 + Fraction
                            # would take Fraction's slow reflected add
                            s = get(e)
                            sums[e] = c1 * c2 if s is None else s + c1 * c2
            orow = [zero] * cols
            for j, sums in acc.items():
                orow[j] = from_sums(sums)
            entries.append(orow)
        return LaurentMatrix._adopt(entries, self.rows, cols)

    def scale(self, c: Scalar) -> "LaurentMatrix":
        """Multiply every entry by the scalar c (no Laurent product)."""
        return LaurentMatrix._adopt(
            [[p.scale(c) if p.terms else p for p in row] for row in self.entries], self.rows, self.cols
        )

    def shift(self, k: int) -> "LaurentMatrix":
        """Multiply every entry by z**k (an exponent shift, no arithmetic)."""
        return LaurentMatrix._adopt(
            [[p.shift(k) if p.terms else p for p in row] for row in self.entries], self.rows, self.cols
        )

    def transpose(self) -> "LaurentMatrix":
        return LaurentMatrix._adopt(
            [[row[j] for row in self.entries] for j in range(self.cols)], self.cols, self.rows
        )

    def invert_variable(self) -> "LaurentMatrix":
        """Substitute z -> 1/z in every entry."""
        return LaurentMatrix._adopt(
            [[p.invert_variable() if p.terms else p for p in row] for row in self.entries], self.rows, self.cols
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "LaurentMatrix":
        return LaurentMatrix._adopt(
            [[self.entries[i][j] for j in col_idx] for i in row_idx], len(row_idx), len(col_idx)
        )

    def kron(self, other: "LaurentMatrix") -> "LaurentMatrix":
        """Kronecker product; block (i, j) is self[i][j] * other."""
        out = LaurentMatrix.zeros(self.rows * other.rows, self.cols * other.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.entries[i][j]
                if a.is_zero():
                    continue
                for p in range(other.rows):
                    for q in range(other.cols):
                        b = other.entries[p][q]
                        if not b.is_zero():
                            out.entries[i * other.rows + p][j * other.cols + q] = a * b
        return out

    def _check_same_shape(self, other: "LaurentMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def mat_adjugate(M: LaurentMatrix) -> tuple[LaurentMatrix, LaurentPoly]:
    """(adj M, det M) of any square M, singular or not, by Faddeev–LeVerrier.

    N_1 = I and N_{k+1} = M N_k + c_k I with c_k = -tr(M N_k)/k give
    adj M = (-1)^(m-1) N_m (Faddeev & Faddeeva, Computational Methods of
    Linear Algebra, 1963, §24).  M N_1 = M needs no product, so the pass takes
    m - 2 fused products.  It runs on d M, with d the lcm of M's coefficient
    denominators: the c_k of an integer matrix are the integer coefficients
    of its characteristic polynomial, so each division by k is exact and
    every product stays over the integers.  By Cayley–Hamilton
    d M adj(d M) = det(d M) I, so det(d M) = d^m det M is row 0 of d M times
    column 0 of adj(d M) = (-1)^(m-1) N_m, an integer product; the scalings
    by d and back are coefficient scalings, skipped when d = 1.  That row
    times that column is one fused 1 x m by m x 1 product, which skips zero
    entries and calls no ``LaurentPoly`` product.
    """
    if not M.is_square():
        raise ValueError("adjugate of a non-square matrix")
    m = M.rows
    if m == 0:
        return LaurentMatrix.zeros(0, 0), LaurentPoly.one()
    den = reduce(lcm, (v.denominator for row in M.entries for p in row for v in p.terms.values()), 1)
    dM = M if den == 1 else M.scale(den)
    N = LaurentMatrix.identity(m)
    for k in range(1, m):
        MN = dM @ N if k > 1 else dM
        tr = sum((MN.entries[i][i] for i in range(m)), LaurentPoly.zero())
        c = LaurentPoly.from_sums({e: scalar_div(-v, k) for e, v in tr.terms.items()})
        N = LaurentMatrix._adopt(
            [[p + c if i == j else p for j, p in enumerate(row)] for i, row in enumerate(MN.entries)], m, m
        )
    sign = (-1) ** (m - 1)
    adj = N if sign == den == 1 else N.scale(Fraction(sign, den ** (m - 1)))  # adj(dM) = d^(m-1) adj M
    det = (dM.submatrix([0], range(m)) @ N.submatrix(range(m), [0])).entries[0][0]
    return adj, det.scale(Fraction(sign, den**m))


def mat_det(M: LaurentMatrix) -> LaurentPoly:
    """Exact determinant: the second half of ``mat_adjugate``."""
    return mat_adjugate(M)[1]


def mat_inverse(adj: LaurentMatrix, det: LaurentPoly) -> LaurentMatrix:
    """Exact inverse adj / det over the Laurent ring, given det = c*z^e.

    Takes the pair ``mat_adjugate`` returns and divides each entry of the
    adjugate by the unit det (``_unit_quotient``); a bundle's det pass
    inverts each block of its unit-free core here.
    """
    if not det.is_monomial():
        raise ValueError(f"determinant {det!r} is not a nonzero monomial")
    ((e, c),) = det.terms.items()
    inv = scalar_div(1, c)
    return LaurentMatrix._adopt(
        [[_adopt_terms(_unit_quotient(p.terms, e, inv)) if p.terms else p for p in row] for row in adj.entries],
        adj.rows,
        adj.cols,
    )


# -- the det pass on raw term dicts -----------------------------------------
# Entries are dicts {exponent: coefficient} in normal form, a zero entry
# being absent or empty.  Helpers return fresh dicts and never mutate their
# arguments, so a matrix's own term dicts can be shared.


def _adopt_terms(terms: dict[int, Scalar]) -> LaurentPoly:
    """Wrap normal-form terms as a LaurentPoly: no copy, no check."""
    out = LaurentPoly.__new__(LaurentPoly)
    out.terms = terms
    return out


def _submul(a: dict[int, Scalar] | None, f: dict[int, Scalar], g: dict[int, Scalar]) -> dict[int, Scalar]:
    """The terms of a - f*g, accumulated in one dict; a is None for zero."""
    sums = dict(a) if a else {}
    get = sums.get
    gitems = g.items()
    for e1, c1 in f.items():
        for e2, c2 in gitems:
            e = e1 + e2
            s = get(e)
            sums[e] = -(c1 * c2) if s is None else s - c1 * c2
    return LaurentPoly.from_sums(sums).terms


def _unit_quotient(p: dict[int, Scalar], e: int, inv: Scalar) -> dict[int, Scalar]:
    """The terms of p / (k z^e), given inv = 1/k: an exponent shift, and a scaling unless k = 1."""
    if inv == 1:
        return {d - e: v for d, v in p.items()}
    return LaurentPoly.from_sums({d - e: inv * v for d, v in p.items()}).terms


def _dense_row(row: dict[int, dict[int, Scalar]], m: int) -> list[LaurentPoly]:
    """A sparse row {column: terms} as m LaurentPoly entries."""
    return [_adopt_terms(row[j]) if j in row else _adopt_terms({}) for j in range(m)]


def _core_blocks(W: list[dict[int, dict]], rows: list[int], cols: list[int]) -> list[tuple[list[int], list[int]]] | None:
    """The connected components of the core's nonzero pattern, as square (rows, cols) blocks.

    Rows and columns are ascending within a block, and blocks are ordered by
    their least row.  None when a component is not square: the pattern
    alone then shows det 0.  The core is square, so when every component
    is, every column lies in one: an empty column leaves some component
    with more rows than columns.
    """
    col_rows: dict[int, list[int]] = {c: [] for c in cols}
    for r in rows:
        for c in W[r]:
            col_rows[c].append(r)
    seen_rows: set[int] = set()
    seen_cols: set[int] = set()
    blocks = []
    for r0 in rows:
        if r0 in seen_rows:
            continue
        seen_rows.add(r0)
        block_rows, block_cols, stack = [], [], [r0]
        while stack:
            r = stack.pop()
            block_rows.append(r)
            for c in W[r]:
                if c not in seen_cols:
                    seen_cols.add(c)
                    block_cols.append(c)
                    for t in col_rows[c]:
                        if t not in seen_rows:
                            seen_rows.add(t)
                            stack.append(t)
        if len(block_rows) != len(block_cols):
            return None
        blocks.append((sorted(block_rows), sorted(block_cols)))
    return blocks


def mat_det_inverse(M: LaurentMatrix) -> tuple[LaurentPoly, LaurentMatrix | None]:
    """(det M, M^-1), or (det M, None) when det M is not a nonzero monomial.

    The units of the Laurent ring are its monomials, so Gauss–Jordan
    elimination on [M | I] may pivot on any monomial entry exactly: the
    pivot row is divided by it and its column cleared from every other row.
    Pivots are taken while an unused row and column still meet in a
    monomial, each time the one with the fewest other nonzeros in its unused
    row and column (Markowitz, Management Sci. 3, 1957), ties broken by
    (row, column); the row and column counts are taken once per step.  Every
    entry is then a minor of M divided by a unit, so entries stay small.
    The elimination runs on the entries' raw term dicts, kept sparse by
    column, and forms no LaurentPoly until the results are wrapped.

    The unused rows and columns leave a unit-free core S, often empty.  S is
    split into the connected components of its nonzero pattern; if one is
    not square, det M = 0.  Else each is a square block S_b and takes one
    Faddeev–LeVerrier pass (``mat_adjugate``), up to the first det S_b = 0.
    With sigma pairing each pivot row with its column and the k-th row of
    each block with its k-th column, det M is sgn(sigma) times the product of
    the pivots times the product of the det S_b.  When every det S_b is a
    monomial, the block's rows of the right half are multiplied by S_b^-1,
    and B times them is taken off the pivot rows, B being the pivot rows'
    entries in the unused columns; row sigma(r) of M^-1 is then row r of the
    right half.  det M and M^-1 are unique, so they equal what
    ``mat_adjugate`` and ``mat_inverse`` give for M.
    """
    if not M.is_square():
        raise ValueError("determinant of a non-square matrix")
    m = M.rows
    # row t of W and of V maps each column to the terms of its nonzero
    # entry; W keeps the unused columns only, and shares M's term dicts
    W = [{j: p.terms for j, p in enumerate(row) if p.terms} for row in M.entries]
    V: list[dict[int, dict[int, Scalar]]] = [{i: {0: 1}} for i in range(m)]
    rows = list(range(m))  # unused
    pivot_col: dict[int, int] = {}
    unit_e, unit_k = 0, 1  # the product of the pivots, unit_k * z^unit_e
    while True:
        # one sweep of the unused rows: the monomial entries, with their
        # rows' nonzero counts, and every unused column's nonzero count
        units = []
        col_count: dict[int, int] = {}
        for r in rows:
            Wr = W[r]
            n = len(Wr)
            for c, t in Wr.items():
                col_count[c] = col_count.get(c, 0) + 1
                if len(t) == 1:
                    units.append((n, r, c))
        if not units:
            break
        _, r, c = min((n + col_count[c], r, c) for n, r, c in units) if len(units) > 1 else units[0]
        rows.remove(r)
        pivot_col[r] = c
        Wr, Vr = W[r], V[r]
        ((e, k),) = Wr.pop(c).items()
        unit_e += e
        unit_k *= k
        if e or k != 1:
            inv = scalar_div(1, k)
            W[r] = Wr = {j: _unit_quotient(t, e, inv) for j, t in Wr.items()}
            V[r] = Vr = {j: _unit_quotient(t, e, inv) for j, t in Vr.items()}
        for Wt, Vt in zip(W, V):
            f = Wt.pop(c, None)  # the pivot row holds c no longer
            if f is None:
                continue
            for row, pivot_row in ((Wt, Wr), (Vt, Vr)):
                for j, g in pivot_row.items():
                    t = _submul(row.get(j), f, g)
                    if t:
                        row[j] = t
                    else:
                        del row[j]

    used = set(pivot_col.values())
    cols = [c for c in range(m) if c not in used]
    blocks = _core_blocks(W, rows, cols)
    if blocks is None:
        return LaurentPoly.zero(), None
    # sigma: pivot row r -> pivot_col[r], a block's k-th row -> its k-th column
    sigma = dict(pivot_col)
    for block_rows, block_cols in blocks:
        sigma.update(zip(block_rows, block_cols))
    if sum(sigma[i] > sigma[j] for i in range(m) for j in range(i + 1, m)) % 2:
        unit_k = -unit_k
    det_core = None
    passes = []
    for block_rows, block_cols in blocks:
        n = len(block_rows)
        S = [[_adopt_terms(W[r].get(c) or {}) for c in block_cols] for r in block_rows]
        adj, det_block = mat_adjugate(LaurentMatrix._adopt(S, n, n))
        if not det_block.terms:
            return LaurentPoly.zero(), None
        det_core = det_block if det_core is None else det_core * det_block
        passes.append((adj, det_block))
    det = LaurentPoly.monomial(unit_e, unit_k) if det_core is None else det_core.shift(unit_e).scale(unit_k)
    if not det.is_monomial():
        return det, None
    inverse: list[list[LaurentPoly]] = [[]] * m
    for (block_rows, block_cols), (adj, det_block) in zip(blocks, passes):
        right = LaurentMatrix._adopt([_dense_row(V[r], m) for r in block_rows], len(block_rows), m)
        for c, row in zip(block_cols, (mat_inverse(adj, det_block) @ right).entries):
            inverse[c] = row
    pivots = list(pivot_col)
    VP = LaurentMatrix._adopt([_dense_row(V[p], m) for p in pivots], len(pivots), m)
    if pivots and cols:
        B = [[_adopt_terms(W[p].get(c) or {}) for c in cols] for p in pivots]
        VU = LaurentMatrix._adopt([inverse[c] for c in cols], len(cols), m)
        VP = VP - LaurentMatrix._adopt(B, len(pivots), len(cols)) @ VU
    for p, row in zip(pivots, VP.entries):
        inverse[sigma[p]] = row
    return det, LaurentMatrix._adopt(inverse, m, m)


# -- fraction-free row reduction ------------------------------------------


def _integer_row(row: dict[int, Scalar]) -> dict[int, int]:
    """The row scaled by the lcm of its denominators, zeros dropped; callers pass raw coefficients."""
    den = reduce(lcm, (v.denominator for v in row.values() if v.__class__ is not int), 1)
    if den == 1:  # already integral: .numerator keeps a Fraction(k, 1) an int
        return {c: v.numerator for c, v in row.items() if v}
    return {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}


def _combine(row: dict[int, int], a: int, b: int, piv: dict[int, int]) -> dict[int, int]:
    """a*row - b*piv divided by its content.

    a and b are the entries of piv and row in the column being eliminated,
    so that column cancels; both are divided by their gcd first.
    """
    g = gcd(a, b)
    if g > 1:
        a //= g
        b //= g
    if a != 1:
        row = {c: a * v for c, v in row.items()}
    for c, v in piv.items():
        s = row.get(c, 0) - b * v
        if s:
            row[c] = s
        else:
            del row[c]
    # reduce, not gcd(*values): one argument tuple per row fills CPython's
    # tuple free lists, which raised peak RSS by about 1 MB
    g = reduce(gcd, row.values(), 0)
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    return row


def echelon_sparse(rows: Iterable[dict[int, Scalar]], ncols: int) -> tuple[list[int], list[dict[int, int]]]:
    """Fraction-free forward elimination over the integers.

    Rows may hold ``int`` or ``Fraction`` values; each enters with its
    denominators cleared.  A row is reduced against the pivot row of its
    leading column by integer cross-multiplication and then divided by its
    content, which keeps entries small as Bareiss's exact division by the
    previous pivot does (Math. Comp. 22, 1968), with no rational arithmetic.
    Columns are taken in ascending order, so the pivot columns are those of
    the canonical reduced echelon form.  Returns (pivot columns, echelon
    rows): integer rows spanning the input's row space, row k leading at
    pivots[k].
    """
    # bucket rows by their current leading column
    pending: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        row = _integer_row(row)
        if row:
            pending.setdefault(min(row), []).append(row)

    pivots: list[int] = []
    echelon: list[dict[int, int]] = []
    for col in range(ncols):
        bucket = pending.pop(col, None)
        if not bucket:
            continue
        piv = bucket.pop(0)
        a = piv[col]
        for row in bucket:
            row = _combine(row, a, row[col], piv)
            if row:
                pending.setdefault(min(row), []).append(row)
        pivots.append(col)
        echelon.append(piv)
    return pivots, echelon


def rref_sparse(rows: Iterable[dict[int, Scalar]], ncols: int) -> tuple[list[int], list[dict[int, Fraction]]]:
    """Reduced row echelon form of sparse rational rows.

    Columns are eliminated in ascending index order, so the pivot set and the
    reduced rows are canonical.  Returns (pivot column list, reduced rows),
    with reduced row k having leading 1 in pivots[k] and zeros in every other
    pivot column.  The elimination runs over the integers; only the final
    division of each row by its pivot entry produces fractions.
    """
    pivots, echelon = echelon_sparse(rows, ncols)
    position = {p: k for k, p in enumerate(pivots)}
    # back-substitute from the bottom, so every row used is already reduced
    for k in range(len(pivots) - 1, -1, -1):
        row = echelon[k]
        for c in [c for c in row if c in position and c != pivots[k]]:
            j = position[c]
            row = _combine(row, echelon[j][c], row[c], echelon[j])
        echelon[k] = row
    reduced = []
    for p, row in zip(pivots, echelon):
        lead = row[p]
        reduced.append({c: Fraction(row[c], lead) for c in sorted(row)})
    return pivots, reduced


def rank_sparse(rows: Iterable[dict[int, Scalar]], ncols: int) -> int:
    """Rank only; forward elimination without back-substitution."""
    return len(echelon_sparse(rows, ncols)[0])
