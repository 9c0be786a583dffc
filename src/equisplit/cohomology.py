"""Exact sheaf cohomology on the projective line, with weight grading.

Weight decompositions are ``Character`` values: finite multisets of weights
with integer multiplicities.

A global section is a pair (f, g) of polynomial vectors with g(1/z) = A f,
and every exponent bound below is read off one component at a time.  With
lo_i the least exponent of row i of A and hi'_j the greatest exponent of row
j of A^-1 (the bundle's cached inverse transition):

* h = g(1/z) = A f has component i in [lo_i, 0]: at least lo_i because f is
  polynomial, at most 0 because g is.  A component with lo_i > 0 is zero.
* f = A^-1 h has component j of degree at most hi'_j, since every exponent
  of h is <= 0.  A component with hi'_j < 0 is zero.

H^0 is computed by the inverse parametrization: the unknowns are the
coefficients h[i][e], e in [lo_i, 0], and f = A^-1 h is polynomial iff every
coefficient of z^x with x < 0 in A^-1 h vanishes.  That is a finite rational
linear system, graded by the weight lambdaInf[i] - e*a of the unknown
h[i][e].  One forward elimination per bundle solves it, and its result is
cached on the bundle.  The free unknowns are the non-pivot columns, so
dim H^0 and the character are read off the pivots with no back-substitution.
The unknowns are ordered by exponent, then component, so those with e <= -s
form a prefix: the unknowns of E(-s), with the same rows, and
dim H^0(E(-s)) is the number of free unknowns among them, for every s >= 0.
Only a caller that needs sections gets the canonical kernel, reduced from
the cached echelon rows on each request: no row meets two weight classes,
so every canonical kernel vector is homogeneous.  A caller that needs only
the first kernel vector (the eigen-section of a peel) reduces only the
echelon rows whose pivots precede its free unknown.  Sections (f, g) are
built from it only on request.  An unknown outside its component's bound
would be zero in every kernel vector, so leaving it out changes neither the
pivots nor the canonical kernel.

H^1 is computed from the two-chart cover complex (f, g) -> A f - g(1/z),
truncated by the same bounds.

* Kernel: the unknowns are f[j][e], e in [0, hi'_j].  Each equation of
  component i and exponent x in [lo_i, 0] holds the unknown g_i of degree -x,
  which no other equation meets, so g absorbs those equations; the kernel
  rank runs over the equations x >= 1 of A f alone, and
  dim H^0 = sum_j max(0, hi'_j + 1) - rank.
* Cokernel: with lo'_i the least exponent of column i of A^-1,
  z^x e_i = A (A^-1 z^x e_i) has a polynomial preimage for x >= -lo'_i, and
  every exponent <= 0 is some g(1/z).  So with W_i = max(0, -lo'_i - 1) and
  P the projection onto the overlap exponents (i, x), x in [1, W_i],
  H^1 = O_window / P(A f).  A z^e e_j has exponents >= lo + e (lo the least
  exponent of A), so chart-0 chains of degree <= max_i W_i + max(0, -lo)
  reach the whole window.  Every W_i = 0 gives H^1 = 0.  The cokernel
  elimination stops at the forward pass: the cokernel is spanned by the
  non-pivot columns.

All three systems come from one builder, ``_coefficient_rows``: the
equations "coefficient of z^x in M u vanishes", x in a half-open window,
for unknowns u in per-component exponent boxes.  H^0 is M = A^-1 on
[lo_i, 0], x < 0; the kernel is M = A on [0, hi'_j], x >= 1; the cokernel
is M = A^T on [-W_i, -1] (overlap exponent x as -x), x <= 0 (generator z^e
as -e).  Each entry's terms are sorted once, A's for both halves, and fill
the rows they meet directly, so building costs what the system's nonzero
terms cost, and rows come in a fixed order: every elimination, and with it
every pivot, is the same on every run.  The bounds hi'_j and lo'_i come
from one pass over A^-1, and weights are plain tuple arithmetic.

Every entry point takes A^-1 from ``E.inverse_transition()``, so a singular
transition raises its ValueError.  The Euler identity h0 - h1 = degree +
rank stays armed: a failure raises InvariantViolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .bundle import (
    EquivariantBundle,
    InvariantViolation,
    Weight,
    degree,
    dual,
    transition_law_violations,
    twist,
)
from .laurent import LaurentPoly, Scalar
from .linalg import LaurentMatrix, echelon_sparse, rank_sparse, rref_sparse


class Character:
    """A finite multiset of weights with integer (possibly negative) multiplicities.

    Multiplicities and weight entries must be exactly ``int``; anything else,
    ``bool`` included, raises TypeError.
    """

    __slots__ = ("mult",)

    def __init__(self, mult: dict[Weight, int] | None = None):
        out = {}
        for w, m in (mult or {}).items():
            w = tuple(w)
            for x in (m, *w):  # a plain loop: any() over a generator costs 2x here
                if x.__class__ is not int:
                    raise TypeError(f"character weights and multiplicities must be int, got {w!r}: {m!r}")
            if m:
                out[w] = m
        self.mult = out

    @classmethod
    def from_weights(cls, weights: Iterable[Weight]) -> "Character":
        out: dict[Weight, int] = {}
        for w in weights:
            w = tuple(w)
            out[w] = out.get(w, 0) + 1
        return cls(out)

    def total(self) -> int:
        """Sum of multiplicities (the dimension, for honest characters)."""
        return sum(self.mult.values())

    def __add__(self, other: "Character") -> "Character":
        out = dict(self.mult)
        for w, m in other.mult.items():
            out[w] = out.get(w, 0) + m
        return Character(out)

    def __sub__(self, other: "Character") -> "Character":
        return self + Character({w: -m for w, m in other.mult.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Character):
            return NotImplemented
        return self.mult == other.mult

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.mult)

    def to_json(self) -> list[dict]:
        return [{"weight": list(w), "mult": m} for w, m in sorted(self.mult.items())]

    def __repr__(self) -> str:
        inner = ", ".join(f"{w}: {m}" for w, m in sorted(self.mult.items()))
        return f"Character({{{inner}}})"


def _times_column(M: LaurentMatrix, v: tuple[LaurentPoly, ...]) -> tuple[LaurentPoly, ...]:
    """M v through one fused matrix product, v taken as a column."""
    return tuple(row[0] for row in (M @ LaurentMatrix([[p] for p in v], len(v), 1)).entries)


@dataclass
class Section:
    """A global section: chart-0 vector f in k[z]^m, chart-inf vector g in k[w]^m.

    Compatibility (convention C1): g(1/z) = A(z) f(z) exactly.  ``weight`` is
    set when the section is a torus eigenvector.
    """

    f: tuple[LaurentPoly, ...]
    g: tuple[LaurentPoly, ...]
    weight: Weight | None = None

    def compatibility_violation(self, E: EquivariantBundle) -> str | None:
        for i, lhs in enumerate(_times_column(E.A, self.f)):
            if lhs != self.g[i].invert_variable():
                return f"component {i}: A f != g(1/z)"
        for i, p in enumerate(self.f):
            if not p.is_polynomial():
                return f"f[{i}] has negative exponents"
        for i, p in enumerate(self.g):
            if not p.is_polynomial():
                return f"g[{i}] has negative exponents"
        if self.weight is not None:
            # f and g(1/z) are m x 1 maps from the line of weight self.weight
            chi = (self.weight,)
            bad = transition_law_violations(
                LaurentMatrix([[p] for p in self.f]), E.lambda0, chi, E.torus, "f"
            ) + transition_law_violations(
                LaurentMatrix([[p.invert_variable()] for p in self.g]), E.lambdaInf, chi, E.torus, "g(1/z)"
            )
            if bad:
                return bad[0]
        return None


#: a Laurent matrix as its nonzero entries, row by row: (column, terms sorted by exponent)
_Entries = list[list[tuple[int, list[tuple[int, Scalar]]]]]


def _entry_rows(M: LaurentMatrix) -> _Entries:
    return [[(j, sorted(p.terms.items())) for j, p in enumerate(row) if p.terms] for row in M.entries]


def _coefficient_rows(
    M_rows: _Entries, starts: list[int], columns: list[Sequence[int]], lo: int | None = None, hi: int | None = None
) -> list[dict[int, Scalar]]:
    """The equations "coefficient of z^x in (M u)_i vanishes", lo <= x < hi, for each row i of M.

    u_j runs over the exponents e >= starts[j], and the unknown (j, e) is
    column columns[j][e - starts[j]], so u_j has len(columns[j]) unknowns,
    perhaps none.  A bound of None is open.  Unknown (j, e) meets equation
    (i, x) through the one monomial of M_ij of exponent x - e, so building
    costs what the system's nonzero terms cost, and no equation is empty.
    Equations are created at their first term, so their order is fixed.
    """
    out: list[dict[int, Scalar]] = []
    for entries in M_rows:
        by_x: dict[int, dict[int, Scalar]] = {}
        for j, terms in entries:
            cols = columns[j]
            n = len(cols)
            if not n:
                continue
            start = starts[j]
            for d, c in terms:
                s = d + start  # the x that the first unknown of u_j meets
                for k in range(0 if lo is None else max(0, lo - s), n if hi is None else min(n, hi - s)):
                    x = s + k
                    row = by_x.get(x)
                    if row is None:
                        row = by_x[x] = {}
                    row[cols[k]] = c
        out.extend(by_x.values())
    return out


@dataclass(slots=True)
class _H0System:
    """The forward-eliminated section system of one bundle, cached as ``E._h0``.

    Column c is the unknown h[i][e] with (i, e) = ``unknowns[c]``, of weight
    ``weights[c]``; ``pivots`` and ``echelon`` are what ``echelon_sparse``
    returned.
    """

    unknowns: list[tuple[int, int]]
    weights: list[Weight]
    pivots: list[int]
    echelon: list[dict[int, int]]

    def free_columns(self) -> list[int]:
        pivot_set = set(self.pivots)
        return [c for c in range(len(self.weights)) if c not in pivot_set]


def _h0_basis(E: EquivariantBundle) -> _H0System:
    """The one H^0 solve of E: the section system, forward-eliminated.

    The unknowns are h[i][e] for e in [lo_i, 0], lo_i the least exponent of
    row i of A, ordered by (exponent e ascending, component i); a component
    with lo_i > 0 has none.  Every section lies inside these bounds, so the
    unknowns left out are zero in every kernel vector.  The elimination
    stops after the forward pass, whose pivots are those of the canonical
    reduced form; the unknowns off the pivots are free, one per basis
    section, each of the weight of its column.
    """
    m = E.rank
    if m == 0:
        return _H0System([], [], [], [])
    inv = E.inverse_transition()
    # h_i = (A f)_i has exponents in [lo_i, 0], lo_i the least exponent of
    # row i of A (A is invertible, so no row is zero); component i's unknowns
    # are e in [start_i, 0], start_i = 1 (none) for lo_i > 0, and
    # columns[i][e - start_i] is the column of h[i][e]
    starts = [min(1, *(min(p.terms) for p in row if p.terms)) for row in E.A.entries]
    unknowns = [(i, e) for e in range(min(starts), 1) for i, start in enumerate(starts) if start <= e]
    n = len(unknowns)
    if n == 0:
        return _H0System([], [], [], [])
    columns: list[list[int]] = [[] for _ in range(m)]
    for c, (i, _) in enumerate(unknowns):
        columns[i].append(c)
    a = E.torus.a
    lam = E.lambdaInf
    col_weight: list[Weight] = [tuple([x - e * y for x, y in zip(lam[i], a)]) for i, e in unknowns]

    # constraint rows: coefficient of z^x in (A^-1 h)_i must vanish for
    # x < 0.  Rows keep A^-1's coefficients; the elimination clears their
    # denominators.
    rows = _coefficient_rows(_entry_rows(inv), starts, columns, hi=0)

    # a graded system never mixes classes within a row, so straddling rows
    # mean the input was not actually equivariant
    if E.torus.rank:
        for row in rows:
            if len({col_weight[c] for c in row}) > 1:
                raise ValueError(
                    "section system mixes weight classes; the bundle is not equivariant"
                )

    return _H0System(unknowns, col_weight, *echelon_sparse(rows, n))


def _section_from_h(E: EquivariantBundle, h: tuple[LaurentPoly, ...], chi: Weight) -> Section:
    """The section (f, g) = (A^-1 h, h(1/z)) of weight chi."""
    f = _times_column(E.inverse_transition(), h)
    if not all(fi.is_polynomial() for fi in f):
        raise InvariantViolation("inverse parametrization produced a non-polynomial f")
    return Section(f, tuple(hi.invert_variable() for hi in h), chi)


def _h0_system(E: EquivariantBundle) -> _H0System:
    """The section system of E, eliminated once per bundle object and cached."""
    if E._h0 is None:
        E._h0 = _h0_basis(E)
    return E._h0


def _kernel_record(
    E: EquivariantBundle, system: _H0System, pivots: list[int], reduced: list[dict], fcol: int
) -> tuple[Weight, tuple[LaurentPoly, ...]]:
    """The canonical kernel vector of free column fcol as (weight, h).

    Entry 1 at fcol, and -v at each pivot p whose reduced row holds v at fcol.
    """
    h = [{} for _ in range(E.rank)]
    unknowns = system.unknowns
    i, e = unknowns[fcol]
    h[i][e] = 1
    for p, row in zip(pivots, reduced):
        v = row.get(fcol)
        if v:
            i, e = unknowns[p]
            h[i][e] = -v
    return system.weights[fcol], tuple(LaurentPoly(t) for t in h)


def _h0_records(E: EquivariantBundle) -> list[tuple[Weight, tuple[LaurentPoly, ...]]]:
    """The canonical H^0 kernel of E as (weight, h) pairs, in echelon order.

    Reduces the cached echelon rows, which are already eliminated, so only
    back-substitution runs; the reduced form, and so the kernel, is the
    canonical one.  Kernel vector k has entry 1 at the k-th free unknown and
    is supported on pivot unknowns otherwise.  Each call returns a new list.
    """
    system = _h0_system(E)
    free = system.free_columns()
    if not free:
        return []
    pivots, reduced = rref_sparse(system.echelon, len(system.weights))
    return [_kernel_record(E, system, pivots, reduced, fcol) for fcol in free]


def _first_h0_record(E: EquivariantBundle) -> tuple[Weight, tuple[LaurentPoly, ...]] | None:
    """``_h0_records(E)[0]`` (None without sections), back-substituting only what it reads.

    Every column before the first free one, c0, is a pivot, so the echelon
    rows of those pivots are the first c0, and every later row leads past
    c0: it is zero at c0 and at every column before it.  Adding multiples of
    later rows leaves the first c0 rows unchanged up to column c0, so those
    rows reduced among themselves hold the canonical reduced entries at c0,
    and every later reduced row holds 0 there: the vector is the canonical
    one.
    """
    system = _h0_system(E)
    free = system.free_columns()
    if not free:
        return None
    c0 = free[0]
    pivots, reduced = rref_sparse(system.echelon[:c0], len(system.weights))
    return _kernel_record(E, system, pivots, reduced, c0)


def h0_sections(E: EquivariantBundle) -> list[tuple[Section, Weight]]:
    """A basis of the global sections, graded by weight.

    Sections are built from the canonical kernel, reduced from the cached
    system on each call, and returned sorted by weight (then by echelon
    position); the number of entries is dim H^0.
    """
    records = sorted(_h0_records(E), key=lambda r: r[0])
    return [(_section_from_h(E, h, chi), chi) for chi, h in records]


def h0_dim(E: EquivariantBundle) -> int:
    """dim H^0: the unknowns of the cached section system minus its pivots."""
    system = _h0_system(E)
    return len(system.weights) - len(system.pivots)


def h0_character(E: EquivariantBundle) -> Character:
    """The H^0 character: the weights of the free unknowns of the cached system."""
    system = _h0_system(E)
    return Character.from_weights(system.weights[c] for c in system.free_columns())


# -- truncated overlap (Cech) complex ---------------------------------------


def _cech_bounds(E: EquivariantBundle) -> tuple[list[int], list[int]]:
    """The exact truncation of E's complex (module docstring).

    Returns ([hi'_j], [W_i]): the kernel's f[j] has degree at most hi'_j,
    the greatest exponent of row j of A^-1, and the cokernel's component i
    lives on the overlap exponents [1, W_i], W_i = max(0, -lo'_i - 1) with
    lo'_i the least exponent of column i of A^-1.
    """
    # one pass over A^-1: each row's greatest exponent, each column's least
    f_degrees: list[int] = []
    col_lo: list[int | None] = [None] * E.rank
    for row in E.inverse_transition().entries:
        hi = None
        for j, p in enumerate(row):
            if p.terms:
                lo_p, hi_p = min(p.terms), max(p.terms)
                if hi is None or hi_p > hi:
                    hi = hi_p
                if col_lo[j] is None or lo_p < col_lo[j]:
                    col_lo[j] = lo_p
        f_degrees.append(hi)
    return f_degrees, [max(0, -lo - 1) for lo in col_lo]


def _cech_once(E: EquivariantBundle, f_degrees: list[int], windows: list[int]) -> tuple[int, Character]:
    """(kernel dimension, cokernel character) of the truncated complex.

    The kernel's unknowns are f[j][e] for e in [0, f_degrees[j]]; g is not
    truncated, as it absorbs every overlap exponent <= 0.  The cokernel's
    component i is taken on the overlap exponents [1, windows[i]].  Both
    systems come from ``_coefficient_rows`` over one sorted copy of the
    terms of each nonzero entry of A.
    """
    m = E.rank
    a_rows = _entry_rows(E.A)

    # kernel: the unknowns of f[j] are the columns boxes[j], and the rows
    # are those of A f with exponent x >= 1.  Each row with x <= 0 holds a
    # g-chain column of its own, which no other row meets, so those rows
    # are independent of everything else: the kernel dimension is the
    # number of f columns minus the rank of the remaining rows.
    boxes, ncols = [], 0
    for b in f_degrees:
        boxes.append(range(ncols, ncols + max(0, b + 1)))
        ncols += len(boxes[-1])
    kernel_dim = ncols - rank_sparse(_coefficient_rows(a_rows, [0] * m, boxes, lo=1), ncols)

    # cokernel on the overlap exponents (i, x), x in [1, windows[i]],
    # ordered by (x, i): the g-side image and the preimages of z^x e_i for
    # larger x cover everything else, so only chart-0 generators projected
    # to the window remain.  Generator z^e e_j meets (i, x) through the
    # coefficient of z^(x - e) in A_ij, that of z^(X - E) in (A^T)_ji for
    # X = -e, E = -x: its row is equation X of row j of A^T u, with
    # reversed_cols[i][E + windows[i]] the column of (i, -E).  e needs no
    # upper bound: past max(windows) - (least exponent of A) it meets none.
    top = max(windows, default=0)
    ocols = [(i, x) for x in range(1, top + 1) for i in range(m) if x <= windows[i]]
    reversed_cols: list[list[int]] = [[] for _ in range(m)]
    for k in range(len(ocols) - 1, -1, -1):
        reversed_cols[ocols[k][0]].append(k)
    transposed: _Entries = [[] for _ in range(m)]
    for i, entries in enumerate(a_rows):
        for j, terms in entries:
            transposed[j].append((i, terms))
    rows = _coefficient_rows(transposed, [-w for w in windows], reversed_cols, hi=1)
    pivot_set = set(echelon_sparse(rows, len(ocols))[0])

    # the free column (i, x) is the class of w^-x e_i, of weight lambdaInf[i] - x*a
    a, lam = E.torus.a, E.lambdaInf
    return kernel_dim, Character.from_weights(
        [l - x * y for l, y in zip(lam[i], a)] for k, (i, x) in enumerate(ocols) if k not in pivot_set
    )


def cech_cohomology(E: EquivariantBundle) -> tuple[int, Character]:
    """(h0 dimension, h1 character) from the complex truncated at exact bounds.

    Every section has deg f_j <= hi'_j (hi'_j the greatest exponent of row j
    of A^-1) and (A f)_i = g_i(1/z) supported on [lo_i, 0], so the kernel
    over those f unknowns, with g absorbing every overlap exponent <= 0, is
    all of H^0.  Every overlap monomial z^d e_i with d <= 0 or d >= -lo'_i
    (lo'_i the least exponent of column i of A^-1) is a coboundary, so the
    component i of H^1 lives on [1, W_i] with W_i = max(0, -lo'_i - 1).
    Raises InvariantViolation if h0 - h1 = degree + rank fails there.
    """
    m = E.rank
    if m == 0:
        return 0, Character()
    f_degrees, windows = _cech_bounds(E)
    h0, h1 = _cech_once(E, f_degrees, windows)
    deg = degree(E)
    if h0 - h1.total() != deg + m:
        raise InvariantViolation(
            f"Euler identity fails at Cech window {windows}: "
            f"h0 - h1 = {h0} - {h1.total()} != degree + rank = {deg} + {m}"
        )
    return h0, h1


def h1_character(E: EquivariantBundle) -> Character:
    return cech_cohomology(E)[1]


def h1_dim(E: EquivariantBundle) -> int:
    return cech_cohomology(E)[1].total()


# -- cross-check harness -----------------------------------------------------


@dataclass
class EulerReport:
    h0: int
    h1: int
    degree: int
    rank: int
    euler_ok: bool
    serre_h0: int
    serre_ok: bool

    @property
    def ok(self) -> bool:
        return self.euler_ok and self.serre_ok

    def to_json(self) -> dict:
        return {
            "h0": self.h0,
            "h1": self.h1,
            "degree": self.degree,
            "rank": self.rank,
            "euler_ok": self.euler_ok,
            "serre_h0": self.serre_h0,
            "serre_ok": self.serre_ok,
        }


def euler_check(E: EquivariantBundle) -> EulerReport:
    """Verify h0 - h1 = degree + rank and dimension-level duality.

    The duality check compares dim H^1(E) with dim H^0 of the dual twisted
    by the degree -2 line bundle.
    """
    h0 = h0_dim(E)
    h1 = h1_dim(E)
    deg = degree(E)
    zero = E.torus.zero_weight
    serre_h0 = h0_dim(twist(dual(E), -2, zero))
    return EulerReport(
        h0=h0,
        h1=h1,
        degree=deg,
        rank=E.rank,
        euler_ok=(h0 - h1 == deg + E.rank),
        serre_h0=serre_h0,
        serre_ok=(h1 == serre_h0),
    )
