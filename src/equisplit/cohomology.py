"""Exact sheaf cohomology on the projective line, with weight grading.

H^0 is computed by a finite inverse-kernel parametrization.  Writing
h(z) = g(1/z), the section equation g(1/z) = A f forces every exponent of h
into [o, 0] where o is the minimum exponent over the monomials of A, and
f = A^-1 h is polynomial iff every coefficient of z^e with e < 0 in A^-1 h
vanishes (A^-1 is the bundle's cached inverse transition).  That is a finite
rational linear system in the coefficients of h, graded by the weight
lambdaInf[i] - e*a of the unknown h[i][e].  One forward elimination per
bundle solves it, and its result is cached on the bundle.  The free unknowns
are the non-pivot columns, so dim H^0 and the character are read off the
pivots with no back-substitution.  Only a caller that needs sections gets the
canonical kernel, reduced once from the cached echelon rows: no row meets two
weight classes, so every canonical kernel vector is homogeneous.  Sections
(f, g) are built from it only on request.

H^1 is computed from the two-chart cover complex truncated at one window W
that is exact.  Chains (f, g) with deg f <= W + margin and deg g <= W map to
overlap vectors by (f, g) -> A f - g(1/z).  With [lo, hi] the exponent range
of A, [lo', hi'] that of A^-1 and margin = max(0, -lo),

    W = max(1, -lo, hi' - margin, -lo' - 1).

* Kernel: a section has g(1/z) = A f with exponents in [lo, 0], so
  deg g <= -lo <= W, and f = A^-1 g(1/z), so deg f <= hi' <= W + margin.
* Cokernel: for x >= -lo', z^x e_i = A (A^-1 z^x e_i) with a polynomial
  preimage, and every exponent <= 0 is some g(1/z), so H^1 lives on the
  exponents [1, W]; A z^e e_j has exponents >= lo + e, so chart-0 chains of
  degree <= W + margin reach all of them.

The cokernel elimination therefore runs on exponents in [1, W] only, and
stops at the forward pass: the cokernel is spanned by the non-pivot columns.
Dually, each kernel equation with exponent in [-W, 0] holds a g-chain unknown
of its own, so the kernel rank eliminates only the remaining equations, over
the f unknowns.  The Euler identity h0 - h1 = degree + rank stays armed: a
failure raises InvariantViolation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bundle import (
    EquivariantBundle,
    InvariantViolation,
    Weight,
    degree,
    dual,
    twist,
    weight_scale,
    weight_sub,
)
from .equivariant import Character, monomial_weight
from .laurent import LaurentPoly, Scalar
from .linalg import LaurentMatrix, echelon_sparse, rank_sparse, rref_sparse


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
        if self.weight is not None and E.torus.rank > 0:
            for i, p in enumerate(self.f):
                for d, _ in p.monomials():
                    if monomial_weight(E, 0, i, d) != self.weight:
                        return f"f[{i}] monomial z^{d} is not of weight {self.weight}"
            for i, p in enumerate(self.g):
                for e, _ in p.monomials():
                    if monomial_weight(E, "inf", i, e) != self.weight:
                        return f"g[{i}] exponent {e} is not of weight {self.weight}"
        return None


@dataclass(slots=True)
class _H0System:
    """The forward-eliminated section system of one bundle, cached as ``E._h0``.

    ``weights[c]`` is the weight of unknown c, ``pivots`` and ``echelon`` are
    what ``echelon_sparse`` returned, and ``records`` holds the canonical
    kernel once a caller has asked for it.
    """

    weights: list[Weight]
    pivots: list[int]
    echelon: list[dict[int, int]]
    records: list[tuple[Weight, tuple[LaurentPoly, ...]]] | None = None

    def free_columns(self) -> list[int]:
        pivot_set = set(self.pivots)
        return [c for c in range(len(self.weights)) if c not in pivot_set]


def _h0_basis(E: EquivariantBundle) -> _H0System:
    """The one H^0 solve of E: the section system, forward-eliminated.

    Unknowns h[i][e] are ordered by (component i, exponent e ascending).  The
    elimination stops after the forward pass, whose pivots are those of the
    canonical reduced form; the unknowns off the pivots are free, one per
    basis section, each of the weight of its column.
    """
    m = E.rank
    if m == 0:
        return _H0System([], [], [])
    rng = E.A.exponent_range()
    if rng is None:
        raise ValueError("invalid bundle: zero transition matrix")
    lo, _ = rng
    if lo > 0:
        return _H0System([], [], [])

    width = 1 - lo  # exponents lo..0
    a = E.torus.a
    col_weight: list[Weight] = [
        weight_sub(E.lambdaInf[i], weight_scale(e, a)) for i in range(m) for e in range(lo, 1)
    ]

    # constraint rows: coefficient of z^x in (A^-1 h)_i must vanish for
    # x < 0; column (j, e) meets row (i, x) through the one monomial of
    # exponent x - e.  Rows keep A^-1's coefficients; the elimination clears
    # their denominators.
    rows: dict[tuple[int, int], dict[int, Scalar]] = {}
    inv = E.inverse_transition().entries
    for i in range(m):
        for j in range(m):
            for d, c in inv[i][j].monomials():
                for e in range(lo, 1):
                    if d + e < 0:
                        rows.setdefault((i, d + e), {})[j * width + e - lo] = c

    # a graded system never mixes classes within a row, so straddling rows
    # mean the input was not actually equivariant
    if E.torus.rank:
        for row in rows.values():
            if len({col_weight[c] for c in row}) > 1:
                raise ValueError(
                    "section system mixes weight classes; the bundle is not equivariant"
                )

    return _H0System(col_weight, *echelon_sparse(rows.values(), m * width))


def _section_from_h(E: EquivariantBundle, h: tuple[LaurentPoly, ...], chi: Weight) -> Section:
    """The section (f, g) = (A^-1 h, h(1/z)) of weight chi."""
    f = _times_column(E.inverse_transition(), h)
    if not all(fi.is_polynomial() for fi in f):
        raise AssertionError("inverse parametrization produced a non-polynomial f")
    return Section(f, tuple(hi.invert_variable() for hi in h), chi)


def _h0_system(E: EquivariantBundle) -> _H0System:
    """The section system of E, eliminated once per bundle object and cached."""
    if E._h0 is None:
        E._h0 = _h0_basis(E)
    return E._h0


def _h0_records(E: EquivariantBundle) -> list[tuple[Weight, tuple[LaurentPoly, ...]]]:
    """The canonical H^0 kernel of E as (weight, h) pairs, in echelon order.

    Built on first request by reducing the cached echelon rows, which are
    already eliminated, so only back-substitution runs; the reduced form,
    and so the kernel, is the canonical one.  Kernel vector k has entry 1 at
    the k-th free unknown and is supported on pivot unknowns otherwise.
    Callers must not mutate the returned list.
    """
    system = _h0_system(E)
    if system.records is None:
        ncols = len(system.weights)
        free = system.free_columns()
        records = []
        if free:
            width = ncols // E.rank
            lo = 1 - width
            pivots, reduced = rref_sparse(system.echelon, ncols)
            for fcol in free:
                h = [{} for _ in range(E.rank)]
                i, e = divmod(fcol, width)
                h[i][e + lo] = 1
                for p, row in zip(pivots, reduced):
                    v = row.get(fcol)
                    if v:
                        i, e = divmod(p, width)
                        h[i][e + lo] = -v
                records.append((system.weights[fcol], tuple(LaurentPoly(t) for t in h)))
        system.records = records
    return system.records


def h0_sections(E: EquivariantBundle) -> list[tuple[Section, Weight]]:
    """A basis of the global sections, graded by weight.

    Sections are built from the cached kernel on each call and returned
    sorted by weight (then by echelon position); the number of entries is
    dim H^0.
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


def _exact_window(E: EquivariantBundle) -> int:
    """The one window W at which the truncated complex is exact (module docstring)."""
    rng = E.A.exponent_range()
    if rng is None:
        raise ValueError("invalid bundle: zero transition matrix")
    lo, _ = rng
    lo_inv, hi_inv = E.inverse_transition().exponent_range()
    margin = max(0, -lo)
    return max(1, -lo, hi_inv - margin, -lo_inv - 1)


def _cech_once(E: EquivariantBundle, W: int) -> tuple[int, Character]:
    """(kernel dimension, cokernel character) of the W-truncated complex."""
    m = E.rank
    lo, hi = E.A.exponent_range()
    margin = max(0, -lo)
    Wf = W + margin  # chart-0 degree bound
    Wg = W  # chart-inf degree bound

    # kernel: unknowns f[j][e], e in [0, Wf] and g[i][e'], e' in [0, Wg]
    fw, gw = Wf + 1, Wg + 1

    def fcol(j: int, e: int) -> int:
        return j * fw + e

    # rows of A f - g(1/z), with A's coefficients; column (j, e) meets row
    # (i, x) through the one monomial of exponent x - e.  Each of the m * gw
    # rows with x in [-Wg, 0] holds its own g-chain column, which no other
    # row meets, so those rows are independent of everything else: the rank
    # is m * gw plus the rank of the remaining rows, which hold f columns only.
    A = E.A.entries
    frows: dict[tuple[int, int], dict[int, Scalar]] = {}
    for i in range(m):
        for j in range(m):
            for d, c in A[i][j].monomials():
                for e in range(fw):
                    if not -Wg <= d + e <= 0:
                        frows.setdefault((i, d + e), {})[fcol(j, e)] = c
    # kernel dimension = (m * fw + m * gw) - (m * gw + rank of the f rows)
    kernel_dim = m * fw - rank_sparse(frows.values(), m * fw)

    # cokernel inside exponents [1, W]: the g-side image covers everything
    # below, so only chart-0 generators projected to the window remain.
    def ocol(i: int, d: int) -> int:
        return (d - 1) * m + i

    gen_rows = []
    for j in range(m):
        base = [(i, d, c) for i in range(m) for d, c in A[i][j].monomials()]
        for e in range(fw):
            row = {ocol(i, d + e): c for i, d, c in base if 1 <= d + e <= W}
            if row:
                gen_rows.append(row)
    pivots, _ = echelon_sparse(gen_rows, m * W)
    pivot_set = set(pivots)
    weights = []
    for cidx in range(m * W):
        if cidx not in pivot_set:
            d, i = divmod(cidx, m)
            weights.append(monomial_weight(E, "inf", i, -(d + 1)))
    return kernel_dim, Character.from_weights(weights)


def cech_cohomology(E: EquivariantBundle) -> tuple[int, Character]:
    """(h0 dimension, h1 character) from the complex truncated at one exact window.

    W = max(1, -lo, hi' - margin, -lo' - 1), with [lo, hi] and [lo', hi'] the
    exponent ranges of A and A^-1 and margin = max(0, -lo).  Every section
    has deg g <= -lo and deg f <= hi', so the kernel is all of H^0; every
    overlap monomial of exponent <= 0 or >= -lo' is a coboundary, so H^1 lives
    on [1, W], which chart-0 chains of degree <= W + margin reach.  Raises
    InvariantViolation if h0 - h1 = degree + rank fails at that window.
    """
    m = E.rank
    if m == 0:
        return 0, Character()
    W = _exact_window(E)
    h0, h1 = _cech_once(E, W)
    deg = degree(E)
    if h0 - h1.total() != deg + m:
        raise InvariantViolation(
            f"Euler identity fails at Cech window {W}: "
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
