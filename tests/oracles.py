"""Independent oracles for the test suite.

Everything here is deliberately written from scratch against the definitions
(dense elimination, naive recursion, products over ``Fraction`` only, the
fiber filtrations of a moving-base bundle), sharing no algorithmic path with
the package's sparse eliminator, determinant, integer-first Laurent
arithmetic, windowed cohomology, or peeling split.  Beyond the package's
data types, two things are borrowed: ``kernel_sparse`` is a thin reading of
the package's ``rref_sparse`` (its tests check it against the dense oracles
here), ``reference_cech_window`` and ``per_class_h0_kernel`` take A^-1
from the bundle's ``inverse_transition()``, and ``reference_poly_ext_gcd``,
a frozen copy of the dense Bezout-block completion that the sparse
``poly_ext_gcd`` replaced, divides with the package's ``poly_divmod``.
``reference_h0_basis`` and ``reference_cech_once`` are frozen copies of
the row loops that built the H^0 system and the Cech complex before one
shared builder replaced them; they eliminate with the package's
``echelon_sparse`` and ``rank_sparse`` and return its ``_H0System`` and
``Character``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from equisplit.bundle import LineSummand
from equisplit.cohomology import Character, _H0System
from equisplit.laurent import LaurentPoly, Scalar, poly_divmod, scalar_div
from equisplit.linalg import LaurentMatrix, echelon_sparse, rank_sparse, rref_sparse


def dense_rref(rows: list[list[Fraction]], ncols: int) -> tuple[list[int], list[list[Fraction]]]:
    """Plain dense Gauss-Jordan elimination over Fraction.

    Returns (pivot columns, the nonzero rows of the reduced row echelon form).
    """
    m = [list(map(Fraction, r)) for r in rows]
    nrows = len(m)
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        piv = None
        for r in range(rank, nrows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
    return pivots, m[: len(pivots)]



def kernel_sparse(rows: Iterable[dict[int, Scalar]], ncols: int) -> tuple[list[int], list[dict[int, Fraction]]]:
    """Canonical kernel basis from the reduced row echelon form.

    Returns (free columns, basis vectors as sparse dicts); basis vector k has
    entry 1 at free column k and is supported on pivot columns otherwise.
    Vectors are emitted in ascending free-column order (echelon order).
    """
    pivots, reduced = rref_sparse(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis: list[dict[int, Fraction]] = []
    for f in free:
        vec: dict[int, Fraction] = {f: Fraction(1)}
        for p, row in zip(pivots, reduced):
            v = row.get(f)
            if v:
                vec[p] = -v
        basis.append(vec)
    return free, basis

def dense_rank(rows: list[list[Fraction]]) -> int:
    return len(dense_rref(rows, len(rows[0]) if rows else 0)[0])


def is_normal(c) -> bool:
    """Is c a nonzero coefficient in normal form: an int, or a Fraction that is not integral?"""
    if type(c) is int:
        return c != 0
    return type(c) is Fraction and c.denominator > 1


def naive_mul(p: LaurentPoly, q: LaurentPoly) -> dict[int, Fraction]:
    """The terms of p*q, every coefficient converted to Fraction first."""
    out: dict[int, Fraction] = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {e: c for e, c in out.items() if c}


def naive_matmul(A: LaurentMatrix, B: LaurentMatrix) -> list[list[dict[int, Fraction]]]:
    """The terms of each entry of A @ B, summed over Fraction by naive_mul."""
    out = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            acc: dict[int, Fraction] = {}
            for k in range(A.cols):
                for e, c in naive_mul(A.entries[i][k], B.entries[k][j]).items():
                    acc[e] = acc.get(e, Fraction(0)) + c
            row.append({e: c for e, c in acc.items() if c})
        out.append(row)
    return out


def naive_det(M: LaurentMatrix) -> LaurentPoly:
    """First-row cofactor expansion by fresh recursion (no memoization)."""
    n = M.rows
    if n != M.cols:
        raise ValueError("square only")
    if n == 0:
        return LaurentPoly.one()
    if n == 1:
        return M.entries[0][0]
    total = LaurentPoly.zero()
    for j in range(n):
        a = M.entries[0][j]
        if a.is_zero():
            continue
        minor = LaurentMatrix(
            [[M.entries[i][k] for k in range(n) if k != j] for i in range(1, n)]
        )
        term = a * naive_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def det_certificate_checks(E, cert) -> dict[str, bool]:
    """The certificate checks frames_invertible and degrees_sum, by determinants.

    frames_invertible: M0 is polynomial in z and MInf in w, and both
    determinants are nonzero constants.  degrees_sum: det A is a monomial and
    the degrees are non-increasing and sum to -deg det A.  Expects matching
    shapes; naive_det is O(m!), so keep the rank small.
    """
    polynomial = all(
        p.is_polynomial() for M in (cert.M0, cert.MInf) for row in M.entries for p in row
    )
    dets = (naive_det(cert.M0), naive_det(cert.MInf))
    det = naive_det(E.A)
    n = [s.n for s in cert.summands]
    return {
        "frames_invertible": polynomial and all(d.is_constant() and not d.is_zero() for d in dets),
        "degrees_sum": det.is_monomial()
        and sum(n) == -det.deg
        and all(n[i] >= n[i + 1] for i in range(len(n) - 1)),
    }


def exponent_range(M: LaurentMatrix) -> tuple[int, int] | None:
    """(least, greatest) exponent over every monomial of every entry of M; None if M is zero."""
    exps = [e for row in M.entries for p in row for e in p.terms]
    return (min(exps), max(exps)) if exps else None


def brute_force_h0_dim(A: LaurentMatrix, window: int | None = None) -> int:
    """dim of {(f, g) : g(1/z) = A f} by direct coefficient enumeration.

    Unknowns are the coefficients of f (degrees 0..D) and g (degrees 0..D)
    with D comfortably above any section degree; each Laurent coefficient of
    A f - g(1/z) gives one dense linear equation.
    """
    m = A.rows
    rng = exponent_range(A)
    if rng is None:
        raise ValueError("zero matrix")
    lo, hi = rng
    D = window if window is not None else 2 * (max(abs(lo), abs(hi)) + m + 2)
    nf = m * (D + 1)
    ncols = 2 * nf

    def fcol(j: int, e: int) -> int:
        return j * (D + 1) + e

    def gcol(i: int, e: int) -> int:
        return nf + i * (D + 1) + e

    # equation index: (component i, z-exponent x) over the full possible range
    xs = list(range(min(lo, -D), max(hi + D, 0) + 1))
    rows = []
    for i in range(m):
        for x in xs:
            row = [Fraction(0)] * ncols
            touched = False
            for j in range(m):
                for d, c in A.entries[i][j].monomials():
                    e = x - d
                    if 0 <= e <= D:
                        row[fcol(j, e)] += c
                        touched = True
            if 0 <= -x <= D:
                row[gcol(i, -x)] -= 1
                touched = True
            if touched:
                rows.append(row)
    return ncols - dense_rank(rows)


def reference_cech_window(E) -> int:
    """One window W that bounds every chain of E's Cech complex at once.

    W = max(1, -lo, hi' - margin, -lo' - 1), with [lo, hi] and [lo', hi'] the
    exponent ranges of A and A^-1 and margin = max(0, -lo).  A section has
    deg g <= -lo <= W and deg f <= hi' <= W + margin, and H^1 lives on the
    overlap exponents [1, -lo' - 1], so the complex truncated at deg f <=
    W + margin and deg g <= W is exact.  The package bounds each component
    on its own; this coarser, uniform window is the reference it must agree
    with.
    """
    lo, _ = exponent_range(E.A)
    lo_inv, hi_inv = exponent_range(E.inverse_transition())
    margin = max(0, -lo)
    return max(1, -lo, hi_inv - margin, -lo_inv - 1)


def per_class_h0_kernel(E) -> list[tuple[tuple, tuple[LaurentPoly, ...]]]:
    """The canonical H^0 kernel of E as (weight, h) pairs, each weight class solved alone.

    h[i] ranges over exponents lo..0 (lo the least exponent of A), and a
    section needs A^-1 h free of negative exponents.  The unknowns of each
    weight class lambdaInf[i] - e*a are eliminated densely, apart from every
    other class; the vectors of all classes are then listed by their free
    column (exponent, then component), as one echelon kernel would list them.
    """
    m = E.rank
    rng = exponent_range(E.A) if m else None
    if rng is None or rng[0] > 0:
        return []
    lo = rng[0]
    inv = E.inverse_transition()
    cols = [(i, e) for e in range(lo, 1) for i in range(m)]
    weight = {
        (i, e): tuple(w - e * x for w, x in zip(E.lambdaInf[i], E.torus.a)) for i, e in cols
    }
    found = []
    for chi in sorted(set(weight.values())):
        mine = [c for c in cols if weight[c] == chi]
        # row (i, x): the coefficient of z^x, x < 0, in (A^-1 h)_i
        rows: dict[tuple[int, int], list[Fraction]] = {}
        for k, (j, e) in enumerate(mine):
            for i in range(m):
                for d, c in inv.entries[i][j].monomials():
                    if d + e < 0:
                        rows.setdefault((i, d + e), [Fraction(0)] * len(mine))[k] += c
        pivots, reduced = dense_rref(list(rows.values()), len(mine))
        for f in range(len(mine)):
            if f in pivots:
                continue
            h: list[dict[int, Fraction]] = [{} for _ in range(m)]
            h[mine[f][0]][mine[f][1]] = Fraction(1)
            for p, row in zip(pivots, reduced):
                if row[f]:
                    h[mine[p][0]][mine[p][1]] = -row[f]
            found.append((cols.index(mine[f]), chi, tuple(LaurentPoly(t) for t in h)))
    found.sort(key=lambda r: r[0])
    return [(chi, h) for _, chi, h in found]


def filtration_splitting(E) -> list[LineSummand]:
    """The summands of a moving-base bundle, read off its two fiber filtrations.

    With a != 0, write each frame weight as mu + level*a, mu a fixed
    representative of its class modulo Z*a.  The law d*a = lambdaInf[i] -
    lambda0[j] then allows entry (i, j) only the exponent q_i - p_j (q the
    chart-inf and p the chart-0 levels) and only within one class, so each
    class is a block diag(z^q) C diag(z^-p) with C constant.  Adding a row of
    higher q to one of lower q keeps the chart-inf frame over k[w], and
    adding a column of higher p to one of lower p keeps the chart-0 frame
    over k[z]; so an LPU (Bruhat) elimination of C, rows and columns sorted
    by level descending, leaves one pivot per row and column, and pivot
    (i, j) is the summand O(p_j - q_i) of weight lambda0[j].  Summands come
    in canonical order.
    """
    a = E.torus.a
    k = next((t for t, x in enumerate(a) if x), None)
    if k is None:
        raise ValueError("the filtration oracle needs a moving base")

    def split_weight(w):
        level = w[k] // a[k]
        return tuple(x - level * y for x, y in zip(w, a)), level

    m = E.rank
    rows = [split_weight(w) for w in E.lambdaInf]
    cols = [split_weight(w) for w in E.lambda0]
    for i in range(m):
        for j in range(m):
            allowed = {rows[i][1] - cols[j][1]} if rows[i][0] == cols[j][0] else set()
            if set(E.A.entries[i][j].terms) - allowed:
                raise ValueError(f"entry ({i}, {j}) breaks the weight law")
    out = []
    for mu in sorted({mu for mu, _ in rows + cols}):
        I = sorted((i for i in range(m) if rows[i][0] == mu), key=lambda i: -rows[i][1])
        J = sorted((j for j in range(m) if cols[j][0] == mu), key=lambda j: -cols[j][1])
        if len(I) != len(J):
            raise ValueError(f"class {mu} has {len(I)} rows and {len(J)} columns")
        C = [
            [Fraction(E.A.entries[i][j].terms.get(rows[i][1] - cols[j][1], 0)) for j in J]
            for i in I
        ]
        used = [False] * len(J)
        for r in range(len(I)):
            # rows above r have cleared their pivot columns below them; the
            # column operations clearing row r right of its pivot touch no
            # other row, so they are left implicit
            c = next((c for c in range(len(J)) if not used[c] and C[r][c]), None)
            if c is None:
                raise ValueError(f"class {mu} has a singular block")
            used[c] = True
            for r2 in range(r + 1, len(I)):
                if C[r2][c]:
                    f = C[r2][c] / C[r][c]
                    C[r2] = [x - f * y for x, y in zip(C[r2], C[r])]
            out.append(LineSummand(cols[J[c]][1] - rows[I[r]][1], E.lambda0[J[c]]))
    return sorted(out, key=LineSummand.sort_key)


def reference_poly_ext_gcd(
    polys: list[LaurentPoly],
) -> tuple[LaurentPoly, list[list[LaurentPoly]], list[list[LaurentPoly]]]:
    """The dense Bezout-block completion (g, U, Uinv), kept as a reference.

    Every block rewrites all of row 0 and row i of U and all of columns 0
    and i of Uinv over full k-by-k lists; the package's ``poly_ext_gcd``
    must return the same three values, entry for entry.
    """

    def times(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
        return p * q if p.terms and q.terms else LaurentPoly()

    k = len(polys)
    if k == 0 or all(p.is_zero() for p in polys):
        raise ValueError("poly_ext_gcd needs at least one nonzero polynomial")
    for p in polys:
        if not p.is_polynomial():
            raise ValueError(f"argument must have nonnegative exponents, got {p!r}")

    U = [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(k)] for i in range(k)]
    Uinv = [row[:] for row in U]
    g = polys[0]
    for i in range(1, k):
        f = polys[i]
        if f.is_zero():
            continue
        r0, r1 = g, f
        s0, t0, s1, t1 = LaurentPoly.one(), LaurentPoly(), LaurentPoly(), LaurentPoly.one()
        sign = 1
        while r1.terms:
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - times(q, s1)
            t0, t1 = t1, t0 - times(q, t1)
            sign = -sign
        lc = r0.leading_coeff()
        inv = scalar_div(1, lc)
        s, t = s0.scale(inv), t0.scale(inv)
        nfq, gq = s1.scale(sign * lc), t1.scale(sign * lc)
        fq, nt = -nfq, -t
        row0 = U[0]
        U[0] = [t if j == i else times(s, u) for j, u in enumerate(row0)]
        U[i] = [gq if j == i else times(nfq, u) for j, u in enumerate(row0)]
        for j, r in enumerate(Uinv):
            r[0], r[i] = (fq, s) if j == i else (times(r[0], gq), times(r[0], nt))
        g = r0.scale(inv)
    lc = g.leading_coeff()
    if lc != 1:
        inv = scalar_div(1, lc)
        U[0] = [u.scale(inv) for u in U[0]]
        for r in Uinv:
            r[0] = r[0].scale(lc)
        g = g.scale(inv)
    return g, U, Uinv


def reference_h0_basis(E) -> _H0System:
    """The H^0 section system as ``cohomology._h0_basis`` built it with its own row loop.

    A frozen copy of that builder: the unknowns h[i][e], e in [lo_i, 0], in
    (exponent, component) order, and one row per coefficient of z^x, x < 0,
    of (A^-1 h)_i, created at its first term, rows of component i before
    those of i + 1.  The package now builds these rows with its one shared
    coefficient-equation builder and must give the same system.
    """
    m = E.rank
    if m == 0:
        return _H0System([], [], [], [])
    inv = E.inverse_transition()
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
    col_weight = [tuple([x - e * y for x, y in zip(lam[i], a)]) for i, e in unknowns]
    rows: list[dict[int, Scalar]] = []
    for inv_row in inv.entries:
        by_x: dict[int, dict[int, Scalar]] = {}
        for j, p in enumerate(inv_row):
            start = starts[j]
            if start > 0 or not p.terms:
                continue
            cols_j = columns[j]
            for d, c in sorted(p.terms.items()):
                for e in range(start, min(1, -d)):
                    by_x.setdefault(d + e, {})[cols_j[e - start]] = c
        rows.extend(by_x.values())
    if E.torus.rank:
        for row in rows:
            if len({col_weight[c] for c in row}) > 1:
                raise ValueError("section system mixes weight classes; the bundle is not equivariant")
    return _H0System(unknowns, col_weight, *echelon_sparse(rows, n))


def reference_cech_once(E, f_degrees: list[int], windows: list[int]) -> tuple[int, Character]:
    """(kernel dimension, cokernel character) as ``cohomology._cech_once`` built them with its own row loops.

    A frozen copy of that builder.  Kernel: unknowns f[j][e], e in
    [0, f_degrees[j]], and the rows x >= 1 of A f.  Cokernel: columns (i, x),
    x in [1, windows[i]], in (x, i) order, and one row per generator z^e e_j,
    e in [0, max(windows) - lo] (lo the least exponent of A, where
    negative), holding A z^e e_j projected to those columns.
    """
    m = E.rank
    by_row: list[list] = [[] for _ in range(m)]
    by_col: list[list] = [[] for _ in range(m)]
    lo = 0
    for i, row in enumerate(E.A.entries):
        for j, p in enumerate(row):
            if p.terms:
                terms = sorted(p.terms.items())
                by_row[i].append((j, terms))
                by_col[j].append((i, terms))
                lo = min(lo, terms[0][0])

    offset, ncols = [], 0
    for b in f_degrees:
        offset.append(ncols)
        ncols += max(0, b + 1)
    frows: list[dict[int, Scalar]] = []
    for entries in by_row:
        by_x: dict[int, dict[int, Scalar]] = {}
        for j, terms in entries:
            b, off = f_degrees[j], offset[j]
            for d, c in terms:
                for e in range(max(0, 1 - d), b + 1):
                    by_x.setdefault(d + e, {})[off + e] = c
        frows.extend(by_x.values())
    kernel_dim = ncols - rank_sparse(frows, ncols)

    top = max(windows, default=0)
    ocols = [(i, x) for x in range(1, top + 1) for i in range(m) if x <= windows[i]]
    columns: list[list[int]] = [[] for _ in range(m)]
    for k, (i, _) in enumerate(ocols):
        columns[i].append(k)
    emax = top - lo
    gen_rows: list[dict[int, Scalar]] = []
    for entries in by_col:
        by_e: dict[int, dict[int, Scalar]] = {}
        for i, terms in entries:
            w, cols_i = windows[i], columns[i]
            for d, c in terms:
                for e in range(max(0, 1 - d), min(emax, w - d) + 1):
                    by_e.setdefault(e, {})[cols_i[d + e - 1]] = c
        gen_rows.extend(by_e[e] for e in sorted(by_e))
    pivots, _ = echelon_sparse(gen_rows, len(ocols))

    pivot_set = set(pivots)
    a, lam = E.torus.a, E.lambdaInf
    mult: dict = {}
    for k, (i, x) in enumerate(ocols):
        if k not in pivot_set:
            w = tuple([l - x * y for l, y in zip(lam[i], a)])
            mult[w] = mult.get(w, 0) + 1
    return kernel_dim, Character(mult)
