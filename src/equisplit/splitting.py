"""Constructive equivariant splitting of bundles on the projective line.

The engine follows Grothendieck's induction on the rank.  It peels off a
maximal-degree equivariant line subbundle (spanned by an eigenvector of the
global sections of a suitable twist; one twist and one H^0 solve per peel)
and passes to the quotient, down to rank 0.  It then folds the peels' frames
from the last quotient up, starting from the frames of the last peel, which
split its rank-1 bundle: each earlier peel's extension row, carried through
the frames that split its quotient, is cleared in one row by a unipotent
factor on each chart (``triangular_clear``), since the peeled degree is at
least every degree below it.  The output is the summand list together with the
two invertible frame matrices whose product identity is machine-checkable,
plus an independent verifier for that certificate.

Every chart-0 frame carries its inverse: the Bezout completion (one
completion for every torus) is built from elementary operations, each
operation's inverse applied alongside it, and the clearing factors are
unipotent.  The producer therefore forms no determinant or adjugate of a
frame.  The H^0 route needs the inverse transition of every bundle it
peels: the input's validation takes the split's one det pass, for det A and
A^-1 (``mat_det_inverse``: Gauss–Jordan on unit pivots, then a
Faddeev–LeVerrier pass per block of a nonempty unit-free core), and each
quotient, like each twist, is built with the det verdict its peel implies:
its degree, and its inverse as a block of U A^-1 V(1/z)^-1.  The
certificate identity MInf(1/z) A M0 = D hands out both frame inverses as
products (M0^-1 = D^-1 MInf(1/z) A, MInf(1/z)^-1 = A M0 D^-1), so the
verifier takes no determinant or adjugate, and it hands the inverses it
read to ``splitting_hom``, which forms no product of its own to get them.

With no torus (rank-0 action) the same pipeline is a constructive splitting
of an arbitrary bundle into line bundles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bundle import (
    EquivariantBundle,
    HomElement,
    InvariantViolation,
    LineSummand,
    TorusAction,
    degree,
    derive_target_weights,
    hom_bundle,
    transition_law_violations,
    twist,
    validate,
    weight_scale,
    weight_sub,
)
from .cohomology import (
    Section,
    _first_h0_record,
    _h0_records,
    _h0_system,
    _section_from_h,
    h0_character,
    h0_dim,
)
from .laurent import LaurentPoly, poly_ext_gcd
from .linalg import LaurentMatrix, rank_sparse


def max_twist(E: EquivariantBundle) -> tuple[int, EquivariantBundle, int]:
    """The largest k with nonzero global sections after twisting by -k.

    k is the top summand's degree, at least the mean, so k >= f =
    ceil(degree/rank).  A section of E(-k) is a section of E(-f) whose g
    vanishes to order k - f at infinity, and the H^0 unknowns h[i][e] of
    E(-f) with e <= f - k are those of E(-k), so k = f - e0 for h[i0][e0]
    the first free unknown: one twist and one H^0 solve.  Returns k, E(-f),
    whose kernel ``eigen_section`` reads, and s = k - f.
    """
    if E.rank == 0:
        raise ValueError("max_twist of a rank-0 bundle")
    f = -(-degree(E) // E.rank)  # ceil; the twist inherits A^-1 along with the degree
    Et = twist(E, -f, E.torus.zero_weight)
    if h0_dim(Et) == 0:
        raise InvariantViolation(
            f"max_twist: E(-{f}) has no sections; the instance cannot be a valid bundle"
        )
    system = _h0_system(Et)
    e0 = system.unknowns[system.free_columns()[0]][1]
    return f - e0, Et, -e0


def eigen_section(E: EquivariantBundle) -> Section:
    """A nonzero global section spanning a torus-stable line.

    Deterministic choice: the first vector of the canonical echelon kernel
    basis (unknowns ordered by exponent, then component).  It belongs to the
    first free unknown h[i0][e0] and lies on the unknowns up to it, so its g
    is divisible by w^-e0.  Only that vector is built: ``_first_h0_record``
    back-substitutes the echelon rows whose pivot precedes h[i0][e0] and no
    others.  Kernel vectors of the graded section system are
    weight-homogeneous, so this is always an eigenvector; with a nontrivial
    base action its entries are monomials.
    """
    record = _first_h0_record(E)
    if record is None:
        raise ValueError("the bundle has no nonzero global sections")
    chi, h = record
    section = _section_from_h(E, h, chi)
    if not E.torus.base_is_fixed():
        for p in (*section.f, *section.g):
            if not (p.is_zero() or p.is_monomial()):
                raise InvariantViolation(
                    "eigen-section entries must be monomials for a moving base"
                )
    return section


@dataclass
class PeelStep:
    """One induction step: V(1/z) A Uinv = reframed.A = [[z^-n, beta], [0, quotient.A]].

    U (over k[z]) and V (over k[w]) have constant nonzero determinant and are
    equivariant from the input frame weights to (summand weight, quotient
    weights); Uinv is the exact inverse of U.  ``reframed`` is the input
    bundle in the new frame, with those weights; the extension row beta is
    row 0 of reframed.A past its first entry.
    """

    summand: LineSummand
    U: LaurentMatrix
    Uinv: LaurentMatrix
    V: LaurentMatrix
    reframed: EquivariantBundle
    quotient: EquivariantBundle


def _frame_completion(entries: list[LaurentPoly]) -> tuple[LaurentMatrix, LaurentMatrix]:
    """(M, M^-1) with M @ entries = e_1 via the extended-gcd unimodular completion.

    Euclid on monomials produces only monomials, so the completion of a
    weight-homogeneous monomial vector (a moving-base eigen-section) is
    equivariant as it stands; ``peel`` checks the weight law of the result.
    U @ entries = (g, 0, ..., 0) for the monic gcd g, so e_1 is reached exactly
    when g = 1; entries that share a zero raise InvariantViolation.
    """
    g, U, Uinv = poly_ext_gcd(entries)
    if g != LaurentPoly.one():
        raise InvariantViolation(
            f"frame completion failed to reduce the section to e_1: its entries share the factor {g!r}"
        )
    k = len(entries)
    return LaurentMatrix._adopt(U, k, k), LaurentMatrix._adopt(Uinv, k, k)


def peel(E: EquivariantBundle) -> PeelStep:
    """Split off the top-degree equivariant line subbundle.

    Takes the deterministic eigen-section of the twist from ``max_twist`` and
    divides its g by w^s, so that it is a section of the twist where the
    subbundle has degree 0, completes it to chart-local frames via
    unimodular completion, and reads off the block-triangular transition.
    A section that vanishes somewhere (a nonconstant gcd on either chart)
    cannot be completed to e_1, which raises InvariantViolation; theory
    rules it out for valid input.  The quotient is built with its source's
    det verdict: its degree and inverse transition (a block of U A^-1
    V(1/z)^-1), so its validation takes no det pass.
    """
    if E.rank == 0:
        raise ValueError("peel of a rank-0 bundle")
    m = E.rank
    torus = E.torus
    n1, Et, s = max_twist(E)
    sigma = eigen_section(Et)
    chi = sigma.weight

    U, Uinv = _frame_completion(list(sigma.f))
    V, Vinv = _frame_completion([p.shift(-s) for p in sigma.g])
    # the chart-inf law of V is the chart-0 law of V(1/z)
    Vz = V.invert_variable()

    nu0 = derive_target_weights(U, E.lambda0, torus, "U")
    nuInf = derive_target_weights(Vz, E.lambdaInf, torus, "V(1/z)")
    summand = LineSummand(n1, chi)
    if nu0[0] != chi or nuInf[0] != summand.chart_inf_weight(torus):
        raise InvariantViolation(
            f"peeled frame weight {nu0[0]}/{nuInf[0]} does not match the section weight {chi}"
        )

    A_new = (Vz @ E.A) @ Uinv
    mono = LaurentPoly.monomial(-n1)
    for i in range(m):
        want = mono if i == 0 else LaurentPoly.zero()
        if A_new.entries[i][0] != want:
            raise InvariantViolation("reframed transition lacks the expected first column")

    rest = range(1, m)
    A_q = A_new.submatrix(rest, rest)
    if not rest:
        quotient = EquivariantBundle(A_q, (), (), torus)
    else:
        # A_new is block triangular: Q.A^-1 is the lower right block of U A^-1 V(1/z)^-1
        Vinv_z = Vinv.submatrix(range(m), rest).invert_variable()
        inv = (U.submatrix(rest, range(m)) @ E.inverse_transition()) @ Vinv_z
        quotient = EquivariantBundle._derived(A_q, nu0[1:], nuInf[1:], torus, (degree(E) - n1, inv))
        qreport = validate(quotient)
        if not qreport.ok:
            raise InvariantViolation("peel produced an invalid quotient: " + "; ".join(qreport.violations))
    return PeelStep(summand, U, Uinv, V, EquivariantBundle(A_new, nu0, nuInf, torus), quotient)


def triangular_clear(
    top: LineSummand,
    beta: list[LaurentPoly],
    below: list[LineSummand],
    torus: TorusAction,
) -> tuple[list[LaurentPoly], list[LaurentPoly]]:
    """Clear the extension row of [[z^-n, beta], [0, diag(z^-n_j)]].

    n is the degree of ``top`` and n_j that of below[j]; n >= n_j, so
    Ext^1 of the lower summands by the top one vanishes.  Each beta_j is
    split as beta_j = delta_j(1/z) z^(-n_j) - gamma_j z^(-n) with gamma_j in
    k[z] and delta_j in k[w]; monomials with exponent >= -n go to gamma, the
    rest to delta (the two ranges cover all exponents because n >= n_j).
    Returns (gamma, -delta), the off-diagonal rows of the unipotent factors:
    [[1, -delta(1/z)], [0, I]] [[z^-n, beta], [0, D]] [[1, gamma], [0, I]]
    is diagonal.  Both factors are checked against the weight law.
    """
    n = top.n
    if any(s.n > n for s in below):
        raise ValueError(f"degrees {[n] + [s.n for s in below]} increase below the top row")
    gamma = [LaurentPoly({d + n: -c for d, c in b.terms.items() if d >= -n}) for b in beta]
    neg_delta = [
        LaurentPoly({-(d + s.n): -c for d, c in b.terms.items() if d < -n}) for b, s in zip(beta, below)
    ]
    k = len(below)
    # a unipotent frame and its inverse obey the same law
    bad = transition_law_violations(
        LaurentMatrix._adopt([gamma], 1, k), (top.lam,), tuple(s.lam for s in below), torus, "gamma"
    ) + transition_law_violations(
        LaurentMatrix._adopt([neg_delta], 1, k).invert_variable(),
        (top.chart_inf_weight(torus),),
        tuple(s.chart_inf_weight(torus) for s in below),
        torus,
        "delta(1/z)",
    )
    if bad:
        raise InvariantViolation("clearing factors broke equivariance: " + "; ".join(bad))
    return gamma, neg_delta


def _bordered(row: list[LaurentPoly], M: LaurentMatrix) -> LaurentMatrix:
    """[[1, row], [0, M]]."""
    zero = LaurentPoly.zero()
    k = M.rows + 1
    return LaurentMatrix._adopt([[LaurentPoly.one(), *row]] + [[zero, *r] for r in M.entries], k, k)


@dataclass
class SplittingCertificate:
    """Machine-checkable witness: MInf @ A @ M0 = diag(z^(-n_i)).

    M0 is over k[z], MInf over k[w] (stored as w-polynomials); both have
    constant nonzero determinant and are equivariant from the bundle frame
    weights to the summand weights.
    """

    summands: list[LineSummand]
    M0: LaurentMatrix
    MInf: LaurentMatrix


def equivariant_split(E: EquivariantBundle) -> tuple[list[LineSummand], SplittingCertificate]:
    """Decompose into equivariant line bundles with a verifiable certificate.

    Induction on the rank: peel the top-degree line subbundle L, split the
    quotient Q, then split 0 -> L -> E -> Q -> 0, which Ext^1(Q, L) = 0
    allows because the degree n of L is at least every degree of Q.  The
    peels run first, down to rank 0, so their degrees come out
    non-increasing; the frames are then folded from the last peel up,
    starting from that peel's own frames (Uinv, V), which split its rank-1
    bundle.  With (M0', MInf') splitting the quotient of a peel V(1/z) A
    Uinv = [[z^-n, beta], [0, Q.A]], the row beta' = beta M0' is cleared
    by ``triangular_clear`` into (gamma, -delta), and M0 = Uinv [[1, gamma],
    [0, M0']] and MInf = [[1, -delta MInf'], [0, MInf']] V split E.  Summands come out in canonical
    ``LineSummand.sort_key`` order (non-increasing degree, then weight).
    With a rank-0 torus this is a constructive splitting-type computation.
    """
    report = validate(E)
    if not report.ok:
        raise ValueError("cannot split an invalid bundle: " + "; ".join(report.violations))
    # each peel's summand, frames and extension row beta; the reframed
    # bundles and quotients are dropped as the peels go
    steps: list[tuple[LineSummand, LaurentMatrix, LaurentMatrix, list[LaurentPoly]]] = []
    current = E
    while current.rank > 0:
        step = peel(current)
        steps.append((step.summand, step.Uinv, step.V, step.reframed.A.entries[0][1:]))
        current = step.quotient

    # the last peel leaves rank 0, so its own frames split its rank-1 bundle
    summands: list[LineSummand] = []  # the current quotient's, in peel order
    M0 = MInf = LaurentMatrix.zeros(0, 0)
    if steps:
        summand, M0, MInf, _ = steps.pop()
        summands.append(summand)
    for summand, Uinv, V, beta in reversed(steps):
        k = M0.rows
        carried = (LaurentMatrix._adopt([beta], 1, k) @ M0).entries[0]  # beta' = beta M0'
        gamma, neg_delta = triangular_clear(summand, carried, summands, E.torus)
        M0 = Uinv @ _bordered(gamma, M0)
        MInf = _bordered((LaurentMatrix._adopt([neg_delta], 1, k) @ MInf).entries[0], MInf) @ V
        summands.insert(0, summand)

    # peel order breaks degree ties by frame; emit the canonical order instead,
    # permuting the columns of M0 and the rows of MInf to match
    m = E.rank
    order = sorted(range(m), key=lambda k: summands[k].sort_key())
    summands = [summands[k] for k in order]
    M0 = M0.submatrix(range(m), order)
    MInf = MInf.submatrix(order, range(m))
    cert = SplittingCertificate(summands, M0, MInf)
    check = verify_certificate(E, cert)
    if not check.ok:
        raise InvariantViolation("produced certificate failed verification: " + check.summary())
    return summands, cert


@dataclass
class CertCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class CertReport:
    checks: list[CertCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def summary(self) -> str:
        return "; ".join(f"{c.name}: {'ok' if c.ok else 'FAIL ' + c.detail}" for c in self.checks)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, **({"detail": c.detail} if c.detail else {})}
                for c in self.checks
            ],
        }


def _frame_inverses(
    L: LaurentMatrix, R: LaurentMatrix, n: list[int]
) -> tuple[LaurentMatrix, LaurentMatrix]:
    """(M0^-1, MInf^-1) read off L = MInf(1/z) A and R = A M0, given L M0 = D.

    With D = diag(z^-n_i), D^-1 L M0 = I and MInf(1/z) R D^-1 = I, so M0^-1
    is L with row i shifted by n_i and MInf(1/z)^-1 is R with column j shifted
    by n_j.  MInf^-1 comes back in w, like MInf: its entry (i, j) maps each
    exponent e of R[i][j] to -(e + n_j).
    """
    M0inv = [[p.shift(k) if p.terms else p for p in row] for row, k in zip(L.entries, n)]
    from_sums = LaurentPoly.from_sums
    MInfinv = [
        [from_sums({-(e + k): c for e, c in p.terms.items()}) if p.terms else p for p, k in zip(row, n)]
        for row in R.entries
    ]
    return LaurentMatrix._adopt(M0inv, L.rows, L.cols), LaurentMatrix._adopt(MInfinv, R.rows, R.cols)


def _det_exponent(M: LaurentMatrix, Minv: LaurentMatrix) -> int:
    """e with det M = c z^e, by Jacobi's formula z tr(M^-1 M') = e.

    M must be invertible over the Laurent ring with inverse Minv, so that its
    determinant is a monomial.
    """
    trace = LaurentPoly.zero()
    for i, row in enumerate(Minv.entries):
        for k, p in enumerate(row):
            q = M.entries[k][i]
            trace = trace + p * LaurentPoly({e - 1: e * c for e, c in q.terms.items()})
    return trace.shift(1).constant_value()


def verify_certificate(E: EquivariantBundle, cert: SplittingCertificate) -> CertReport:
    """Independent certificate checker (exact arithmetic only, no determinant).

    Checks: (i) MInf A M0 is the claimed diagonal D = diag(z^-n_i);
    (ii) M0 and M0^-1 are polynomial in z, MInf and MInf^-1 in w, so both
    determinants are nonzero constants; (iii) both frames satisfy the weight
    law; (iv) degrees are sorted non-increasing and sum to degree(E);
    (v) the chart-inf weights implied by MInf match lam_i - n_i a.
    (ii) and (iv) read the frame inverses off the identity in (i), so when
    (i) fails they fail too, with detail "needs product_diagonal".

    (i)-(iii) visit only what can fail: each product entry is tested for
    being zero (off the diagonal) or exactly z^-n_i (on it), and the
    expected polynomial is built only to word a failure; (ii) and (iii)
    read the exponents of nonzero frame entries only, and (iii) computes the
    weight each such entry requires once.
    """
    return _verify(E, cert)[0]


def _verify(
    E: EquivariantBundle, cert: SplittingCertificate
) -> tuple[CertReport, tuple[LaurentMatrix, LaurentMatrix] | None]:
    """``verify_certificate``'s report, and (M0^-1, MInf^-1) when check (i) holds."""
    checks: list[CertCheck] = []
    m = E.rank
    n_list = [s.n for s in cert.summands]
    a = E.torus.a
    r = E.torus.rank

    # (i) frame product reaches the diagonal monomial transition
    ok_shape = (
        len(cert.summands) == m
        and cert.M0.rows == cert.M0.cols == m
        and cert.MInf.rows == cert.MInf.cols == m
        and all(len(s.lam) == r for s in cert.summands)
    )
    if not ok_shape:
        checks.append(CertCheck("product_diagonal", False, "certificate shape mismatch"))
        checks.append(CertCheck("frames_invertible", False, "skipped"))
        checks.append(CertCheck("frames_equivariant", False, "skipped"))
        checks.append(CertCheck("degrees_sum", False, "skipped"))
        checks.append(CertCheck("summand_inf_weights", False, "skipped"))
        return CertReport(checks), None

    L = cert.MInf.invert_variable() @ E.A
    product = L @ cert.M0
    diag_ok = True
    detail = ""
    for i, row in enumerate(product.entries):
        d = -n_list[i]
        for j, p in enumerate(row):
            # off the diagonal only a zero entry passes; on it, exactly z^d
            if p.terms if i != j else p.terms != {d: 1}:
                diag_ok = False
                want = LaurentPoly.monomial(d) if i == j else LaurentPoly.zero()
                detail = f"entry ({i},{j}) is {p!r}, expected {want!r}"
                break
        if not diag_ok:
            break
    checks.append(CertCheck("product_diagonal", diag_ok, detail))

    # (ii) frames invertible over their charts: a frame and its inverse both
    # free of negative exponents means det * det^-1 = 1 in k[z] (or k[w]),
    # so the determinant is a nonzero constant
    inv_ok = False
    detail = "needs product_diagonal"
    inverses = None
    if diag_ok:
        inverses = M0inv, MInfinv = _frame_inverses(L, E.A @ cert.M0, n_list)
        not_polynomial = [
            name
            for name, M in (("M0", cert.M0), ("M0^-1", M0inv), ("MInf", cert.MInf), ("MInf^-1", MInfinv))
            if not all(min(p.terms) >= 0 for row in M.entries for p in row if p.terms)
        ]
        inv_ok = not not_polynomial
        detail = "; ".join(f"{name} has a negative exponent" for name in not_polynomial)
    checks.append(CertCheck("frames_invertible", inv_ok, detail))

    # (iii) weight law, written out directly: M0 maps summand coordinates to
    # bundle coordinates on chart 0, MInf maps bundle to summand on chart inf.
    # Only nonzero entries have monomials, so only they need a weight,
    # and each computes the weight it requires once
    lam = [s.lam for s in cert.summands]
    lam_inf = [weight_sub(s.lam, weight_scale(s.n, a)) for s in cert.summands]
    law_bad: list[str] = []
    if r:
        for name, M, need in (
            ("M0", cert.M0, lambda i, j: weight_sub(E.lambda0[i], lam[j])),
            ("MInf", cert.MInf, lambda i, j: weight_sub(E.lambdaInf[j], lam_inf[i])),
        ):
            for i, row in enumerate(M.entries):
                for j, p in enumerate(row):
                    if p.terms:
                        want = need(i, j)
                        law_bad += [
                            f"{name}[{i}][{j}] exponent {d}"
                            for d in sorted(p.terms)
                            if weight_scale(d, a) != want
                        ]
    checks.append(CertCheck("frames_equivariant", not law_bad, "; ".join(law_bad[:4])))

    # (iv) degree bookkeeping: det MInf(1/z) det A det M0 = z^-sum(n), so
    # degree(E) = sum(n) + e0 - eInf with det M0 = c z^e0 and det MInf =
    # c' w^eInf.  Both exponents are 0 when (ii) holds; otherwise Jacobi's
    # formula reads them off the inverses from (ii).
    sorted_ok = all(n_list[i] >= n_list[i + 1] for i in range(len(n_list) - 1))
    deg_ok = False
    detail = "needs product_diagonal"
    if diag_ok:
        excess = 0 if inv_ok else _det_exponent(cert.M0, M0inv) - _det_exponent(cert.MInf, MInfinv)
        deg_ok = sorted_ok and excess == 0
        detail = "" if deg_ok else f"degrees {n_list} vs degree(E) = {sum(n_list) + excess}"
    checks.append(CertCheck("degrees_sum", deg_ok, detail))

    # (v) chart-inf weights implied by the rows of MInf
    implied_ok = True
    detail = ""
    if r:
        for i in range(m):
            want = lam_inf[i]
            got = None
            for j in range(m):
                entry = cert.MInf.entries[i][j]
                if not entry.is_zero():
                    e = min(entry.terms)
                    got = weight_sub(E.lambdaInf[j], weight_scale(e, a))
                    break
            if got != want:
                implied_ok = False
                detail = f"row {i}: implied {got}, claimed {want}"
                break
    checks.append(CertCheck("summand_inf_weights", implied_ok, detail))
    return CertReport(checks), inverses


def projection_surjective_on_invariants(step: PeelStep) -> bool:
    """Does composing with the quotient projection stay onto, weight-0 part?

    For a peel step L -> E -> Q this checks, by exact rank computation, that
    every invariant global endomorphism of Q lifts to an invariant global
    bundle map Q -> E.  The projection is the constant matrix that drops the
    peeled coordinate of the reframed bundle: in the flattening j*rank(E) + i
    of ``hom_bundle``, it keeps the H^0 coefficients with i >= 1.  A map
    Q -> Q is fixed by its chart-inf matrix (F0 = Q.A^-1 FInf(1/z) Q.A), so
    the rank of those coefficients is the rank of the projected maps.
    """
    Q = step.quotient
    if Q.rank == 0:
        return True
    m = step.reframed.rank
    zero = Q.torus.zero_weight
    composed = [
        {(k, e): c for k, p in enumerate(h) if k % m for e, c in p.terms.items()}
        for w, h in _h0_records(hom_bundle(Q, step.reframed))
        if w == zero
    ]
    index = {key: t for t, key in enumerate(sorted({key for vec in composed for key in vec}))}
    rows = [{index[key]: c for key, c in vec.items()} for vec in composed]
    return rank_sparse(rows, len(index)) == h0_character(hom_bundle(Q, Q)).mult.get(zero, 0)


def splitting_hom(
    E: EquivariantBundle, cert: SplittingCertificate
) -> tuple[HomElement, HomElement]:
    """Mutually inverse bundle maps between the summand sum and E.

    Returns (s, p) with s from the direct sum into E and p back; p o s is the
    identity exactly on chart-0 matrices, and both maps are weight-invariant.
    The frame inverses s.FInf = MInf^-1 and p.F0 = M0^-1 are the ones the
    verifier read off the certificate identity, not formed by an adjugate.
    """
    report, inverses = _verify(E, cert)
    if not report.ok:
        raise ValueError("refusing to build a splitting from an invalid certificate: " + report.summary())
    torus = E.torus
    S = EquivariantBundle(
        LaurentMatrix.diagonal([LaurentPoly.monomial(-t.n) for t in cert.summands]),
        tuple(t.lam for t in cert.summands),
        tuple(t.chart_inf_weight(torus) for t in cert.summands),
        torus,
    )
    M0inv, MInfinv = inverses
    s = HomElement(S, E, cert.M0, MInfinv)
    p = HomElement(E, S, M0inv, cert.MInf)
    for h, name in ((s, "section-side"), (p, "projection-side")):
        bad = h.intertwining_violation()
        if bad:
            raise InvariantViolation(f"{name} splitting map is not a bundle map: {bad}")
    if p.F0 @ s.F0 != LaurentMatrix.identity(E.rank):
        raise InvariantViolation("splitting maps are not mutually inverse")
    return s, p
