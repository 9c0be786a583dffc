"""Vector bundles on the projective line as Laurent transition matrices.

A rank-m bundle is a transition matrix A(z) that converts chart-0 section
coordinates into chart-infinity coordinates on the overlap; invertibility
over the Laurent ring means det A is a nonzero monomial.  ``validate``,
``degree`` and ``inverse_transition`` read one cached det verdict per bundle,
from one ``mat_det_inverse``, which pivots on the monomial entries of A and
runs a Faddeev–LeVerrier pass on each connected block of the unit-free core
left, if any; derived bundles are built with their source's verdict.  A torus
action is recorded by a base character exponent vector ``a`` together with
one integer weight vector per frame vector on each chart.

Conventions (fixed here, cited everywhere else):

* C1 — a section is a pair (f, g) with f in k[z]^m, g in k[w]^m, w = 1/z,
  related by g(1/z) = A(z) f(z).
* C2 — the degree-n line bundle has transition z^(-n), so its global
  sections for n >= 0 are spanned by 1, z, ..., z^n.
* C3 — the torus acts on sections by (t.f)(z) = t^L0 f(alpha(t)^-1 z); the
  monomial z^d in component i has weight lambda0[i] - d*a on chart 0, and
  w-exponent j in component i has weight lambdaInf[i] + j*a on chart inf.

The equivariance law for transition entries follows: every monomial c*z^d of
A[i][j] must satisfy d*a = lambdaInf[i] - lambda0[j].  A frame map (new
coords = M @ old coords) obeys it with rows weighted by the new frame, and
``derive_target_weights`` reads those weights off it in one checked pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .laurent import LaurentPoly, Scalar
from .linalg import LaurentMatrix, mat_det_inverse

Weight = tuple[int, ...]


class InvariantViolation(RuntimeError):
    """A theory-guaranteed invariant failed: corrupted input or internal bug."""


def weight_add(u: Weight, v: Weight) -> Weight:
    return tuple(x + y for x, y in zip(u, v, strict=True))

def weight_sub(u: Weight, v: Weight) -> Weight:
    return tuple(x - y for x, y in zip(u, v, strict=True))

def weight_neg(u: Weight) -> Weight:
    return tuple(-x for x in u)

def weight_scale(k: int, u: Weight) -> Weight:
    return tuple(k * x for x in u)


@dataclass(frozen=True)
class TorusAction:
    """Torus of dimension ``rank`` acting through the character ``a``.

    rank = 0 encodes "no torus" (plain splitting mode); a may also be the
    zero vector, in which case the torus fixes the base pointwise.
    """

    rank: int
    a: Weight

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("torus rank must be nonnegative")
        if len(self.a) != self.rank:
            raise ValueError(f"base character has length {len(self.a)}, expected {self.rank}")
        a = tuple(self.a)
        if any(x.__class__ is not int for x in a):
            raise TypeError(f"base character entries must be int, got {a!r}")
        object.__setattr__(self, "a", a)

    @property
    def zero_weight(self) -> Weight:
        return (0,) * self.rank

    def base_is_fixed(self) -> bool:
        """True when the action does not move the base coordinate."""
        return all(x == 0 for x in self.a)


NO_TORUS = TorusAction(0, ())


@dataclass(frozen=True)
class LineSummand:
    """A linearized line bundle: degree n with chart-0 weight lam.

    The induced chart-infinity weight is lam - n*a, forced by the
    equivariance law applied to the transition z^(-n).
    """

    n: int
    lam: Weight

    def __post_init__(self):
        if self.n.__class__ is not int or any(x.__class__ is not int for x in self.lam):
            raise TypeError(f"summand degree and weight must be int, got {self.n!r}, {self.lam!r}")

    def chart_inf_weight(self, torus: TorusAction) -> Weight:
        return weight_sub(self.lam, weight_scale(self.n, torus.a))

    def sort_key(self) -> tuple:
        return (-self.n, self.lam)


# the det verdict: (degree, A^-1) when det A is a nonzero monomial, else det A
_Verdict = tuple[int, LaurentMatrix] | LaurentPoly


class EquivariantBundle:
    """Transition matrix plus per-chart frame weights under a torus action."""

    # _verdict caches the det verdict (_det_verdict); twist, dual, hom_bundle
    # and a peel's quotient are built with theirs (_derived).  _h0 caches the
    # forward-eliminated H^0 system (cohomology._H0System): column weights,
    # pivots and echelon rows, which max_twist and eigen_section share
    __slots__ = ("A", "lambda0", "lambdaInf", "torus", "_verdict", "_h0")

    def __init__(
        self,
        A: LaurentMatrix,
        lambda0: tuple[Weight, ...],
        lambdaInf: tuple[Weight, ...],
        torus: TorusAction = NO_TORUS,
    ):
        self.A = A
        self.lambda0 = tuple(tuple(w) for w in lambda0)
        self.lambdaInf = tuple(tuple(w) for w in lambdaInf)
        self.torus = torus
        self._verdict: _Verdict | None = None
        self._h0 = None

    @classmethod
    def _derived(cls, A, lambda0, lambdaInf, torus: TorusAction, verdict: _Verdict) -> EquivariantBundle:
        """A bundle built from another one, with the det verdict its source implies."""
        out = cls(A, lambda0, lambdaInf, torus)
        out._verdict = verdict
        return out

    @property
    def rank(self) -> int:
        return self.A.rows

    def _det_verdict(self) -> _Verdict:
        """Set when a derived bundle is built, else one ``mat_det_inverse`` on first use."""
        if self._verdict is None:
            det, inv = mat_det_inverse(self.A)
            self._verdict = det if inv is None else (-det.deg, inv)
        return self._verdict

    def inverse_transition(self) -> LaurentMatrix:
        """A^-1: every layer asks here, so a singular A raises this one ValueError."""
        verdict = self._det_verdict()
        if isinstance(verdict, LaurentPoly):
            raise ValueError(f"determinant {verdict!r} is not a nonzero monomial")
        return verdict[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EquivariantBundle):
            return NotImplemented
        return (
            self.A == other.A
            and self.lambda0 == other.lambda0
            and self.lambdaInf == other.lambdaInf
            and self.torus == other.torus
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"EquivariantBundle(rank={self.rank}, torus_rank={self.torus.rank}, "
            f"lambda0={self.lambda0}, lambdaInf={self.lambdaInf}, A={self.A!r})"
        )


@dataclass
class ValidationReport:
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def transition_law_violations(
    A: LaurentMatrix,
    lambda_rows: tuple[Weight, ...],
    lambda_cols: tuple[Weight, ...],
    torus: TorusAction,
    label: str = "A",
) -> list[str]:
    """Check d*a = lambda_rows[i] - lambda_cols[j] for every monomial of A.

    This is the transition-shaped law.  A chart-0 frame map (new coords =
    M @ old coords) obeys it with rows = new and cols = old weights; a
    chart-inf frame over k[w] obeys it as ``M.invert_variable()``.
    """
    if torus.rank == 0:
        return []
    out = []
    a = torus.a
    for i, row in enumerate(A.entries):
        lam = lambda_rows[i]
        for j, p in enumerate(row):
            if not p.terms:
                continue
            need = weight_sub(lam, lambda_cols[j])
            for d in sorted(p.terms):
                got = tuple([d * x for x in a])
                if got != need:
                    out.append(f"{label}[{i}][{j}]: monomial z^{d} has d*a={got}, law requires {need}")
    return out


def derive_target_weights(
    M: LaurentMatrix,
    source: tuple[Weight, ...],
    torus: TorusAction,
    label: str,
) -> tuple[Weight, ...]:
    """Row weights of a frame map (new coords = M @ old coords over k[z]), law checked.

    Every z^d of M[i][j] needs d*a = target[i] - source[j], the law of
    ``transition_law_violations``; a chart-inf frame over k[w] is passed as
    ``M.invert_variable()``.  The first monomial of row i fixes target[i],
    every other one is compared with it in the same pass, and a mismatch
    raises InvariantViolation naming label[i][j].  A zero row raises ValueError.
    """
    if torus.rank == 0:
        return ((),) * M.rows
    a = torus.a
    out = []
    bad = []
    for i, row in enumerate(M.entries):
        lam = None
        for j, p in enumerate(row):
            if not p.terms:
                continue
            exps = sorted(p.terms)
            if lam is None:
                lam = weight_add(source[j], weight_scale(exps[0], a))
            need = weight_sub(lam, source[j])
            for d in exps:
                got = tuple([d * x for x in a])
                if got != need:
                    bad.append(f"{label}[{i}][{j}]: monomial z^{d} has d*a={got}, law requires {need}")
        if lam is None:
            raise ValueError(f"row {i} is zero; weights cannot be derived")
        out.append(lam)
    if bad:
        raise InvariantViolation("frame completion broke equivariance: " + "; ".join(bad))
    return tuple(out)


def validate(E: EquivariantBundle) -> ValidationReport:
    """Report every violated bundle invariant (empty report means valid)."""
    v: list[str] = []
    m = E.rank
    if E.A.rows != E.A.cols:
        v.append(f"transition matrix is {E.A.rows}x{E.A.cols}, not square")
        return ValidationReport(v)
    if len(E.lambda0) != m or len(E.lambdaInf) != m:
        v.append(
            f"weight lists have lengths {len(E.lambda0)}/{len(E.lambdaInf)}, expected rank {m}"
        )
        return ValidationReport(v)
    r = E.torus.rank
    for name, lams in (("lambda0", E.lambda0), ("lambdaInf", E.lambdaInf)):
        for i, w in enumerate(lams):
            if len(w) != r:
                v.append(f"{name}[{i}] has length {len(w)}, expected torus rank {r}")
                continue
            for x in w:  # a plain loop: any() over a generator costs 4x on these short tuples
                if x.__class__ is not int:
                    v.append(f"{name}[{i}] = {w!r} has a non-integer entry")
                    break
    if v:
        return ValidationReport(v)
    verdict = E._det_verdict()
    if isinstance(verdict, LaurentPoly):
        v.append(f"det(A) = {verdict!r} is not a nonzero monomial")
    v.extend(transition_law_violations(E.A, E.lambdaInf, E.lambda0, E.torus))
    return ValidationReport(v)


def degree(E: EquivariantBundle) -> int:
    """Minus the z-exponent of det(A); additive over direct sums."""
    E.inverse_transition()  # raises for a singular A
    return E._verdict[0]


def _linearization(n: int, lam: Weight, torus: TorusAction) -> LineSummand:
    """The (n, lam) line summand, its weight length checked against the torus rank."""
    s = LineSummand(n, tuple(lam))
    if len(s.lam) != torus.rank:
        raise ValueError("linearization weight length must equal the torus rank")
    return s


def line_bundle(n: int, lam: Weight = (), torus: TorusAction = NO_TORUS) -> EquivariantBundle:
    """The degree-n line bundle with chart-0 linearization weight lam."""
    s = _linearization(n, lam, torus)
    A = LaurentMatrix([[LaurentPoly.monomial(-n)]])
    return EquivariantBundle(A, (s.lam,), (s.chart_inf_weight(torus),), torus)


def twist(E: EquivariantBundle, n: int, lam: Weight) -> EquivariantBundle:
    """Tensor with the (n, lam)-linearized line bundle.

    Transition becomes z^(-n) A; chart-0 weights shift by lam, chart-inf
    weights by lam - n*a; the degree grows by rank*n, and a singular det
    is multiplied by z^(-n*rank).
    """
    s = _linearization(n, lam, E.torus)
    shift_inf = s.chart_inf_weight(E.torus)
    verdict = E._det_verdict()
    if isinstance(verdict, LaurentPoly):
        verdict = verdict.shift(-n * E.rank)
    else:
        verdict = (verdict[0] + n * E.rank, verdict[1].shift(n))
    return EquivariantBundle._derived(
        E.A.shift(-n),
        tuple(weight_add(w, s.lam) for w in E.lambda0),
        tuple(weight_add(w, shift_inf) for w in E.lambdaInf),
        E.torus,
        verdict,
    )


def dual(E: EquivariantBundle) -> EquivariantBundle:
    """Dual bundle: transition transpose(A^-1), weights negated."""
    return EquivariantBundle._derived(
        E.inverse_transition().transpose(),
        tuple(weight_neg(w) for w in E.lambda0),
        tuple(weight_neg(w) for w in E.lambdaInf),
        E.torus,
        (-degree(E), E.A.transpose()),
    )


def direct_sum(E: EquivariantBundle, F: EquivariantBundle) -> EquivariantBundle:
    """Block-diagonal transition with concatenated weights."""
    if E.torus != F.torus:
        raise ValueError("direct sum of bundles over different tori")
    m, n = E.rank, F.rank
    A = LaurentMatrix.zeros(m + n, m + n)
    for i in range(m):
        for j in range(m):
            A.entries[i][j] = E.A.entries[i][j]
    for i in range(n):
        for j in range(n):
            A.entries[m + i][m + j] = F.A.entries[i][j]
    return EquivariantBundle(
        A, E.lambda0 + F.lambda0, E.lambdaInf + F.lambdaInf, E.torus
    )


def hom_bundle(E: EquivariantBundle, F: EquivariantBundle) -> EquivariantBundle:
    """The bundle of morphisms E -> F, realized as dual(E) tensor F.

    Index pairs (j, i) with j a frame index of E and i of F are flattened as
    j*rank(F) + i, and that component of a global section (f, g) is entry
    (i, j) of the bundle map's chart matrices F0 and FInf respectively.
    """
    if E.torus != F.torus:
        raise ValueError("hom of bundles over different tori")
    dE = dual(E)
    K = dE.A.kron(F.A)
    lam0 = tuple(
        weight_add(dE.lambda0[j], F.lambda0[i]) for j in range(E.rank) for i in range(F.rank)
    )
    lamInf = tuple(
        weight_add(dE.lambdaInf[j], F.lambdaInf[i]) for j in range(E.rank) for i in range(F.rank)
    )
    deg = E.rank * degree(F) - F.rank * degree(E)
    inv = dE.inverse_transition().kron(F.inverse_transition())
    return EquivariantBundle._derived(K, lam0, lamInf, E.torus, (deg, inv))


@dataclass
class HomElement:
    """A bundle map: chart-local matrices (F0 over k[z], FInf over k[w]).

    Satisfies the intertwining law  target.A @ F0 = FInf(1/z) @ source.A
    as an exact Laurent identity.
    """

    source: EquivariantBundle
    target: EquivariantBundle
    F0: LaurentMatrix
    FInf: LaurentMatrix

    def intertwining_violation(self) -> str | None:
        if self.target.A @ self.F0 != self.FInf.invert_variable() @ self.source.A:
            return "target.A @ F0 != FInf(1/z) @ source.A"
        return None


# -- seeded random instances with hidden ground truth -----------------------

_COEFF_POOL = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2))

_MAX_OP_EXP = 3


def _solve_exponent(diff: Weight, a: Weight) -> int | None:
    """The unique integer e with e*a = diff, if any (a nonzero)."""
    for ak, dk in zip(a, diff):
        if ak != 0:
            if dk % ak != 0:
                return None
            e = dk // ak
            return e if weight_scale(e, a) == diff else None
    return None


def random_instance(
    seed: int,
    summands: list[LineSummand],
    complexity: int,
    torus: TorusAction = NO_TORUS,
) -> tuple[EquivariantBundle, list[LineSummand]]:
    """A seeded bundle equivariantly isomorphic to the given line-bundle sum.

    Starting from the diagonal transition diag(z^(-n_i)) with the given
    weights, ``complexity`` weight-respecting elementary operations are
    applied: unipotent column adds over k[z], unipotent row adds over k[w]
    (monomial multipliers, exponent window <= 3) and transpositions carrying
    their weight swap.  When a sampled add admits no legal exponent the
    operation falls back to a transposition, so the op count is exact and
    generation always terminates.  Deterministic for a fixed seed; the
    returned bundle validates.  The second component is the hidden answer:
    the summand multiset in canonical order.
    """
    for s in summands:
        if len(s.lam) != torus.rank:
            raise ValueError("summand weight length must equal the torus rank")
    A = LaurentMatrix.diagonal([LaurentPoly.monomial(-s.n) for s in summands])
    lam0 = [s.lam for s in summands]
    lamInf = [s.chart_inf_weight(torus) for s in summands]
    _apply_random_ops(A, lam0, lamInf, torus, random.Random(seed), complexity)
    E = EquivariantBundle(A, tuple(lam0), tuple(lamInf), torus)
    hidden = sorted(summands, key=LineSummand.sort_key)
    return E, hidden


def random_reframe(E: EquivariantBundle, seed: int, complexity: int) -> EquivariantBundle:
    """E rewritten in fresh random chart-local frames (same isomorphism class)."""
    A = LaurentMatrix([row[:] for row in E.A.entries])
    lam0 = list(E.lambda0)
    lamInf = list(E.lambdaInf)
    _apply_random_ops(A, lam0, lamInf, E.torus, random.Random(seed), complexity)
    return EquivariantBundle(A, tuple(lam0), tuple(lamInf), E.torus)


def _apply_random_ops(
    A: LaurentMatrix,
    lam0: list[Weight],
    lamInf: list[Weight],
    torus: TorusAction,
    rng: random.Random,
    complexity: int,
) -> None:
    if complexity < 0:
        raise ValueError(f"op count must be non-negative, got {complexity}")
    m = A.rows
    a = torus.a
    trivial_a = torus.base_is_fixed()

    def legal_exponents(diff: Weight, lo: int, hi: int) -> list[int]:
        if trivial_a:
            return list(range(lo, hi + 1)) if not any(diff) else []
        e = _solve_exponent(diff, a)
        return [e] if e is not None and lo <= e <= hi else []

    def apply_col_add(i: int, j: int, e: int, c: Scalar) -> None:
        # column j += c*z^e * column i  (chart-0 frame change)
        for r in range(m):
            A.entries[r][j] = A.entries[r][j] + A.entries[r][i].shift(e).scale(c)

    def apply_row_add(i: int, j: int, e: int, c: Scalar) -> None:
        # row i += c*z^e * row j  (chart-inf frame change, e <= 0)
        for s_ in range(m):
            A.entries[i][s_] = A.entries[i][s_] + A.entries[j][s_].shift(e).scale(c)

    def apply_col_swap(i: int, j: int) -> None:
        for r in range(m):
            A.entries[r][i], A.entries[r][j] = A.entries[r][j], A.entries[r][i]
        lam0[i], lam0[j] = lam0[j], lam0[i]

    def apply_row_swap(i: int, j: int) -> None:
        A.entries[i], A.entries[j] = A.entries[j], A.entries[i]
        lamInf[i], lamInf[j] = lamInf[j], lamInf[i]

    for _ in range(complexity):
        if m < 2:
            break
        kind = rng.choice(("col_add", "row_add", "col_swap", "row_swap"))
        done = False
        if kind in ("col_add", "row_add"):
            for _attempt in range(16):
                i, j = rng.sample(range(m), 2)
                c = rng.choice(_COEFF_POOL)
                if kind == "col_add":
                    exps = legal_exponents(weight_sub(lam0[i], lam0[j]), 0, _MAX_OP_EXP)
                else:
                    exps = legal_exponents(weight_sub(lamInf[i], lamInf[j]), -_MAX_OP_EXP, 0)
                if exps:
                    e = rng.choice(exps)
                    if kind == "col_add":
                        apply_col_add(i, j, e, c)
                    else:
                        apply_row_add(i, j, e, c)
                    done = True
                    break
        if not done:
            i, j = rng.sample(range(m), 2)
            if kind == "col_swap" or kind == "col_add":
                apply_col_swap(i, j)
            else:
                apply_row_swap(i, j)
