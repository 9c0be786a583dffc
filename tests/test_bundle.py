import random

import pytest

from equisplit.bundle import (
    EquivariantBundle,
    LineSummand,
    NO_TORUS,
    TorusAction,
    degree,
    direct_sum,
    dual,
    hom_bundle,
    line_bundle,
    random_instance,
    random_reframe,
    twist,
    validate,
)
from equisplit import splitting
from equisplit.cohomology import h0_dim, h1_dim
from equisplit.laurent import LaurentPoly
from equisplit.linalg import LaurentMatrix, mat_adjugate, mat_inverse
from test_linalg import SINGULAR, count_adjugates

P = LaurentPoly
T1 = TorusAction(1, (1,))


def lm(rows):
    return LaurentMatrix([[P(dict(cell)) for cell in row] for row in rows])


def sample(seed, r=None, max_rank=4, ops=8, torus=None):
    rng = random.Random(seed)
    if torus is None:
        if r is None:
            r = rng.randint(0, 2)
        torus = TorusAction(r, tuple(rng.randint(-2, 2) for _ in range(r)))
    m = rng.randint(1, max_rank)
    summands = [
        LineSummand(rng.randint(-3, 3), tuple(rng.randint(-2, 2) for _ in range(torus.rank)))
        for _ in range(m)
    ]
    return random_instance(seed, summands, rng.randint(0, ops), torus) + (torus,)


def dense(m, torus):
    """Dense rank-m scramble with 10*m ops, seeded as the splitting tests' dense cases."""
    rng = random.Random(1)
    summands = [
        LineSummand(rng.randint(-3, 3), tuple(rng.randint(-2, 2) for _ in torus.a)) for _ in range(m)
    ]
    return random_instance(1, summands, 10 * m, torus)[0]


class TestTorusAction:
    def test_no_torus(self):
        assert NO_TORUS.rank == 0 and NO_TORUS.a == ()
        assert NO_TORUS.base_is_fixed()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            TorusAction(2, (1,))

    def test_fixed_base(self):
        assert TorusAction(2, (0, 0)).base_is_fixed()
        assert not TorusAction(2, (0, 1)).base_is_fixed()

    @pytest.mark.parametrize("x", [0.5, 1.0, "1", True])
    def test_non_integer_base_character_rejected(self, x):
        # truncating 0.5 to 0 would turn a moving base into a fixed one
        with pytest.raises(TypeError):
            TorusAction(1, (x,))

    def test_base_character_becomes_a_tuple(self):
        assert TorusAction(2, [1, -1]).a == (1, -1)

    @pytest.mark.parametrize("n", [2.7, 2.0])
    def test_non_integer_line_bundle_degree_rejected(self, n):
        # truncating 2.7 would build O(2)
        with pytest.raises(TypeError):
            line_bundle(n, (0,), T1)

    @pytest.mark.parametrize("lam", [(0.5,), (1.0,), ("1",), (True,)])
    def test_non_integer_line_bundle_weight_rejected(self, lam):
        # (0.5,) would build a bundle that validates, with H^0 character
        # {(0.5,): 1, (-0.5,): 1}
        with pytest.raises(TypeError):
            line_bundle(1, lam, T1)

    @pytest.mark.parametrize("n, lam", [(2.7, (0,)), (2.0, (0,)), (True, (0,)), (2, (0.5,)), (2, ("0",))])
    def test_non_integer_summand_rejected(self, n, lam):
        with pytest.raises(TypeError):
            LineSummand(n, lam)


class TestValidate:
    def test_line_bundle_valid(self):
        # O(1) with lam0=(0), lamInf=(-1), a=(1): the entry z^-1 satisfies
        # d*a = -1 = lamInf - lam0
        E = EquivariantBundle(lm([[{-1: 1}]]), ((0,),), ((-1,),), T1)
        assert validate(E).ok

    def test_wrong_inf_weight_reported(self):
        E = EquivariantBundle(lm([[{-1: 1}]]), ((0,),), ((0,),), T1)
        report = validate(E)
        assert not report.ok
        assert "A[0][0]" in report.violations[0]
        assert "z^-1" in report.violations[0]

    def test_non_integer_frame_weights_reported(self):
        # the frames of line_bundle(1, (0.5,), T1), built past its type check
        E = EquivariantBundle(lm([[{-1: 1}]]), ((0.5,),), ((-0.5,),), T1)
        assert validate(E).violations == [
            "lambda0[0] = (0.5,) has a non-integer entry",
            "lambdaInf[0] = (-0.5,) has a non-integer entry",
        ]
        F = EquivariantBundle(lm([[{-1: 1}]]), ((0,),), ((1.0,),), T1)
        assert validate(F).violations == ["lambdaInf[0] = (1.0,) has a non-integer entry"]

    def test_jump_instance_no_torus(self):
        E = EquivariantBundle(lm([[{1: 1}, {0: 1}], [{}, {-1: 1}]]), ((), ()), ((), ()))
        assert validate(E).ok

    def test_nonmonomial_det_reported(self):
        # a det pass that finds no monomial caches det A as the verdict,
        # so the bundle stays invalid on every later path
        E = EquivariantBundle(lm([[{0: 1, 1: 1}]]), ((),), ((),))
        report = validate(E)
        assert not report.ok
        assert "monomial" in report.violations[0]
        assert validate(E).violations == report.violations
        with pytest.raises(ValueError):
            E.inverse_transition()
        assert validate(E).violations == report.violations
        with pytest.raises(ValueError):
            degree(E)

    def test_singular_verdict_is_cached(self, monkeypatch):
        # det SINGULAR = 0 is not visible in its pattern, so the det pass
        # takes a Faddeev–LeVerrier pass; every later layer reads its verdict
        E = EquivariantBundle(lm(SINGULAR), ((), ()), ((), ()))
        sizes = count_adjugates(monkeypatch)
        assert validate(E).violations == ["det(A) = 0 is not a nonzero monomial"]
        for ask in (h0_dim, h1_dim, degree, EquivariantBundle.inverse_transition):
            with pytest.raises(ValueError, match="not a nonzero monomial"):
                ask(E)
        assert sizes == [2]

    @pytest.mark.parametrize("rows", [SINGULAR, [[{0: 1, 1: 1}]]], ids=["det-0", "det-1+z"])
    def test_twist_carries_a_singular_verdict(self, monkeypatch, rows):
        # the twist's det is det A z^(-n m), read off the source's verdict
        E = EquivariantBundle(lm(rows), ((),) * len(rows), ((),) * len(rows))
        validate(E)
        sizes = count_adjugates(monkeypatch)
        T = twist(E, 1, ())
        got = validate(T).violations
        assert sizes == []
        fresh = EquivariantBundle(T.A, T.lambda0, T.lambdaInf, T.torus)
        assert got == validate(fresh).violations
        assert len(got) == 1 and got[0].endswith("is not a nonzero monomial")

    def test_twist_of_a_non_square_matrix_raises(self):
        E = EquivariantBundle(LaurentMatrix.zeros(2, 3), ((), ()), ((), ()))
        with pytest.raises(ValueError, match="non-square"):
            twist(E, 1, ())

    def test_single_corrupted_monomial_reported(self):
        rng = random.Random(0)
        checked = 0
        seed = 0
        while checked < 25:
            seed += 1
            E, _, torus = sample(seed)
            if torus.base_is_fixed():
                continue  # exponent bumps cannot break the law when a = 0
            entries = [
                (i, j)
                for i in range(E.rank)
                for j in range(E.rank)
                if not E.A.entries[i][j].is_zero()
            ]
            i, j = entries[rng.randrange(len(entries))]
            tampered = LaurentMatrix([row[:] for row in E.A.entries])
            tampered.entries[i][j] = E.A.entries[i][j].shift(1)
            bad = EquivariantBundle(tampered, E.lambda0, E.lambdaInf, torus)
            report = validate(bad)
            assert not report.ok
            assert any(f"A[{i}][{j}]" in v or "det" in v for v in report.violations)
            checked += 1

    def test_random_instances_validate(self):
        for seed in range(40):
            E, _, _ = sample(seed)
            assert validate(E).ok, seed


class TestDegree:
    def test_line_bundle(self):
        assert degree(line_bundle(3)) == 3

    def test_diagonal(self):
        E = EquivariantBundle(lm([[{-2: 1}, {}], [{}, {3: 1}]]), ((), ()), ((), ()))
        assert degree(E) == -1

    def test_jump(self):
        E = EquivariantBundle(lm([[{1: 1}, {0: 1}], [{}, {-1: 1}]]), ((), ()), ((), ()))
        assert degree(E) == 0

    def test_additive_over_sum_negated_by_dual(self):
        for seed in range(10):
            E, _, torus = sample(seed)
            F, _, _ = sample(seed + 100, torus=torus)
            assert degree(direct_sum(E, F)) == degree(E) + degree(F)
            assert degree(dual(E)) == -degree(E)


class TestTwist:
    def test_untwist_line_bundle(self):
        E = line_bundle(1, (0,), T1)
        out = twist(E, -1, (0,))
        assert out.A.entries[0][0] == P.one()
        assert out.lambda0 == ((0,),)
        assert out.lambdaInf == ((0,),)
        assert validate(out).ok

    def test_character_shift(self):
        E, _, torus = sample(5, r=1)
        mu = (2,)
        out = twist(E, 0, mu)
        assert out.A == E.A
        assert out.lambda0 == tuple((w[0] + 2,) for w in E.lambda0)

    @pytest.mark.parametrize("n, lam", [(0.5, (0,)), (True, (0,)), (1, (0.5,)), (1, (True,))])
    def test_non_integer_twist_rejected(self, n, lam):
        # (0.5, (0,)) used to build the transition z^-2.5 with degree 2.5
        with pytest.raises(TypeError):
            twist(line_bundle(2, (0,), T1), n, lam)

    @pytest.mark.parametrize("torus, lam", [(T1, ()), (T1, (0, 0)), (TorusAction(0, ()), (0,))])
    def test_weight_length_rejected(self, torus, lam):
        E = line_bundle(2, (0,) * torus.rank, torus)
        with pytest.raises(ValueError, match="linearization weight length must equal the torus rank"):
            twist(E, 1, lam)

    def test_degree_shift(self):
        for seed in range(10):
            E, _, torus = sample(seed)
            zero = torus.zero_weight
            n = seed % 5 - 2
            assert degree(twist(E, n, zero)) == degree(E) + E.rank * n
            assert validate(twist(E, n, zero)).ok


class TestDual:
    def test_line_bundle(self):
        D = dual(line_bundle(2, (3,), T1))
        assert degree(D) == -2
        assert D.lambda0 == ((-3,),)

    def test_involution(self):
        for seed in range(15):
            E, _, _ = sample(seed)
            DD = dual(dual(E))
            assert DD.A == E.A
            assert DD.lambda0 == E.lambda0 and DD.lambdaInf == E.lambdaInf
            assert validate(dual(E)).ok


class TestHomAndSum:
    def test_hom_of_line_bundles(self):
        H = hom_bundle(line_bundle(2, (1,), T1), line_bundle(-1, (0,), T1))
        L = line_bundle(-3, (-1,), T1)
        assert H.A == L.A
        assert H.lambda0 == L.lambda0 and H.lambdaInf == L.lambdaInf

    def test_hom_degree_formula(self):
        for seed in range(8):
            E, _, torus = sample(seed, max_rank=3)
            F, _, _ = sample(seed + 50, max_rank=3, torus=torus)
            H = hom_bundle(E, F)
            assert H.rank == E.rank * F.rank
            assert degree(H) == E.rank * degree(F) - F.rank * degree(E)
            assert validate(H).ok

    def test_inverse_transition_is_mat_inverse(self, monkeypatch):
        # hom_bundle, dual, twist and a peel's quotient inherit their inverse
        # and degree instead of forming an adjugate; each inverse must be the
        # inverse of its transition, and each degree that of a fresh bundle
        # on the same data, which takes its own det pass
        inputs = []
        for seed in range(8):
            E, _, torus = sample(seed, max_rank=2)
            F, _, _ = sample(seed + 50, max_rank=2, torus=torus)
            inputs += [hom_bundle(E, F), dual(E), twist(F, 2, torus.zero_weight)]
        for seed in range(20):
            E, _, _ = sample(seed, max_rank=5)
            if E.rank >= 2:
                inputs.append(splitting.peel(E).quotient)
        peeled = len(inputs)
        peel = splitting.peel

        def recorded(*args):
            step = peel(*args)
            if step.quotient.rank:
                inputs.append(step.quotient)
            return step

        monkeypatch.setattr(splitting, "peel", recorded)
        for a in ((), (0,), (1,)):
            splitting.equivariant_split(dense(8, TorusAction(len(a), a)))
        assert peeled > 24 and len(inputs) - peeled == 3 * 7  # ranks 7..1 of each dense split
        for k, B in enumerate(inputs):
            assert B._verdict is not None, k  # inherited, not yet computed below
            assert B.inverse_transition() == mat_inverse(*mat_adjugate(B.A)), k
            assert degree(B) == degree(EquivariantBundle(B.A, B.lambda0, B.lambdaInf, B.torus)), k

    def test_endomorphisms_have_degree_zero(self):
        E, _, _ = sample(3, max_rank=3)
        assert degree(hom_bundle(E, E)) == 0

    def test_torus_mismatch(self):
        with pytest.raises(ValueError):
            direct_sum(line_bundle(1, (0,), T1), line_bundle(1))
        with pytest.raises(ValueError):
            hom_bundle(line_bundle(1, (0,), T1), line_bundle(1))


class TestRandomInstance:
    def test_complexity_zero_is_diagonal(self):
        summands = [LineSummand(2, (1,)), LineSummand(-1, (0,))]
        E, hidden = random_instance(9, summands, 0, T1)
        assert E.A == lm([[{-2: 1}, {}], [{}, {1: 1}]])
        assert hidden == sorted(summands, key=LineSummand.sort_key)

    def test_deterministic(self):
        summands = [LineSummand(1, (0,)), LineSummand(0, (1,))]
        E1, _ = random_instance(4, summands, 7, T1)
        E2, _ = random_instance(4, summands, 7, T1)
        assert E1.A == E2.A and E1.lambda0 == E2.lambda0

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            random_instance(0, [LineSummand(1, ())], 3, T1)

    def test_negative_op_count_rejected(self):
        summands = [LineSummand(1, (0,)), LineSummand(0, (1,))]
        with pytest.raises(ValueError, match="non-negative"):
            random_instance(0, summands, -3, T1)
        E, _ = random_instance(0, summands, 2, T1)
        with pytest.raises(ValueError, match="non-negative"):
            random_reframe(E, 1, -1)

    def test_reframe_keeps_validity(self):
        for seed in range(10):
            E, _, _ = sample(seed)
            R = random_reframe(E, seed + 1, 5)
            assert validate(R).ok
            assert degree(R) == degree(E)
