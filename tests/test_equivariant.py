import random

import pytest

from equisplit.bundle import (
    EquivariantBundle,
    LineSummand,
    TorusAction,
    hom_bundle,
    line_bundle,
    random_instance,
    transition_law_violations,
)
from equisplit.cohomology import h0_sections
from equisplit.equivariant import (
    Character,
    HomElement,
    hom_compose,
    hom_element_from_section,
    hom_identity,
    hom_monomial_weights,
    monomial_weight,
    section_from_hom_element,
    weight_project_hom,
)
from equisplit.laurent import LaurentPoly
from equisplit.linalg import LaurentMatrix

P = LaurentPoly
T1 = TorusAction(1, (1,))


def lm(rows):
    return LaurentMatrix([[P(dict(cell)) for cell in row] for row in rows])


class TestCharacter:
    def test_multiset_semantics(self):
        c = Character.from_weights([(0,), (0,), (1,)])
        assert c.mult == {(0,): 2, (1,): 1}
        assert c.total() == 3

    def test_virtual_subtraction(self):
        c = Character({(0,): 1}) - Character({(0,): 2, (1,): 1})
        assert c.mult == {(0,): -1, (1,): -1}

    def test_zero_mult_dropped(self):
        assert not (Character({(0,): 1}) - Character({(0,): 1}))

    def test_json_sorted(self):
        c = Character({(1, 0): 1, (-1, 2): 3})
        assert c.to_json() == [
            {"weight": [-1, 2], "mult": 3},
            {"weight": [1, 0], "mult": 1},
        ]
        assert Character.from_json(c.to_json()) == c


class TestCheckEquivariance:
    def test_standard_linearization_clean(self):
        for n in (-2, 0, 3):
            L = line_bundle(n, (1,), T1)
            assert transition_law_violations(L.A, L.lambdaInf, L.lambda0, T1) == []

    def test_fixed_base_block_law(self):
        # a = 0 forces lamInf[i] == lam0[j] on nonzero entries; only the
        # lower-right unit breaks it here (lamInf=(1,) vs lam0=(0,))
        T0 = TorusAction(1, (0,))
        E = EquivariantBundle(lm([[{0: 1}, {2: 1}], [{}, {0: 1}]]), ((0,), (0,)), ((0,), (1,)), T0)
        violations = transition_law_violations(E.A, E.lambdaInf, E.lambda0, T0)
        assert len(violations) == 1
        assert "A[1][1]" in violations[0]

    def test_no_torus_always_clean(self):
        E = EquivariantBundle(lm([[{5: 1}]]), ((),), ((),))
        assert transition_law_violations(E.A, E.lambdaInf, E.lambda0, E.torus) == []


class TestStandardLinearization:
    def test_degree_one(self):
        L = line_bundle(1, (0,), T1)
        assert L.lambdaInf == ((-1,),)
        weights = sorted(w for _, w in h0_sections(L))
        assert weights == [(-1,), (0,)]

    def test_degree_zero_constant_weight(self):
        L = line_bundle(0, (4,), T1)
        assert L.lambda0 == L.lambdaInf == ((4,),)

    def test_negative_degree_no_sections(self):
        L = line_bundle(-1, (0,), T1)
        assert L.lambdaInf == ((1,),)
        assert h0_sections(L) == []


class TestMonomialWeight:
    def test_chart0(self):
        L = line_bundle(1, (0,), T1)
        assert monomial_weight(L, 0, 0, 1) == (-1,)

    def test_chartinf_zero_exponent(self):
        L = line_bundle(1, (5,), T1)
        assert monomial_weight(L, "inf", 0, 0) == L.lambdaInf[0]

    def test_fixed_base_independent_of_exponent(self):
        T0 = TorusAction(1, (0,))
        L = line_bundle(2, (3,), T0)
        assert monomial_weight(L, 0, 0, 0) == monomial_weight(L, 0, 0, 5) == (3,)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            monomial_weight(line_bundle(0, (0,), T1), 0, 1, 0)


def _random_bundle(seed, r=1, max_rank=3):
    rng = random.Random(seed)
    torus = TorusAction(r, tuple(rng.randint(-2, 2) for _ in range(r)))
    summands = [
        LineSummand(rng.randint(-2, 2), tuple(rng.randint(-2, 2) for _ in range(r)))
        for _ in range(rng.randint(1, max_rank))
    ]
    E, _ = random_instance(seed, summands, rng.randint(0, 6), torus)
    return E, torus


class TestWeightProjectHom:
    def test_identity_is_invariant(self):
        E, torus = _random_bundle(1)
        h = hom_identity(E)
        zero = torus.zero_weight
        assert weight_project_hom(h, zero).F0 == h.F0
        assert weight_project_hom(h, (5,)).is_zero()

    def test_single_monomial_grading(self):
        L1 = line_bundle(0, (0,), T1)
        L2 = line_bundle(0, (2,), T1)
        h = HomElement(L1, L2, lm([[{1: 1}]]), lm([[{-1: 1}]]))
        assert h.intertwining_violation() is None
        # hom weight on chart 0: 2 - 0 - 1*1 = 1
        assert weight_project_hom(h, (1,)).F0 == h.F0
        assert weight_project_hom(h, (0,)).is_zero()

    def test_rejects_non_map(self):
        L1 = line_bundle(0, (0,), T1)
        h = HomElement(L1, L1, lm([[{1: 1}]]), lm([[{0: 1}]]))
        with pytest.raises(ValueError):
            weight_project_hom(h, (0,))

    def test_grading_completeness_and_disjoint_support(self):
        for seed in range(12):
            E, torus = _random_bundle(seed)
            secs = h0_sections(hom_bundle(E, E))
            if not secs:
                continue
            total = None
            for s, _ in secs:
                h = hom_element_from_section(E, E, list(s.f), list(s.g))
                total = h if total is None else total + h
            weights = hom_monomial_weights(total)
            pieces = [weight_project_hom(total, chi) for chi in weights]
            acc = None
            for piece in pieces:
                acc = piece if acc is None else acc + piece
            assert acc.F0 == total.F0 and acc.FInf == total.FInf
            # disjoint support: each projection is idempotent and its pairwise
            # overlap with a different weight is empty
            for chi in weights:
                proj = weight_project_hom(total, chi)
                again = weight_project_hom(proj, chi)
                assert again.F0 == proj.F0 and again.FInf == proj.FInf
                for other in weights:
                    if other != chi:
                        cross = weight_project_hom(proj, other)
                        assert cross.is_zero()

    def test_composition_adds_weights(self):
        rng = random.Random(2)
        for seed in range(10):
            E, torus = _random_bundle(seed, max_rank=2)
            secs = [
                hom_element_from_section(E, E, list(s.f), list(s.g))
                for s, _ in h0_sections(hom_bundle(E, E))
            ]
            graded = []
            for h in secs:
                for chi in hom_monomial_weights(h):
                    piece = weight_project_hom(h, chi)
                    if not piece.is_zero():
                        graded.append((chi, piece))
            for _ in range(6):
                if not graded:
                    break
                chi1, h1 = graded[rng.randrange(len(graded))]
                chi2, h2 = graded[rng.randrange(len(graded))]
                comp = hom_compose(h1, h2)
                if comp.is_zero():
                    continue
                want = tuple(x + y for x, y in zip(chi1, chi2))
                assert hom_monomial_weights(comp) == {want}


class TestHomReshape:
    def test_roundtrip(self):
        E, torus = _random_bundle(4, max_rank=3)
        for s, _ in h0_sections(hom_bundle(E, E)):
            h = hom_element_from_section(E, E, list(s.f), list(s.g))
            assert h.intertwining_violation() is None
            f, g = section_from_hom_element(h)
            assert f == list(s.f) and g == list(s.g)
