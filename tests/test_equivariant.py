import random
from fractions import Fraction

import pytest

from equisplit.bundle import (
    EquivariantBundle,
    HomElement,
    LineSummand,
    TorusAction,
    hom_bundle,
    line_bundle,
    random_instance,
    transition_law_violations,
)
from equisplit.cohomology import Character, Section, h0_sections
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

    @pytest.mark.parametrize(
        "mult",
        [{(0,): 1.5}, {(0,): Fraction(3, 2)}, {(0,): True}, {(0,): 0.0}, {(0.5,): 1}, {(True,): 1}],
        ids=["float-mult", "fraction-mult", "bool-mult", "float-zero-mult", "float-weight", "bool-weight"],
    )
    def test_non_integer_rejected(self, mult):
        # each used to read as multiplicity 1 (or be dropped), or keep its weight
        with pytest.raises(TypeError):
            Character(mult)

    def test_from_weights_rejects_non_integer_weight(self):
        with pytest.raises(TypeError):
            Character.from_weights([(0,), (0.5,)])

    def test_json_sorted(self):
        c = Character({(1, 0): 1, (-1, 2): 3})
        assert c.to_json() == [
            {"weight": [-1, 2], "mult": 3},
            {"weight": [1, 0], "mult": 1},
        ]


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


class TestSectionWeight:
    """Section.compatibility_violation checks a section's weight on both charts."""

    # on O(1) with lam0 = 0, a = 1 the section f = z, g = 1 has weight -1 on both charts
    F, G = (P.monomial(1),), (P.monomial(0),)

    def test_right_weight(self):
        assert Section(self.F, self.G, (-1,)).compatibility_violation(line_bundle(1, (0,), T1)) is None

    def test_wrong_weight_on_chart0(self):
        bad = Section(self.F, self.G, (0,)).compatibility_violation(line_bundle(1, (0,), T1))
        assert bad.startswith("f[0][0]: monomial z^1")

    def test_wrong_weight_on_chartinf(self):
        # lambdaInf off by one: f still has weight -1, g(1/z) = 1 does not
        L = EquivariantBundle(lm([[{-1: 1}]]), ((0,),), ((0,),), T1)
        bad = Section(self.F, self.G, (-1,)).compatibility_violation(L)
        assert bad.startswith("g(1/z)[0][0]: monomial z^0")

    def test_fixed_base(self):
        # a = 0: every monomial of O(2) has the linearization weight
        L = line_bundle(2, (3,), TorusAction(1, (0,)))
        for d in range(3):
            section = (P.monomial(d),), (P.monomial(2 - d),)
            assert Section(*section, (3,)).compatibility_violation(L) is None
            assert Section(*section, (2,)).compatibility_violation(L).startswith(f"f[0][0]: monomial z^{d}")


def _random_bundle(seed, r=1, max_rank=3):
    rng = random.Random(seed)
    torus = TorusAction(r, tuple(rng.randint(-2, 2) for _ in range(r)))
    summands = [
        LineSummand(rng.randint(-2, 2), tuple(rng.randint(-2, 2) for _ in range(r)))
        for _ in range(rng.randint(1, max_rank))
    ]
    E, _ = random_instance(seed, summands, rng.randint(0, 6), torus)
    return E, torus


class TestHomReshape:
    def test_roundtrip(self):
        E, torus = _random_bundle(4, max_rank=3)
        m = E.rank
        for s, _ in h0_sections(hom_bundle(E, E)):
            # component j*rank + i of the section is entry (i, j) of the map
            h = HomElement(
                E,
                E,
                LaurentMatrix([[s.f[j * m + i] for j in range(m)] for i in range(m)]),
                LaurentMatrix([[s.g[j * m + i] for j in range(m)] for i in range(m)]),
            )
            assert h.intertwining_violation() is None
            for i in range(m):
                for j in range(m):
                    assert h.F0.entries[i][j] == s.f[j * m + i]
                    assert h.FInf.entries[i][j] == s.g[j * m + i]
