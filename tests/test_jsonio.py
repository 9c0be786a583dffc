import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equisplit.bundle import NO_TORUS, LineSummand, TorusAction, random_instance
from equisplit.jsonio import (
    ParseError,
    certificate_from_json,
    certificate_to_json,
    dumps_canonical,
    instance_from_json,
    instance_to_json,
    poly_from_json,
    poly_to_json,
)
from equisplit.laurent import LaurentPoly
from equisplit.splitting import equivariant_split

P = LaurentPoly
T1 = TorusAction(1, (1,))


def make_instance(seed=3):
    summands = [LineSummand(1, (0,)), LineSummand(-2, (1,))]
    return random_instance(seed, summands, 5, T1)


class TestPolyCodec:
    def test_round_trip(self):
        p = P({-2: 3, 0: -1, 5: 1})
        assert poly_from_json(poly_to_json(p), "") == p

    def test_sorted_output(self):
        p = P({3: 1, -1: 2})
        assert poly_to_json(p) == [[-1, 2, 1], [3, 1, 1]]

    def test_rejects_zero_coefficient(self):
        with pytest.raises(ParseError) as exc:
            poly_from_json([[0, 0, 1]], "/A/0/0")
        assert exc.value.pointer == "/A/0/0/0/1"

    def test_rejects_bad_denominator(self):
        with pytest.raises(ParseError) as exc:
            poly_from_json([[0, 1, 0]], "/x")
        assert exc.value.pointer == "/x/0/2"

    def test_rejects_duplicate_exponent(self):
        with pytest.raises(ParseError) as exc:
            poly_from_json([[1, 1, 1], [1, 2, 1]], "")
        assert exc.value.pointer == "/1/0"

    def test_coefficients_in_normal_form(self):
        # an integral value parses to an int, whatever its stored denominator
        for mono, want in (([0, 4, 2], 2), ([0, 2, 4], Fraction(1, 2)), ([0, -3, 1], -3)):
            (c,) = poly_from_json([mono], "").terms.values()
            assert type(c) is type(want) and c == want


class TestInstanceCodec:
    def test_round_trip(self):
        E, hidden = make_instance()
        doc = instance_to_json(E, expected=hidden)
        E2, expected = instance_from_json(doc)
        assert E2 == E
        assert expected == hidden

    def test_no_expected(self):
        E, _ = make_instance()
        _, expected = instance_from_json(instance_to_json(E))
        assert expected is None

    def test_missing_key_pointer(self):
        doc = instance_to_json(make_instance()[0])
        del doc["lambda0"]
        with pytest.raises(ParseError) as exc:
            instance_from_json(doc)
        assert "lambda0" in str(exc.value)

    def test_wrong_weight_length(self):
        doc = instance_to_json(make_instance()[0])
        doc["lambda0"][0] = [1, 2]
        with pytest.raises(ParseError) as exc:
            instance_from_json(doc)
        assert exc.value.pointer == "/lambda0/0"

    def test_non_integer_entry(self):
        doc = instance_to_json(make_instance()[0])
        doc["torus"]["a"] = [0.5]
        with pytest.raises(ParseError) as exc:
            instance_from_json(doc)
        assert exc.value.pointer == "/torus/a/0"

    def test_bad_monomial_pointer(self):
        doc = instance_to_json(make_instance()[0])
        doc["A"][0][0] = [[0, 1]]
        with pytest.raises(ParseError) as exc:
            instance_from_json(doc)
        assert exc.value.pointer.startswith("/A/0/0/0")


class TestCertificateCodec:
    def test_round_trip(self):
        E, _ = make_instance()
        _, cert = equivariant_split(E)
        doc = certificate_to_json(cert)
        cert2 = certificate_from_json(doc, 1)
        assert cert2.summands == cert.summands
        assert cert2.M0 == cert.M0
        assert cert2.MInf == cert.MInf


class TestCanonicalDump:
    def test_deterministic(self):
        E, hidden = make_instance()
        a = dumps_canonical(instance_to_json(E, expected=hidden))
        b = dumps_canonical(instance_to_json(E, expected=hidden))
        assert a == b
        assert a.endswith("\n")
        assert json.loads(a)["rank"] == E.rank


# arbitrary JSON values, as json.load can return them
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=16,
)

VALID_DOCS = [
    instance_to_json(make_instance()[0]),
    instance_to_json(*make_instance(seed=5)),
    instance_to_json(*random_instance(2, [LineSummand(2, ()), LineSummand(-1, ())], 6, NO_TORUS)),
]


@st.composite
def mutated_instances(draw):
    """A valid instance document with one to three values replaced or deleted.

    Each edit walks down from the root for a drawn number of levels, so any
    key, row, entry, monomial or field can be hit.
    """
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        for _ in range(draw(st.integers(0, 6))):
            if not isinstance(node, (dict, list)) or not node:
                break
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            key = draw(st.sampled_from(keys))
            parent, node = node, node[key]
        value = draw(json_values | st.integers(-3, 3))
        if parent is None:
            doc = value
        elif isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = value
    return doc


class TestParseFuzz:
    @settings(max_examples=300, deadline=None)
    @given(json_values | mutated_instances())
    def test_instance_parses_or_raises_parse_error(self, doc):
        # any other exception escaping the parser is a crash
        try:
            E, _ = instance_from_json(doc)
        except ParseError:
            return
        assert E.rank == E.A.rows == E.A.cols
