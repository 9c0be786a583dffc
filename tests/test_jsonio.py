import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equisplit.bundle import NO_TORUS, LineSummand, TorusAction, random_instance
from equisplit.jsonio import (
    ParseError,
    _poly,
    certificate_from_json,
    certificate_to_json,
    dumps_canonical,
    instance_from_json,
    instance_to_json,
    poly_to_json,
)
from equisplit.laurent import LaurentPoly
from equisplit.splitting import equivariant_split

P = LaurentPoly
T1 = TorusAction(1, (1,))


# Subclasses of the classes json.load returns: the codec rejects every one.
class IntSub(int):
    pass


class ListSub(list):
    pass


class DictSub(dict):
    pass


class StrSub(str):
    pass


def make_instance(seed=3):
    summands = [LineSummand(1, (0,)), LineSummand(-2, (1,))]
    return random_instance(seed, summands, 5, T1)


class TestPolyCodec:
    def test_round_trip(self):
        p = P({-2: 3, 0: -1, 5: 1})
        assert _poly(poly_to_json(p), ("",)) == p

    def test_sorted_output(self):
        p = P({3: 1, -1: 2})
        assert poly_to_json(p) == [[-1, 2, 1], [3, 1, 1]]

    def test_rejects_zero_coefficient(self):
        with pytest.raises(ParseError) as exc:
            _poly([[0, 0, 1]], ("/A/0/0",))
        assert exc.value.pointer == "/A/0/0/0/1"

    def test_rejects_bad_denominator(self):
        with pytest.raises(ParseError) as exc:
            _poly([[0, 1, 0]], ("/x",))
        assert exc.value.pointer == "/x/0/2"

    def test_rejects_duplicate_exponent(self):
        with pytest.raises(ParseError) as exc:
            _poly([[1, 1, 1], [1, 2, 1]], ("",))
        assert exc.value.pointer == "/1/0"

    def test_coefficients_in_normal_form(self):
        # an integral value parses to an int, whatever its stored denominator
        for mono, want in (([0, 4, 2], 2), ([0, 2, 4], Fraction(1, 2)), ([0, -3, 1], -3)):
            (c,) = _poly([mono], ("",)).terms.values()
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

    @settings(max_examples=400, deadline=None)
    @given(st.deferred(lambda: canonical_docs))
    def test_bytes_match_json_dumps(self, doc):
        assert dumps_canonical(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize(
        "doc",
        [StrSub("s"), IntSub(1), ListSub(), DictSub(), [1, IntSub(2)], {"k": ListSub([1])}, ({"k": DictSub()},)],
        ids=["str", "int", "list", "dict", "int-in-list", "list-in-dict", "dict-in-tuple"],
    )
    def test_subclass_value_is_a_type_error(self, doc):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            dumps_canonical(doc)

    def test_subclass_key_is_a_type_error(self):
        with pytest.raises(TypeError, match="keys must be str, not StrSub"):
            dumps_canonical({"a": 1, StrSub("b"): 2})

    @pytest.mark.parametrize("doc", [1.5, [float("nan")], {"x": {1, 2}}, {1: "int key"}, {None: 0}, b"bytes"])
    def test_anything_else_is_a_type_error(self, doc):
        with pytest.raises(TypeError):
            dumps_canonical(doc)


# Strings that stress the escaper: quotes, backslashes, control and
# non-ASCII characters, astral-plane characters and a lone surrogate.
json_text = st.text(
    st.characters() | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\ud800", "\U0001f600"]),
    max_size=8,
)
canonical_docs = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63)
    | st.integers(max_value=-(2**63))
    | json_text,
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(json_text, children, max_size=4),
    max_leaves=24,
)


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


# Two small documents that parse; each golden case below edits one value of
# one of them (DROP deletes the key or row) and names the ParseError the
# decoder must raise: its JSON pointer and its message, exactly.
GOLDEN_INSTANCE = {
    "rank": 2,
    "torus": {"rank": 1, "a": [1]},
    "lambda0": [[0], [1]],
    "lambdaInf": [[-1], [0]],
    "A": [[[[-1, 1, 1]], []], [[[0, 2, 3]], [[1, 1, 1]]]],
    "expected": {"summands": [{"n": 1, "lam": [0]}, {"n": -1, "lam": [1]}]},
}
GOLDEN_CERTIFICATE = {
    "summands": [{"n": 1, "lam": [0]}, {"n": -1, "lam": [1]}],
    "M0": [[[[0, 1, 1]], []], [[], [[0, 1, 1]]]],
    "MInf": [[[[0, 1, 1]], [[2, -1, 2]]], [[], [[0, 1, 1]]]],
}
DROP = object()

GOLDEN_ERRORS = [
    ("instance", (), [], "/", "instance must be an object"),
    ("instance", (), "doc", "/", "instance must be an object"),
    ("instance", ("rank",), DROP, "/", "missing key 'rank'"),
    ("instance", ("rank",), "2", "/rank", "expected an integer"),
    ("instance", ("rank",), True, "/rank", "expected an integer"),
    ("instance", ("rank",), 2.0, "/rank", "expected an integer"),
    ("instance", ("rank",), -1, "/rank", "rank must be nonnegative"),
    ("instance", ("torus",), DROP, "/", "missing key 'torus'"),
    ("instance", ("torus",), [], "/torus", "expected an object"),
    ("instance", ("torus", "rank"), DROP, "/torus", "missing key 'rank'"),
    ("instance", ("torus", "rank"), None, "/torus/rank", "expected an integer"),
    ("instance", ("torus", "rank"), -1, "/torus/rank", "torus rank must be nonnegative"),
    ("instance", ("torus", "a"), DROP, "/torus", "missing key 'a'"),
    ("instance", ("torus", "a"), {}, "/torus/a", "expected a list"),
    ("instance", ("torus", "a"), ["x"], "/torus/a/0", "expected an integer"),
    ("instance", ("torus", "a"), [True], "/torus/a/0", "expected an integer"),
    ("instance", ("torus", "a"), [1, 2], "/torus/a", "base character must have length 1"),
    ("instance", ("lambda0",), DROP, "/", "missing key 'lambda0'"),
    ("instance", ("lambda0",), {}, "/lambda0", "expected 2 weight vectors"),
    ("instance", ("lambda0",), [[0]], "/lambda0", "expected 2 weight vectors"),
    ("instance", ("lambda0", 0), 5, "/lambda0/0", "expected a list"),
    ("instance", ("lambda0", 1), [0.5], "/lambda0/1/0", "expected an integer"),
    ("instance", ("lambda0", 1), [0, 1], "/lambda0/1", "weight vector must have length 1"),
    ("instance", ("lambdaInf",), DROP, "/", "missing key 'lambdaInf'"),
    ("instance", ("lambdaInf", 0), [], "/lambdaInf/0", "weight vector must have length 1"),
    ("instance", ("lambdaInf", 1, 0), False, "/lambdaInf/1/0", "expected an integer"),
    ("instance", ("A",), DROP, "/", "missing key 'A'"),
    ("instance", ("A",), "x", "/A", "expected 2 rows"),
    ("instance", ("A", 1), DROP, "/A", "expected 2 rows"),
    ("instance", ("A", 1), "row", "/A/1", "expected 2 entries"),
    ("instance", ("A", 1, 1), DROP, "/A/1", "expected 2 entries"),
    ("instance", ("A", 0, 0), {}, "/A/0/0", "expected a list of monomials"),
    ("instance", ("A", 0, 0, 0), [1, 1], "/A/0/0/0", "expected [exp, num, den]"),
    ("instance", ("A", 0, 0, 0), "m", "/A/0/0/0", "expected [exp, num, den]"),
    ("instance", ("A", 0, 0, 0), [1, 1, 1, 1], "/A/0/0/0", "expected [exp, num, den]"),
    ("instance", ("A", 1, 0, 0), [0.5, 1, 1], "/A/1/0/0/0", "expected an integer"),
    ("instance", ("A", 1, 0, 0), [0, "1", 1], "/A/1/0/0/1", "expected an integer"),
    ("instance", ("A", 1, 0, 0), [0, 1, None], "/A/1/0/0/2", "expected an integer"),
    ("instance", ("A", 1, 0, 0), [0, 1, 0], "/A/1/0/0/2", "denominator must be positive"),
    ("instance", ("A", 1, 0, 0), [0, 1, -3], "/A/1/0/0/2", "denominator must be positive"),
    ("instance", ("A", 1, 0, 0), [0, 0, 1], "/A/1/0/0/1", "zero coefficients must not be stored"),
    ("instance", ("A", 1, 0, 0), [0, 0, 0], "/A/1/0/0/2", "denominator must be positive"),
    ("instance", ("A", 1, 0, 0), [True, 1, 1], "/A/1/0/0/0", "expected an integer"),
    ("instance", ("A", 1, 0, 0), [0.5, "x", 0], "/A/1/0/0/0", "expected an integer"),
    ("instance", ("A", 1, 1), [[1, 1, 1], [1, 2, 1]], "/A/1/1/1/0", "duplicate exponent 1"),
    ("instance", ("A", 1, 1), [[1, 0, 1], [1, 1, 1]], "/A/1/1/0/1", "zero coefficients must not be stored"),
    ("instance", ("A", 1, 1), [[5, 1, 1], [2, 1, 1], [5, 3, 4]], "/A/1/1/2/0", "duplicate exponent 5"),
    ("instance", ("expected",), "x", "/expected", "expected an object"),
    ("instance", ("expected",), {}, "/expected", "missing key 'summands'"),
    ("instance", ("expected", "summands"), {}, "/expected/summands", "expected a list of summands"),
    ("instance", ("expected", "summands"), [3], "/expected/summands/0", "expected an object"),
    ("instance", ("expected", "summands"), [{"lam": [0]}], "/expected/summands/0", "missing key 'n'"),
    ("instance", ("expected", "summands"), [{"n": 1}], "/expected/summands/0", "missing key 'lam'"),
    ("instance", ("expected", "summands", 1, "n"), "1", "/expected/summands/1/n", "expected an integer"),
    ("instance", ("expected", "summands", 1, "n"), 1.5, "/expected/summands/1/n", "expected an integer"),
    ("instance", ("expected", "summands", 1, "lam"), 0, "/expected/summands/1/lam", "expected a list"),
    ("instance", ("expected", "summands", 1, "lam"), ["a"], "/expected/summands/1/lam/0", "expected an integer"),
    ("instance", ("expected", "summands", 1, "lam"), [0, 0], "/expected/summands/1/lam", "weight must have length 1"),
    ("instance", ("expected", "summands", 1, "lam"), [False], "/expected/summands/1/lam/0", "expected an integer"),
    ("certificate", (), "x", "/", "certificate must be an object"),
    ("certificate", ("summands",), DROP, "/", "missing key 'summands'"),
    ("certificate", ("M0",), DROP, "/", "missing key 'M0'"),
    ("certificate", ("MInf",), DROP, "/", "missing key 'MInf'"),
    ("certificate", ("summands",), [], "/M0", "expected 0 rows"),
    ("certificate", ("summands", 0), [], "/summands/0", "expected an object"),
    ("certificate", ("summands", 1, "lam"), [1, 2], "/summands/1/lam", "weight must have length 1"),
    ("certificate", ("M0", 0), [[]], "/M0/0", "expected 2 entries"),
    ("certificate", ("MInf", 1, 1), [[0, 1, 2], [0, 1, 1]], "/MInf/1/1/1/0", "duplicate exponent 0"),
    ("certificate", ("MInf", 0, 1, 0), [2, -1, 0], "/MInf/0/1/0/2", "denominator must be positive"),
]


# Every exact-class check site: a subclass there, of int, bool, list or dict,
# gets the pointer and message of a value of the wrong class.
SUBCLASS_SITES = [
    ("instance", (), "/", "instance must be an object"),
    ("instance", ("rank",), "/rank", "expected an integer"),
    ("instance", ("torus",), "/torus", "expected an object"),
    ("instance", ("torus", "a"), "/torus/a", "expected a list"),
    ("instance", ("torus", "a", 0), "/torus/a/0", "expected an integer"),
    ("instance", ("lambda0",), "/lambda0", "expected 2 weight vectors"),
    ("instance", ("A",), "/A", "expected 2 rows"),
    ("instance", ("A", 1), "/A/1", "expected 2 entries"),
    ("instance", ("A", 1, 0), "/A/1/0", "expected a list of monomials"),
    ("instance", ("A", 1, 0, 0), "/A/1/0/0", "expected [exp, num, den]"),
    ("instance", ("A", 1, 0, 0, 0), "/A/1/0/0/0", "expected an integer"),
    ("instance", ("A", 1, 0, 0, 1), "/A/1/0/0/1", "expected an integer"),
    ("instance", ("A", 1, 0, 0, 2), "/A/1/0/0/2", "expected an integer"),
    ("instance", ("expected", "summands"), "/expected/summands", "expected a list of summands"),
    ("instance", ("expected", "summands", 0), "/expected/summands/0", "expected an object"),
    ("instance", ("expected", "summands", 1, "n"), "/expected/summands/1/n", "expected an integer"),
    ("certificate", (), "/", "certificate must be an object"),
]


def _edited(kind, path, value):
    doc = copy.deepcopy(GOLDEN_INSTANCE if kind == "instance" else GOLDEN_CERTIFICATE)
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _decode(kind, doc):
    return instance_from_json(doc) if kind == "instance" else certificate_from_json(doc, 1)


class TestGoldenErrors:
    """Every check site reports the same pointer and message, case by case."""

    def test_base_documents_parse(self):
        E, expected = instance_from_json(copy.deepcopy(GOLDEN_INSTANCE))
        assert E.rank == 2 and E.A.entries[1][0] == P({0: Fraction(2, 3)})
        assert expected == [LineSummand(1, (0,)), LineSummand(-1, (1,))]
        cert = certificate_from_json(copy.deepcopy(GOLDEN_CERTIFICATE), 1)
        assert cert.MInf.entries[0][1] == P({2: Fraction(-1, 2)})

    @pytest.mark.parametrize(
        "kind, path, value, pointer, message",
        GOLDEN_ERRORS,
        ids=[f"{k}{list(p)}" for k, p, *_ in GOLDEN_ERRORS],
    )
    def test_pointer_and_message(self, kind, path, value, pointer, message):
        with pytest.raises(ParseError) as exc:
            _decode(kind, _edited(kind, path, value))
        assert (exc.value.pointer, exc.value.message) == (pointer, message)
        assert str(exc.value) == f"{pointer}: {message}"

    @pytest.mark.parametrize(
        "kind, path, pointer, message",
        SUBCLASS_SITES,
        ids=[f"{k}{list(p)}" for k, p, *_ in SUBCLASS_SITES],
    )
    @pytest.mark.parametrize("wrap", [IntSub, bool, ListSub, DictSub], ids=lambda c: c.__name__)
    def test_subclass_gets_the_wrong_type_error(self, kind, path, pointer, message, wrap):
        # wrap the site's own value where it has wrap's base class, else an empty one
        node = GOLDEN_INSTANCE if kind == "instance" else GOLDEN_CERTIFICATE
        for key in path:
            node = node[key]
        base = wrap.__base__
        value = wrap(copy.deepcopy(node) if node.__class__ is base else base())
        with pytest.raises(ParseError) as exc:
            _decode(kind, _edited(kind, path, value))
        assert (exc.value.pointer, exc.value.message) == (pointer, message)
