"""JSON encoding of instances and certificates.

Instance schema::

    {
      "rank": m,
      "torus": {"rank": r, "a": [..]},
      "lambda0": [[..], ...],          # m weight vectors of length r
      "lambdaInf": [[..], ...],
      "A": [[entry, ...], ...],        # m x m, entry = [[exp, num, den], ...]
      "expected": {"summands": [{"n": .., "lam": [..]}, ...]}   # optional
    }

Certificate schema::

    {"summands": [{"n": .., "lam": [..]}, ...], "M0": matrix, "MInf": matrix}

Matrix entries use the same monomial-list encoding; M0 exponents are powers
of z, MInf exponents are powers of w.

Values are the exact classes that ``json.load`` returns.  Decoding tests
each value with one exact-class check (an integer must be an ``int``, so a
``bool`` or an ``int`` subclass fails, and a list or object must be a
``list`` or ``dict``) and raises ParseError at the first offending one, with
its JSON pointer; polynomial coefficients come out in normal form.
``load_json_file`` maps every way a file can fail to parse as JSON, nesting
too deep and integer literals over Python's digit limit included, to
ParseError as well, and rejects a key repeated within one object, at any
depth, with a ParseError that names the key.  Keys the schema does not name
are ignored.  Encoding is canonical: for the same exact classes,
and tuples, ``dumps_canonical`` returns exactly the text of
``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline, and it raises
TypeError on a subclass; monomials are listed by ascending exponent, so
equal values serialize byte-identically.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .bundle import EquivariantBundle, LineSummand, TorusAction
from .laurent import LaurentPoly
from .linalg import LaurentMatrix
from .splitting import SplittingCertificate

# json's own string escaper (its C version where built), as json.dumps uses
# it with the default ensure_ascii=True
_escape = json.encoder.encode_basestring_ascii


class ParseError(ValueError):
    """Malformed document; ``pointer`` locates the first offending value."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer or "/"
        self.message = message
        super().__init__(f"{self.pointer}: {message}")


# Decoders name a location as a tuple of pointer parts, (ptr, key, ...), and
# join it into a JSON pointer only when they raise.


def _error(where: tuple, message: str) -> ParseError:
    return ParseError("/".join(map(str, where)), message)


def _get(obj: Any, key: str, where: tuple) -> Any:
    if obj.__class__ is not dict:
        raise _error(where, "expected an object")
    if key not in obj:
        raise _error(where, f"missing key {key!r}")
    return obj[key]


def _int(x: Any, where: tuple) -> int:
    if x.__class__ is not int:
        raise _error(where, "expected an integer")
    return x


def _int_list(x: Any, where: tuple) -> list[int]:
    if x.__class__ is not list:
        raise _error(where, "expected a list")
    for i, v in enumerate(x):
        if v.__class__ is not int:
            raise _error((*where, i), "expected an integer")
    return x


def _poly(data: Any, where: tuple) -> LaurentPoly:
    if data.__class__ is not list:
        raise _error(where, "expected a list of monomials")
    terms: dict[int, int | Fraction] = {}
    for k, mono in enumerate(data):
        if mono.__class__ is not list or len(mono) != 3:
            raise _error((*where, k), "expected [exp, num, den]")
        e, num, den = mono
        if e.__class__ is not int:
            raise _error((*where, k, 0), "expected an integer")
        if num.__class__ is not int:
            raise _error((*where, k, 1), "expected an integer")
        if den.__class__ is not int:
            raise _error((*where, k, 2), "expected an integer")
        if den <= 0:
            raise _error((*where, k, 2), "denominator must be positive")
        if not num:
            raise _error((*where, k, 1), "zero coefficients must not be stored")
        if e in terms:
            raise _error((*where, k, 0), f"duplicate exponent {e}")
        terms[e] = num if den == 1 else Fraction(num, den)
    # nonzero ints and Fractions: from_sums only turns integral Fractions into ints
    return LaurentPoly.from_sums(terms) if terms else LaurentPoly()


def poly_to_json(p: LaurentPoly) -> list[list[int]]:
    return [[e, c.numerator, c.denominator] for e, c in sorted(p.terms.items())]


def matrix_from_json(data: Any, rows: int, cols: int, ptr: str) -> LaurentMatrix:
    if data.__class__ is not list or len(data) != rows:
        raise ParseError(ptr, f"expected {rows} rows")
    entries = []
    for i, row in enumerate(data):
        if row.__class__ is not list or len(row) != cols:
            raise _error((ptr, i), f"expected {cols} entries")
        entries.append([_poly(cell, (ptr, i, j)) for j, cell in enumerate(row)])
    return LaurentMatrix._adopt(entries, rows, cols)


def matrix_to_json(M: LaurentMatrix) -> list[list[list[list[int]]]]:
    return [[poly_to_json(e) for e in row] for row in M.entries]


def _weights_from_json(data: Any, m: int, r: int, ptr: str) -> tuple[tuple[int, ...], ...]:
    if data.__class__ is not list or len(data) != m:
        raise ParseError(ptr, f"expected {m} weight vectors")
    out = []
    for i, w in enumerate(data):
        vals = _int_list(w, (ptr, i))
        if len(vals) != r:
            raise _error((ptr, i), f"weight vector must have length {r}")
        out.append(tuple(vals))
    return tuple(out)


def summands_from_json(data: Any, r: int, ptr: str) -> list[LineSummand]:
    if data.__class__ is not list:
        raise ParseError(ptr, "expected a list of summands")
    out = []
    for i, s in enumerate(data):
        n = _int(_get(s, "n", (ptr, i)), (ptr, i, "n"))
        lam = _int_list(_get(s, "lam", (ptr, i)), (ptr, i, "lam"))
        if len(lam) != r:
            raise _error((ptr, i, "lam"), f"weight must have length {r}")
        out.append(LineSummand(n, tuple(lam)))
    return out


def summands_to_json(summands: list[LineSummand]) -> list[dict]:
    return [{"n": s.n, "lam": list(s.lam)} for s in summands]


def instance_from_json(doc: Any) -> tuple[EquivariantBundle, list[LineSummand] | None]:
    """Decode an instance document; returns (bundle, expected summands or None)."""
    if doc.__class__ is not dict:
        raise ParseError("", "instance must be an object")
    m = _int(_get(doc, "rank", ("",)), ("/rank",))
    if m < 0:
        raise ParseError("/rank", "rank must be nonnegative")
    tor = _get(doc, "torus", ("",))
    r = _int(_get(tor, "rank", ("/torus",)), ("/torus/rank",))
    if r < 0:
        raise ParseError("/torus/rank", "torus rank must be nonnegative")
    a = _int_list(_get(tor, "a", ("/torus",)), ("/torus/a",))
    if len(a) != r:
        raise ParseError("/torus/a", f"base character must have length {r}")
    torus = TorusAction(r, tuple(a))
    lam0 = _weights_from_json(_get(doc, "lambda0", ("",)), m, r, "/lambda0")
    lamInf = _weights_from_json(_get(doc, "lambdaInf", ("",)), m, r, "/lambdaInf")
    A = matrix_from_json(_get(doc, "A", ("",)), m, m, "/A")
    expected = None
    if "expected" in doc:
        expected = summands_from_json(
            _get(doc["expected"], "summands", ("/expected",)), r, "/expected/summands"
        )
    return EquivariantBundle(A, lam0, lamInf, torus), expected


def instance_to_json(E: EquivariantBundle, expected: list[LineSummand] | None = None) -> dict:
    doc = {
        "rank": E.rank,
        "torus": {"rank": E.torus.rank, "a": list(E.torus.a)},
        "lambda0": [list(w) for w in E.lambda0],
        "lambdaInf": [list(w) for w in E.lambdaInf],
        "A": matrix_to_json(E.A),
    }
    if expected is not None:
        doc["expected"] = {"summands": summands_to_json(sorted(expected, key=LineSummand.sort_key))}
    return doc


def certificate_from_json(doc: Any, r: int) -> SplittingCertificate:
    if doc.__class__ is not dict:
        raise ParseError("", "certificate must be an object")
    summands = summands_from_json(_get(doc, "summands", ("",)), r, "/summands")
    m = len(summands)
    M0 = matrix_from_json(_get(doc, "M0", ("",)), m, m, "/M0")
    MInf = matrix_from_json(_get(doc, "MInf", ("",)), m, m, "/MInf")
    return SplittingCertificate(summands, M0, MInf)


def certificate_to_json(cert: SplittingCertificate) -> dict:
    return {
        "summands": summands_to_json(cert.summands),
        "M0": matrix_to_json(cert.M0),
        "MInf": matrix_to_json(cert.MInf),
    }


def _render(o: Any, nl: str, append) -> None:
    """Append the text of ``json.dumps(o, sort_keys=True, indent=2)``, nested at line break nl.

    Every value is tested by its exact class, so a subclass of str, int,
    list or dict raises TypeError; so does a dict key that is not a str.
    """
    cls = o.__class__
    if cls is list or cls is tuple:
        if not o:
            append("[]")
            return
        inner = nl + "  "
        lead = "[" + inner
        sep = "," + inner
        for v in o:
            append(lead)
            lead = sep
            if v.__class__ is int:
                append(int.__repr__(v))
            else:
                _render(v, inner, append)
        append(nl + "]")
    elif cls is dict:
        if not o:
            append("{}")
            return
        inner = nl + "  "
        lead = "{" + inner
        sep = "," + inner
        for k, v in sorted(o.items()):
            if k.__class__ is not str:
                raise TypeError(f"keys must be str, not {k.__class__.__name__}")
            append(lead)
            lead = sep
            append(_escape(k))
            append(": ")
            if v.__class__ is int:
                append(int.__repr__(v))
            else:
                _render(v, inner, append)
        append(nl + "}")
    elif cls is str:
        append(_escape(o))
    elif cls is int:
        append(int.__repr__(o))
    elif o is None:
        append("null")
    elif o is True:
        append("true")
    elif o is False:
        append("false")
    else:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def dumps_canonical(doc: Any) -> str:
    """Deterministic rendering: ``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline.

    Takes the exact classes dict (with str keys), list, tuple, str, int,
    bool and None; anything else, a subclass of one of them included,
    raises TypeError.
    """
    out: list[str] = []
    _render(doc, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """``json.load``'s object hook: the object as a dict, or ParseError on a repeated key."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError("(document)", f"duplicate key {key!r}")
            seen.add(key)
    return obj


# built once: json.load with a hook builds a new decoder on every call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def load_json_file(path: str) -> Any:
    """Parse a UTF-8 JSON file; text that does not parse, or repeats a key, raises ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _DECODER.decode(fh.read())
        except ParseError:  # a duplicate key; not an over-long integer literal below
            raise
        except json.JSONDecodeError as exc:
            raise ParseError(f"(line {exc.lineno}, column {exc.colno})", exc.msg) from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"(byte {exc.start})", f"not UTF-8 text: {exc.reason}") from exc
        except RecursionError as exc:
            raise ParseError("(document)", "nested too deeply to parse") from exc
        except ValueError as exc:  # an integer literal over sys.get_int_max_str_digits()
            raise ParseError("(document)", f"integer literal too long: {exc}") from exc
