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
of z, MInf exponents are powers of w.  Parse failures raise ParseError with
a JSON-pointer to the first offending location.  All output is produced with
sorted keys and sorted monomials, so equal values serialize byte-identically.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .bundle import EquivariantBundle, LineSummand, TorusAction
from .laurent import LaurentPoly
from .linalg import LaurentMatrix
from .splitting import SplittingCertificate


class ParseError(ValueError):
    """Malformed document; ``pointer`` locates the first offending value."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer or "/"
        self.message = message
        super().__init__(f"{self.pointer}: {message}")


def _want(cond: bool, ptr: str, message: str) -> None:
    if not cond:
        raise ParseError(ptr, message)


def _get(obj: dict, key: str, ptr: str) -> Any:
    _want(isinstance(obj, dict), ptr, "expected an object")
    _want(key in obj, ptr, f"missing key {key!r}")
    return obj[key]


def _int(x: Any, ptr: str) -> int:
    _want(isinstance(x, int) and not isinstance(x, bool), ptr, "expected an integer")
    return x


def _int_list(x: Any, ptr: str) -> list[int]:
    _want(isinstance(x, list), ptr, "expected a list")
    return [_int(v, f"{ptr}/{i}") for i, v in enumerate(x)]


def poly_from_json(data: Any, ptr: str) -> LaurentPoly:
    _want(isinstance(data, list), ptr, "expected a list of monomials")
    terms: dict[int, int | Fraction] = {}
    for k, mono in enumerate(data):
        mptr = f"{ptr}/{k}"
        _want(isinstance(mono, list) and len(mono) == 3, mptr, "expected [exp, num, den]")
        e = _int(mono[0], f"{mptr}/0")
        num = _int(mono[1], f"{mptr}/1")
        den = _int(mono[2], f"{mptr}/2")
        _want(den > 0, f"{mptr}/2", "denominator must be positive")
        _want(num != 0, f"{mptr}/1", "zero coefficients must not be stored")
        _want(e not in terms, f"{mptr}/0", f"duplicate exponent {e}")
        terms[e] = num if den == 1 else Fraction(num, den)
    return LaurentPoly(terms)


def poly_to_json(p: LaurentPoly) -> list[list[int]]:
    return [[e, c.numerator, c.denominator] for e, c in p.monomials()]


def matrix_from_json(data: Any, rows: int, cols: int, ptr: str) -> LaurentMatrix:
    _want(isinstance(data, list) and len(data) == rows, ptr, f"expected {rows} rows")
    entries = []
    for i, row in enumerate(data):
        rptr = f"{ptr}/{i}"
        _want(isinstance(row, list) and len(row) == cols, rptr, f"expected {cols} entries")
        entries.append([poly_from_json(cell, f"{rptr}/{j}") for j, cell in enumerate(row)])
    return LaurentMatrix(entries, rows, cols)


def matrix_to_json(M: LaurentMatrix) -> list[list[list[list[int]]]]:
    return [[poly_to_json(e) for e in row] for row in M.entries]


def _weights_from_json(data: Any, m: int, r: int, ptr: str) -> tuple[tuple[int, ...], ...]:
    _want(isinstance(data, list) and len(data) == m, ptr, f"expected {m} weight vectors")
    out = []
    for i, w in enumerate(data):
        wptr = f"{ptr}/{i}"
        vals = _int_list(w, wptr)
        _want(len(vals) == r, wptr, f"weight vector must have length {r}")
        out.append(tuple(vals))
    return tuple(out)


def summands_from_json(data: Any, r: int, ptr: str) -> list[LineSummand]:
    _want(isinstance(data, list), ptr, "expected a list of summands")
    out = []
    for i, s in enumerate(data):
        sptr = f"{ptr}/{i}"
        n = _int(_get(s, "n", sptr), f"{sptr}/n")
        lam = _int_list(_get(s, "lam", sptr), f"{sptr}/lam")
        _want(len(lam) == r, f"{sptr}/lam", f"weight must have length {r}")
        out.append(LineSummand(n, tuple(lam)))
    return out


def summands_to_json(summands: list[LineSummand]) -> list[dict]:
    return [{"n": s.n, "lam": list(s.lam)} for s in summands]


def instance_from_json(doc: Any) -> tuple[EquivariantBundle, list[LineSummand] | None]:
    """Decode an instance document; returns (bundle, expected summands or None)."""
    _want(isinstance(doc, dict), "", "instance must be an object")
    m = _int(_get(doc, "rank", ""), "/rank")
    _want(m >= 0, "/rank", "rank must be nonnegative")
    tor = _get(doc, "torus", "")
    r = _int(_get(tor, "rank", "/torus"), "/torus/rank")
    _want(r >= 0, "/torus/rank", "torus rank must be nonnegative")
    a = _int_list(_get(tor, "a", "/torus"), "/torus/a")
    _want(len(a) == r, "/torus/a", f"base character must have length {r}")
    torus = TorusAction(r, tuple(a))
    lam0 = _weights_from_json(_get(doc, "lambda0", ""), m, r, "/lambda0")
    lamInf = _weights_from_json(_get(doc, "lambdaInf", ""), m, r, "/lambdaInf")
    A = matrix_from_json(_get(doc, "A", ""), m, m, "/A")
    expected = None
    if "expected" in doc:
        expected = summands_from_json(
            _get(doc["expected"], "summands", "/expected"), r, "/expected/summands"
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
    _want(isinstance(doc, dict), "", "certificate must be an object")
    summands = summands_from_json(_get(doc, "summands", ""), r, "/summands")
    m = len(summands)
    M0 = matrix_from_json(_get(doc, "M0", ""), m, m, "/M0")
    MInf = matrix_from_json(_get(doc, "MInf", ""), m, m, "/MInf")
    return SplittingCertificate(summands, M0, MInf)


def certificate_to_json(cert: SplittingCertificate) -> dict:
    return {
        "summands": summands_to_json(cert.summands),
        "M0": matrix_to_json(cert.M0),
        "MInf": matrix_to_json(cert.MInf),
    }


def dumps_canonical(doc: Any) -> str:
    """Deterministic rendering: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def load_json_file(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"(line {exc.lineno}, column {exc.colno})", exc.msg) from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"(byte {exc.start})", f"not UTF-8 text: {exc.reason}") from exc
