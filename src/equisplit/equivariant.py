"""Weight bookkeeping: characters, frame weights, bundle maps.

Weight conventions follow the section action C3 in :mod:`equisplit.bundle`.
The weight of a Hom-monomial is fixed as

* chart 0:   (target frame weight) - (source frame weight) - d*a,
* chart inf: (target frame weight) - (source frame weight) + e*a,

for a z-monomial z^d resp. a w-monomial w^e.  A map is invariant when every
monomial has weight 0, which is the law
:func:`equisplit.bundle.transition_law_violations` checks on F0 and on
FInf(1/z), rows weighted by the target and columns by the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .bundle import EquivariantBundle, TorusAction, Weight, weight_add, weight_scale
from .linalg import LaurentMatrix


class Character:
    """A finite multiset of weights with integer (possibly negative) multiplicities."""

    __slots__ = ("mult",)

    def __init__(self, mult: dict[Weight, int] | None = None):
        self.mult = {tuple(w): int(m) for w, m in (mult or {}).items() if m != 0}

    @classmethod
    def from_weights(cls, weights: Iterable[Weight]) -> "Character":
        out: dict[Weight, int] = {}
        for w in weights:
            w = tuple(w)
            out[w] = out.get(w, 0) + 1
        return cls(out)

    def total(self) -> int:
        """Sum of multiplicities (the dimension, for honest characters)."""
        return sum(self.mult.values())

    def __add__(self, other: "Character") -> "Character":
        out = dict(self.mult)
        for w, m in other.mult.items():
            out[w] = out.get(w, 0) + m
        return Character(out)

    def __sub__(self, other: "Character") -> "Character":
        out = dict(self.mult)
        for w, m in other.mult.items():
            out[w] = out.get(w, 0) - m
        return Character(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Character):
            return NotImplemented
        return self.mult == other.mult

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.mult)

    def items_sorted(self) -> list[tuple[Weight, int]]:
        return sorted(self.mult.items())

    def to_json(self) -> list[dict]:
        return [{"weight": list(w), "mult": m} for w, m in self.items_sorted()]

    def __repr__(self) -> str:
        inner = ", ".join(f"{w}: {m}" for w, m in self.items_sorted())
        return f"Character({{{inner}}})"


def derive_target_weights(
    M: LaurentMatrix,
    source: tuple[Weight, ...],
    torus: TorusAction,
) -> tuple[Weight, ...]:
    """Row weights forced by the chart-0 frame law (rows must be nonzero).

    New coords = M @ old coords over k[z]: every z^d of M[i][j] needs
    d*a = target[i] - source[j], the law that
    :func:`equisplit.bundle.transition_law_violations` checks.  A chart-inf
    frame over k[w] is passed as ``M.invert_variable()``, since its law
    e*a = source[j] - target[i] is the chart-0 law of the inverted matrix.
    Only the first monomial of each row is used.
    """
    if torus.rank == 0:
        return ((),) * M.rows
    a = torus.a
    out = []
    for i in range(M.rows):
        for j in range(M.cols):
            entry = M.entries[i][j]
            if entry.is_zero():
                continue
            e = min(entry.terms)
            out.append(weight_add(source[j], weight_scale(e, a)))
            break
        else:
            raise ValueError(f"row {i} is zero; weights cannot be derived")
    return tuple(out)


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
        lhs = self.target.A @ self.F0
        rhs = self.FInf.invert_variable() @ self.source.A
        if lhs != rhs:
            return "target.A @ F0 != FInf(1/z) @ source.A"
        return None

