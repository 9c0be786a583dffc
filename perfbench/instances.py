"""Instance generation and the independent answer key.

Every workload draws its instances from a contiguous range of instance seeds
fixed by the run seed: instance ``k`` of a pool uses seed ``seed * pool + k``.
Instances are never filtered by run time or outcome.  The program only ever
sees the instance files; the hidden summands, and the cohomology characters
derived from them in closed form, stay with the harness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from equisplit.bundle import LineSummand, TorusAction, random_instance
from equisplit.jsonio import dumps_canonical, instance_to_json

from workloads import Workload


def dense_case(seed: int, rank: int, ops: int, torus_cycle) -> tuple:
    """A seeded scramble in the conventions of ``selftest.sample_case``.

    Degrees are drawn from [-3, 3] and weights from [-2, 2]; the torus base
    character cycles with the instance seed.
    """
    a = tuple(torus_cycle[seed % len(torus_cycle)])
    torus = TorusAction(len(a), a)
    rng = random.Random(seed)
    summands = [
        LineSummand(rng.randint(-3, 3), tuple(rng.randint(-2, 2) for _ in a)) for _ in range(rank)
    ]
    E, hidden = random_instance(seed, summands, ops, torus)
    return E, hidden, torus


@dataclass
class AnswerKey:
    path: str
    cert_path: str
    seed: int
    hidden: list[LineSummand]
    a: tuple[int, ...]

    def summands_doc(self) -> dict:
        """The split document the program must print for this instance."""
        ordered = sorted(self.hidden, key=LineSummand.sort_key)
        return {"summands": [{"n": s.n, "lam": list(s.lam)} for s in ordered]}

    def cohomology_doc(self) -> dict:
        """H^0/H^1 in closed form from the hidden summands.

        O(n) with chart-0 weight lam has sections z^d of weight lam - d*a in
        H^0 for 0 <= d <= n, and classes of weight lam - d*a in H^1 for
        n < d < 0.
        """
        h0: dict[tuple, int] = {}
        h1: dict[tuple, int] = {}
        for s in self.hidden:
            for d in range(min(0, s.n + 1), max(0, s.n + 1)):
                target = h0 if d >= 0 else h1
                w = tuple(lk - d * ak for lk, ak in zip(s.lam, self.a))
                target[w] = target.get(w, 0) + 1

        def char(c: dict) -> list:
            return [{"weight": list(w), "mult": m} for w, m in sorted(c.items())]

        return {
            "rank": len(self.hidden),
            "degree": sum(s.n for s in self.hidden),
            "h0_dim": sum(h0.values()),
            "h1_dim": sum(h1.values()),
            "h0_character": char(h0),
            "h1_character": char(h1),
        }


def write_pool(workload: Workload, run_seed: int, directory, count: int | None = None) -> list:
    """Generate the run's instances and write one file each; returns the answer keys.

    ``count`` (default: the workload's pool) takes a prefix of the pool.
    """
    g = workload.generator
    first = run_seed * workload.pool
    keys = []
    for k in range(workload.pool if count is None else count):
        seed = first + k
        E, hidden, torus = dense_case(seed, g["rank"], g["ops"], g["torus_cycle"])
        path = directory / f"inst{k:05d}.json"
        path.write_text(dumps_canonical(instance_to_json(E)), encoding="utf-8")
        keys.append(AnswerKey(str(path), str(directory / f"cert{k:05d}.json"), seed, hidden,
                              torus.a))
    return keys
