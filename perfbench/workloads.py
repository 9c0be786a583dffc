"""The benchmark's workloads: generator parameters, commands and the reason for each.

The two workloads share one generator and split the engine in two: splitting
changes show on split-dense and not on cohomology-dense, H^1 changes the other
way round, and both reach elimination, det/adjugate, Laurent arithmetic, JSON
I/O and validation.  They are kept to two so that each run can be long
enough to ride out the slow phases of a shared machine.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]  # subset of split / verify / cohomology, in order
    # Instances per run seed.  Latencies are medians of passes at the run's
    # reference speed, so a handful of passes is enough (about 10-15 on
    # split-dense, 5-8 on cohomology-dense at the seed commit), and the pools
    # are as large as that allows: the input mix alone moves p50 and
    # throughput between seeds by about 0.03 on split-dense and 0.04/0.07 on
    # cohomology-dense, whose per-instance cost is heavy-tailed.
    pool: int
    generator: dict  # parameters, recorded in reports
    why: str
    stresses: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "split-dense",
            ("split", "verify"),
            200,
            {"rank": 5, "ops": 10, "torus_cycle": [[], [0]], "degrees": [-3, 3], "weights": [-2, 2]},
            "Dense scrambles whose split time is mostly the peel loop: the max_twist search "
            "of H^0 solves and the det/adjugate of each twist; no Cech complex runs.",
            "splitting.peel, splitting.max_twist, cohomology.h0, linalg.det",
        ),
        Workload(
            "cohomology-dense",
            ("cohomology",),
            400,
            {"rank": 5, "ops": 10, "torus_cycle": [[], [0]], "degrees": [-3, 3], "weights": [-2, 2]},
            "The split-dense generator through cohomology only: rank_sparse and rref_sparse over "
            "the doubling Cech windows, and the splitting layer is never called.",
            "cohomology.cech, linalg.rank, linalg.rref",
        ),
    )
}
