"""One workload in one process: set up, then a timed run or a traced run."""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import equisplit.cli as cli
from harness import REFERENCE_S, reference, run_pool, summarize
from instances import write_pool
from tracer import ALL_LAYERS, Tracer
from workloads import WORKLOADS

# Timed runs make at least this many passes over the pool; every latency is
# an instance's median pass at the reference speed (see harness.summarize).
MIN_PASSES = 3
# Traced runs alternate this many untraced and traced passes.
TRACE_ROUNDS = 3

# A cold set-up in a fresh process is repeated every this many seconds of a
# timed run, between instances, so that the set-ups sample the whole run.
SETUP_EVERY_S = 5.0
# layer -> self-time metric name
TIME_NAMES = {layer: ("cli.self_s" if layer == "cli" else f"{layer}_s") for layer in ALL_LAYERS}


def setup(workload_name: str, seed: int, workdir: Path, count: int | None = None):
    """Generate and write the run's instance files; returns (answer keys, seconds)."""
    t0 = perf_counter()
    workdir.mkdir(parents=True, exist_ok=True)
    keys = write_pool(WORKLOADS[workload_name], seed, workdir, count)
    return keys, perf_counter() - t0


class SetupProbe:
    """Cold set-ups in fresh processes, spread through a timed run.

    Called between instances: after the first instance and then every
    ``SETUP_EVERY_S`` seconds it runs ``worker.py setup`` to completion
    (nothing overlaps a timed command) between two timings of the reference
    load, and keeps the set-up time with the mean reference time.
    """

    def __init__(self, workload_name: str, seed: int, workdir: Path):
        self.argv = [sys.executable, str(Path(__file__).with_name("worker.py")), "setup",
                     workload_name, str(seed), "0", str(workdir / "files"),
                     str(workdir / "result.json")]
        self.workdir = workdir
        self.samples: list[tuple[float, float]] = []  # (set-up seconds, reference seconds)
        self.last = float("-inf")

    def __call__(self) -> None:
        if perf_counter() - self.last < SETUP_EVERY_S:
            return
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        before = reference()
        subprocess.run(self.argv, check=True, stdout=subprocess.DEVNULL)
        after = reference()
        result = json.loads((self.workdir / "result.json").read_text(encoding="utf-8"))
        self.samples.append((result["setup_s"], (before + after) / 2))
        self.last = perf_counter()


def measure(workload_name: str, keys, seconds: float, probe: SetupProbe) -> dict:
    """Untraced closed-loop run: the source of every end-to-end metric.

    ``setup_s`` is the median of the probe's cold set-ups, each scaled to the
    reference speed like the latencies.
    """
    run = run_pool(cli, WORKLOADS[workload_name].commands, keys, MIN_PASSES, seconds,
                   between=probe)
    setups = [s for s, _ in probe.samples]
    summary = summarize(run)
    summary["setup_s"] = {"value": statistics.median(s * REFERENCE_S / r for s, r in probe.samples),
                          "unit": "s", "samples": len(setups)}
    summary["raw_setup_s"] = {"value": statistics.median(setups), "unit": "s",
                              "samples": len(setups)}
    return {
        "summary": summary,
        "setups": setups,
        "passes": run.passes,
        "pool": len(keys),
        "attempted": run.attempted,
        "failures": run.failures,
        "digest": run.digest,
    }


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """(every per-layer figure, table of calls/inclusive/self seconds per layer)."""
    table = tracer.layer_table()
    counts = tracer.counters()
    out = {name: {"value": table.get(layer, {}).get("self_s", 0.0), "unit": "s"}
           for layer, name in TIME_NAMES.items()}
    for name, value in counts.items():
        out[name] = {"value": value, "unit": "bytes" if name == "jsonio.bytes_out" else "count"}
    steps = counts["splitting.max_twist_steps"]
    out["splitting.max_twist_hit_ratio"] = {
        "value": counts["splitting.peel_calls"] / steps if steps else 0.0, "unit": "ratio"}
    return out, table


def trace(workload_name: str, keys, spans_path: Path | None = None) -> dict:
    """Untraced and traced passes over the same pool, alternating.

    Spans and counts come from the first traced pass.  The overhead compares
    each instance's fastest traced pass with its fastest untraced pass, so
    slow phases of the machine do not masquerade as tracing cost.
    """
    commands = WORKLOADS[workload_name].commands
    plain, traced, tracers = [], [], []
    for _ in range(TRACE_ROUNDS):
        plain.append(run_pool(cli, commands, keys))
        tracers.append(Tracer())
        with tracers[-1]:
            traced.append(run_pool(cli, commands, keys, tracer=tracers[-1]))
    metrics, table = layer_metrics(tracers[0])
    plain_s, traced_s = _fastest_total(plain), _fastest_total(traced)
    metrics["trace.commands_s"] = {"value": traced[0].command_seconds(), "unit": "s"}
    metrics["trace.self_sum_s"] = {"value": sum(row["self_s"] for row in table.values()),
                                   "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": traced_s / plain_s - 1.0, "unit": "ratio"}
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(tracers[0].dump()), encoding="utf-8")
    runs = plain + traced
    return {
        "per_layer": metrics,
        "layers": table,
        "pool": len(keys),
        "attempted": sum(r.attempted for r in runs),
        "failures": [f for r in runs for f in r.failures],
        "digest": plain[0].digest,
        "digest_traced": traced[0].digest,
    }


def _fastest_total(runs) -> float:
    """Sum over instances of each instance's fastest pass across the runs."""
    return sum(map(min, zip(*(r.best_sequences() for r in runs))))
