"""The equisplit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh worker
processes (``perfbench/worker.py``): a closed loop of one client in one
thread sends the workload's CLI commands one at a time through
``equisplit.cli.main`` and checks every output against the generator's
hidden answer.  ``--trace 0`` times the commands and reports the end-to-end
metrics, scaled to the run's reference speed (see ``harness``) and unscaled;
``--trace 1`` alternates untraced and traced passes over the same
instances and reports per-layer self times, work counts and the tracing
overhead.  A report goes
to stdout first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every command passed the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# The metrics reported on the last line, with their units: end_to_end with
# --trace 0 and per_layer with --trace 1.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
DEADLINE_S = 170.0


def call_worker(mode: str, workload: str, seed: int, seconds: float, workdir: Path,
                deadline: float) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    result = workdir / "result.json"
    # The worker gets a process group of its own, so that a timeout also ends
    # a set-up process it started.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), str(seconds),
         str(workdir), str(result)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}:\n{stderr}")
    return json.loads(result.read_text(encoding="utf-8"))


def fmt(name: str, entry: dict) -> str:
    value = entry["value"]
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    line = f"  {name:<34} {text} {entry['unit']}"
    if "percentile" in entry:
        line += f"  (p{entry['percentile']:.2f} of {entry['samples']} samples)"
    elif "samples" in entry:
        line += f"  ({entry['samples']} samples)"
    return line


def report_failures(res: dict) -> None:
    for seed, command, reason in res["failures"][:10]:
        print(f"  FAILED instance seed {seed} {command}: {reason}")


def declared(values: dict, units: dict) -> dict:
    """The declared metrics, by name and unit, from a run's figures."""
    out = {}
    for name, unit in units.items():
        if values[name]["unit"] != unit:
            raise RuntimeError(f"{name} is measured in {values[name]['unit']}, declared {unit}")
        out[name] = {"value": values[name]["value"], "unit": unit}
    return out


def run_measure(args, work: Path, deadline: float) -> tuple[dict, dict]:
    res = call_worker("measure", args.workload, args.seed, args.seconds, work, deadline)
    summary = res["summary"]
    workload = WORKLOADS[args.workload]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds}: "
          f"{res['passes']} passes over a pool of {res['pool']} instances, "
          f"{res['attempted']} commands, {len(res['failures'])} failed")
    print(f"  commands {' -> '.join(workload.commands)}; generator {json.dumps(workload.generator)}")
    for name, entry in summary.items():
        print(fmt(name, entry))
    print(f"  set-ups (s): {' '.join(f'{s:.4f}' for s in res['setups'])}")
    print(f"  output digest sha256:{res['digest']}")
    report_failures(res)
    return res, declared(summary, END_TO_END)


def run_trace(args, work: Path, deadline: float) -> tuple[dict, dict]:
    res = call_worker("trace", args.workload, args.seed, args.seconds, work, deadline)
    per_layer = res["per_layer"]
    print(f"perfbench {args.workload} seed={args.seed} traced: {res['pool']} instances, "
          f"{res['attempted']} commands over alternating untraced and traced passes, "
          f"{len(res['failures'])} failed")
    total = sum(row["self_s"] for row in res["layers"].values()) or 1.0
    print(f"  {'layer':<26} {'calls':>10} {'incl_s':>10} {'self_s':>10} {'self%':>6}")
    for layer, row in sorted(res["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {layer:<26} {row['calls']:>10} {row['incl_s']:>10.4f} {row['self_s']:>10.4f} "
              f"{100 * row['self_s'] / total:>6.1f}")
    for name, entry in per_layer.items():
        print(fmt(name, entry))
    print(f"  output digest sha256:{res['digest']} (traced pass: {res['digest_traced']})")
    report_failures(res)
    if res["digest"] != res["digest_traced"]:
        res["failures"].append((-1, "trace", "traced outputs differ from untraced outputs"))
        print("  FAILED: traced outputs differ from untraced outputs")
    return res, declared(per_layer, PER_LAYER)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "equisplit" / "cli.py").is_file():
        print(f"perfbench: no equisplit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        res, metrics = (run_trace if args.trace else run_measure)(args, work, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(res["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
