"""Tests of the benchmark itself: oracle, tracer and counters.

Run with the repository's tests: PYTHONPATH=src python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import equisplit
import equisplit.cli as cli
import run
import session
from harness import REFERENCE_S, PoolRun, check, run_command, run_pool
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _pool(tmp_path, workload="split-dense", seed=0, count=6):
    keys, _ = session.setup(workload, seed, tmp_path, count)
    return keys


def _first_split(keys, min_rank=2):
    for key in keys:
        if len(key.hidden) >= min_rank:
            out = run_command(cli, ["split", key.path, "--certificate", key.cert_path])
            return key, out
    raise AssertionError("no instance of the wanted rank in the pool")


def test_pool_passes_the_oracle(tmp_path):
    keys = _pool(tmp_path)
    result = run_pool(cli, ("split", "verify", "cohomology"), keys)
    assert result.failures == []
    assert result.attempted == 18


def test_oracle_flags_tampered_hidden_answer(tmp_path):
    key, (_, code, out, err, error) = _first_split(_pool(tmp_path))
    assert check("split", key, code, out, err, error) is None
    key.hidden[0] = type(key.hidden[0])(key.hidden[0].n + 1, key.hidden[0].lam)
    assert check("split", key, code, out, err, error) is not None
    _, code, out, err, error = run_command(cli, ["cohomology", key.path])
    assert check("cohomology", key, code, out, err, error) is not None


def test_oracle_flags_tampered_certificate(tmp_path):
    key, _ = _first_split(_pool(tmp_path))
    cert = json.loads(Path(key.cert_path).read_text())
    mono = next(m for row in cert["M0"] for entry in row for m in entry)
    mono[1] = mono[1] + 1 if mono[1] != -1 else 1
    Path(key.cert_path).write_text(json.dumps(cert))
    _, code, out, err, error = run_command(cli, ["verify", key.path, key.cert_path])
    assert check("verify", key, code, out, err, error) is not None


def test_scaled_times_follow_the_reference():
    # the second pass ran while the machine was twice as slow
    r = REFERENCE_S
    run = PoolRun(("split", "verify"), {"split": [[2.0, 4.0, 2.5]], "verify": [[1.0, 2.0, 1.5]]},
                  [[r, 2 * r, r]])
    assert run.scaled("split") == [[2.0, 2.0, 2.5]]
    assert run.scaled_calls("verify") == [1.0]
    assert run.scaled_sequences() == [3.0]
    assert run.best_sequences() == [3.0]


def _bindings():
    mods = [m for name, m in sys.modules.items()
            if name == "equisplit" or name.startswith("equisplit.")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    for cls in (equisplit.LaurentPoly, equisplit.LaurentMatrix):
        snap.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snap


def test_wrappers_restore_every_binding():
    import equisplit.cohomology as cohomology
    import equisplit.splitting as splitting

    before = _bindings()
    original = cohomology.rref_sparse
    with Tracer():
        assert cohomology.rref_sparse is not original
        assert splitting.h0_dim is before[("equisplit.splitting", "h0_dim")]
        assert cli.equivariant_split is not before[("equisplit.cli", "equivariant_split")]
        assert equisplit.LaurentPoly.__mul__ is not before[("LaurentPoly", "__mul__")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload, counter", [("split-dense", "splitting.peel_calls"),
                                               ("cohomology-dense", "cohomology.cech_windows")])
def test_counters_repeat_and_self_times_cover_the_commands(tmp_path, workload, counter):
    keys = _pool(tmp_path, workload, count=3)
    first = session.trace(workload, keys)
    second = session.trace(workload, keys)
    counts = [{k: v["value"] for k, v in r["per_layer"].items()
               if v["unit"] != "s" and not k.startswith("trace.")} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0][counter] > 0
    assert first["digest"] == first["digest_traced"] == second["digest"]
    assert first["failures"] == []
    per_layer = first["per_layer"]
    self_sum = per_layer["trace.self_sum_s"]["value"]
    assert 0 < self_sum <= per_layer["trace.commands_s"]["value"]
    assert self_sum == pytest.approx(per_layer["trace.commands_s"]["value"], rel=0.1)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_declared_metric_is_reported(tmp_path, workload):
    keys = _pool(tmp_path, workload, count=2)
    probe = session.SetupProbe(workload, 0, tmp_path / "setup")
    summary = session.measure(workload, keys, 0.0, probe)["summary"]
    summary["peak_rss_mb"] = {"value": 1.0, "unit": "MB"}
    assert set(run.declared(summary, run.END_TO_END)) == set(run.END_TO_END)
    per_layer = session.trace(workload, keys)["per_layer"]
    assert set(run.declared(per_layer, run.PER_LAYER)) == set(run.PER_LAYER)
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in run.BENCH["workloads"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "split-dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
