"""Closed-loop client of the equisplit CLI, with an independent oracle.

One client in one thread sends one command at a time: ``equisplit.cli.main``
is called in-process with stdout and stderr captured, and the next command
starts only after the previous one returned.  Every output is checked
against the generator's hidden answer before it counts.

The shared machines this runs on change speed by up to ~2x, in phases from
seconds to minutes that can cover a whole run.  So before each instance's
commands the client also times ``reference``, a fixed pure-Python load, and
the end-to-end times are given at a fixed reference speed: each call's time
is scaled by ``REFERENCE_S`` over the reference time measured just before it
(see ``PoolRun.scaled``), which makes them the times of a machine on which
the reference load takes ``REFERENCE_S``.  The unscaled figures are reported
beside them.
"""

from __future__ import annotations

import hashlib
import io
import json
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

# The reference speed of the scaled times: the reference load's time at full
# speed on the 2.1-GHz Xeon vCPUs the baseline was measured on (the fastest
# run-minimum seen there was 1.21 ms).
REFERENCE_S = 1.2e-3


def reference() -> float:
    """Seconds taken by a fixed load of Fraction and dict arithmetic.

    Its time follows the machine's momentary speed: in a run whose passes
    were 1.5x-2.4x slower than the fastest reference, the scaled split-dense
    p50 of the slowest and fastest third of the passes differed by 2.5%, the
    unscaled fastest-pass p50 by 20%.
    """
    t0 = perf_counter()
    x, d = Fraction(1, 3), {}
    for i in range(300):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i + 1)
        d[i % 17] = d.get(i % 17, 0) + x.numerator % 97
    return perf_counter() - t0


def argv_for(command: str, key) -> list[str]:
    if command == "split":
        return ["split", key.path, "--certificate", key.cert_path]
    if command == "verify":
        return ["verify", key.path, key.cert_path]
    return ["cohomology", key.path]


def run_command(cli, argv: list[str]) -> tuple[float, int | None, str, str, str | None]:
    """(seconds, exit code, stdout, stderr, escaped exception) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # the CLI contract forbids escapes; record, keep going
        error = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    return seconds, code, out.getvalue(), err.getvalue(), error


def check(command: str, key, code, stdout: str, stderr: str, error: str | None) -> str | None:
    """The oracle: None when the command's output is right, else the reason."""
    if error is not None:
        return f"exception escaped main: {error}"
    if code != 0:
        return f"exit code {code}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not exactly one JSON document"
    if command == "split":
        want = key.summands_doc()["summands"]
        try:  # compare as multisets, in the canonical LineSummand.sort_key order
            got = sorted(doc["summands"], key=lambda s: (-s["n"], s["lam"]))
        except (KeyError, TypeError):
            got = None
        if got != want:
            return f"split {doc} != hidden {want}"
    elif command == "verify":
        if not (isinstance(doc, dict) and doc.get("ok") is True):
            return f"certificate rejected: {doc}"
    elif doc != key.cohomology_doc():
        return f"cohomology {doc} != closed form {key.cohomology_doc()}"
    return None


def coeff_bits(cert_doc: dict) -> int:
    """Largest numerator or denominator bit length in a certificate document."""
    bits = 0
    for name in ("M0", "MInf"):
        for row in cert_doc[name]:
            for entry in row:
                for _exp, num, den in entry:
                    bits = max(bits, abs(num).bit_length(), den.bit_length())
    return bits


@dataclass
class PoolRun:
    """What one closed-loop run over a pool of instances saw."""

    commands: tuple[str, ...]
    # latencies[command][k]: seconds of each pass's call for instance k
    latencies: dict[str, list[list[float]]] = field(default_factory=dict)
    # refs[k]: seconds of the reference load timed just before each pass of instance k
    refs: list[list[float]] = field(default_factory=list)
    passes: int = 0
    attempted: int = 0
    failures: list[tuple[int, str, str]] = field(default_factory=list)
    cert_bytes: list[int] = field(default_factory=list)
    cert_bits: int = 0
    digest: str = ""

    def best_sequences(self) -> list[float]:
        """Each instance's fastest unscaled pass through the whole command sequence."""
        lat = [self.latencies[c] for c in self.commands]
        return [min(map(sum, zip(*(times[k] for times in lat)))) for k in range(len(lat[0]))]

    def scaled(self, command: str) -> list[list[float]]:
        """Each call's time at the reference speed.

        A call's time times ``REFERENCE_S`` over the reference time measured
        just before that pass of the instance.
        """
        return [[t * REFERENCE_S / r for t, r in zip(times, refs)]
                for times, refs in zip(self.latencies[command], self.refs)]

    def scaled_calls(self, command: str) -> list[float]:
        """Each instance's median scaled call of the command over its passes."""
        return [statistics.median(times) for times in self.scaled(command)]

    def scaled_sequences(self) -> list[float]:
        """Each instance's median scaled pass through the whole command sequence."""
        per = [self.scaled(c) for c in self.commands]
        return [statistics.median(map(sum, zip(*(p[k] for p in per)))) for k in range(len(self.refs))]

    def command_seconds(self) -> float:
        return sum(t for c in self.commands for times in self.latencies[c] for t in times)


def run_pool(cli, commands, keys, min_passes: int = 1, seconds: float = 0.0,
             tracer=None, between=None) -> PoolRun:
    """Send the command sequence for each instance in pool order, pass after pass.

    The run makes at least ``min_passes`` whole passes; after those it stops
    at the first instance boundary once ``seconds`` have elapsed, so it ends
    on time and the instances of a last, partial pass have one sample more.
    ``passes`` counts whole passes.  ``between``, if given, is called after
    each instance's command sequence, outside every timed call.  The digest
    covers the split and cohomology documents of the first pass.
    """
    run = PoolRun(tuple(commands), {c: [[] for _ in keys] for c in commands},
                  [[] for _ in keys])
    digest = hashlib.sha256()
    start = perf_counter()
    while run.passes < min_passes or perf_counter() - start < seconds:
        first = run.passes == 0
        for k, key in enumerate(keys):
            if run.passes >= min_passes and perf_counter() - start >= seconds:
                break
            run.refs[k].append(reference())
            if tracer is not None:
                tracer.instance = k
            for command in commands:
                dt, code, out, err, error = run_command(cli, argv_for(command, key))
                run.latencies[command][k].append(dt)
                run.attempted += 1
                reason = check(command, key, code, out, err, error)
                if reason is not None:
                    run.failures.append((key.seed, command, reason))
                if first and command in ("split", "cohomology"):
                    digest.update(out.encode("utf-8"))
                if first and command == "split" and reason is None:
                    with open(key.cert_path, "rb") as fh:
                        raw = fh.read()
                    run.cert_bytes.append(len(raw))
                    run.cert_bits = max(run.cert_bits, coeff_bits(json.loads(raw)))
            if between is not None:
                between()
        else:
            run.passes += 1
    run.digest = digest.hexdigest()
    return run


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, samples) for the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11], n


def summarize(run: PoolRun) -> dict:
    """Every end-to-end figure of a run, with units, for the report.

    Latencies are at the reference speed (``PoolRun.scaled``), each
    instance's median over its passes; ``raw_*`` are the unscaled fastest
    passes, and ``slowdown`` is the run's median reference time over
    ``REFERENCE_S``.
    """
    ms = 1000.0
    sequences = run.scaled_sequences()
    raw = run.best_sequences()
    refs = [r for per in run.refs for r in per]
    out: dict[str, dict] = {
        "throughput_ips": {"value": len(sequences) / sum(sequences), "unit": "1/s"},
        "instance_p50_ms": {"value": statistics.median(sequences) * ms, "unit": "ms",
                            "samples": len(sequences)},
        "raw_throughput_ips": {"value": len(raw) / sum(raw), "unit": "1/s"},
        "raw_instance_p50_ms": {"value": statistics.median(raw) * ms, "unit": "ms",
                                "samples": len(raw)},
        "reference_min_ms": {"value": min(refs) * ms, "unit": "ms"},
        "slowdown": {"value": statistics.median(refs) / REFERENCE_S, "unit": "x"},
    }
    t = tail(sequences)
    if t:
        out["instance_tail_ms"] = {"value": t[1] * ms, "unit": "ms", "percentile": t[0],
                                   "samples": t[2]}
    for command in run.commands:
        calls = run.scaled_calls(command)
        out[f"{command}_p50_ms"] = {"value": statistics.median(calls) * ms, "unit": "ms",
                                    "samples": len(calls)}
        t = tail(calls)
        if t:
            out[f"{command}_tail_ms"] = {"value": t[1] * ms, "unit": "ms", "percentile": t[0],
                                         "samples": t[2]}
    out["failed_frac"] = {"value": len(run.failures) / run.attempted, "unit": "ratio"}
    if run.cert_bytes:
        out["cert_bytes_mean"] = {"value": statistics.mean(run.cert_bytes), "unit": "bytes"}
        out["cert_coeff_bits_max"] = {"value": run.cert_bits, "unit": "bits"}
    return out
