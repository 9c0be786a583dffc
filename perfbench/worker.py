"""One workload in a fresh interpreter, so set-up includes a cold import.

Usage: python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS WORKDIR RESULT.json

MODE is ``setup`` (set up only), ``measure`` (untraced timed run) or
``trace`` (alternating untraced and traced passes); the result is written as JSON.
"""

import os
import sys
import time


def main() -> None:
    mode, workload, seed, seconds, workdir, result_path = sys.argv[1:7]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(root, "src"))
    import equisplit.cli  # noqa: F401  -- the cold import being timed

    import_s = time.perf_counter() - t0

    import json
    import resource
    from pathlib import Path

    import session

    keys, generate_s = session.setup(workload, int(seed), Path(workdir))
    result = {"setup_s": import_s + generate_s}
    if mode == "measure":
        probe = session.SetupProbe(workload, int(seed), Path(workdir) / "setup")
        result.update(session.measure(workload, keys, float(seconds), probe))
    elif mode == "trace":
        spans = Path(root) / ".perfbench_work" / f"spans-{workload}.json"
        result.update(session.trace(workload, keys, spans))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if "summary" in result:
        result["summary"]["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
