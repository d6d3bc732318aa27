"""The repository's benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replay-zipf --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` is a separate run that records spans around each call into
a layer and reports the per-layer metrics.  Both check the program's
outputs; the last stdout line is ``{"correct", "attempted", "failed",
"metrics"}`` and the exit code is non-zero when a check failed or a
metric is missing.  Metric names and units come from ``BENCHMARK.json``;
workloads and their reasons are in ``workloads.py``.  Every result is
also appended, with the machine fingerprint, to
``.perfbench_out/results.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import replay
    import tcp
    from common import Checks, fingerprint
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    machine = fingerprint(ROOT)
    print(f"{workload.name}: {workload.why}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()),
          flush=True)
    checks = Checks()
    metrics, attempted, failed = replay.run(
        workload.name, args.seed, args.seconds, bool(args.trace), checks,
        OUT_DIR)
    if args.trace and workload.name == "replay-zipf":
        # The network layers are priced here, from a half-length traced
        # serve-tcp run on the same kernel policy.
        net, net_attempted, net_failed = tcp.run(
            args.seed, args.seconds / 2, checks, ROOT, OUT_DIR)
        for name in tcp.NETWORK_LAYERS:
            metrics.values[name] = net.values[name]
        metrics.set("lifecycle.stop_s", max(
            metrics.values["lifecycle.stop_s"][0],
            net.values["lifecycle.stop_s"][0]), "s")
        attempted += net_attempted
        failed += net_failed
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]
    missing = metrics.missing(wanted)
    for name in missing:
        checks.expect(False, f"metric {name} missing or not finite")
    for name in wanted:
        if name not in missing:
            value, unit = metrics.values[name]
            print(f"  {name} = {value:.6g} {unit}")
    print(f"  checks: {checks.n - len(checks.failures)}/{checks.n} passed")
    result = {
        "correct": not checks.failures,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics.as_json([n for n in wanted if n not in missing]),
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with (OUT_DIR / "results.jsonl").open("a") as fh:
        fh.write(json.dumps({"workload": workload.name, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "machine": machine, **result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
