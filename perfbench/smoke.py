#!/usr/bin/env python3
"""Smoke test of the benchmark: a short run of every workload, untraced and
traced, checking that each run passes its correctness checks and prints
every metric BENCHMARK.json names, with its unit.

Run from the repository root:

    python3 perfbench/smoke.py

Exits 0 when every run passes, 1 otherwise.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            cmd = spec["command"] + [
                "--workload", workload["name"], "--seed", "7",
                "--seconds", "2", "--trace", trace, "--short",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{workload['name']} --trace {trace}"
            before = len(failures)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True:
                failures.append(f"{label}: a correctness check failed")
            if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
                failures.append(f"{label}: attempted = {result['attempted']}")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    failures.append(f"{label}: metric {metric['name']} missing")
                elif got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
                    failures.append(f"{label}: metric {metric['name']} printed as {got}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                failures.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
            if len(failures) == before:
                print(f"ok  {label}: {len(result['metrics'])} metrics", flush=True)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
