#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny scale (about three minutes).

Run from the repository root:

    python3 perfbench/selftest.py

Checks that every workload prints every metric BENCHMARK.json names,
with its unit, in both the untraced and the traced run (the traced run
includes the `hv serve` probe); that the plain and gzip studies write
byte-identical CSVs; and that a study over archives corrupted by
`hv warc mutate` reports failures.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SEED = 5


def run(workload, trace, *extra):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = []

    def check(condition, message):
        print(("ok   " if condition else "FAIL ") + message, flush=True)
        if not condition:
            failures.append(message)

    csv = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, record = run(workload, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} trace={trace}: result keys")
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  f"{workload} trace={trace}: correct, 0 failed of "
                  f"{result['attempted']} {record['facts'].get('errors', '')}")
            wanted = [(m["name"], m["unit"]) for m in spec[key]]
            for name, unit in wanted:
                got = result["metrics"].get(name)
                check(got is not None and got["unit"] == unit and
                      isinstance(got["value"], (int, float)),
                      f"{workload} trace={trace}: {name} [{unit}] = "
                      f"{got and got['value']}")
            check(set(result["metrics"]) == {name for name, _ in wanted},
                  f"{workload} trace={trace}: no unlisted metrics")
            for name in ("commit", "dirty", "build_type", "compiler",
                         "cpu_model", "nproc", "hv_version"):
                check(bool(record["fingerprint"].get(name)),
                      f"{workload} trace={trace}: fingerprint {name}")
            if "csv_fnv64" in record["facts"]:
                csv.setdefault(workload, set()).add(record["facts"]["csv_fnv64"])
    check(len(csv.get("study-plain", ())) == 1 and
          csv.get("study-plain") == csv.get("study-gzip"),
          f"study CSV identical across plain, gzip and traced runs: {csv}")

    corrupted, _ = run("study-plain", 0, "--corrupt-rate", "0.05")
    check(corrupted["failed"] > 0 and not corrupted["correct"],
          f"corrupted archive: {corrupted['failed']} of "
          f"{corrupted['attempted']} failed")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
