#!/usr/bin/env python3
"""End-to-end benchmark of hv: the paper's study pipeline, plus a probe
of `hv serve` in the traced runs.

Run from the repository root:

    python3 perfbench/run.py --workload study-plain --seed 1 --seconds 10 --trace 0

It builds `hv` and the `hvbench` tool from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), sets the workload up in
.bench_work/, measures for --seconds, checks the outputs, and prints
every metric with its unit.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(SOURCE_ROOT, "BENCHMARK.json")

# Corpus sizes: (domains, pages per domain).  "tiny" is for the self-test.
SCALES = {"full": (300, 10), "tiny": (40, 4)}
SETUP_SAMPLES = 3

# Throughput of the timed passes, printed with every untraced run but not
# in BENCHMARK.json.
UNGATED = [("study_pages_per_s", "1/s"), ("study_cpu_ms_per_kpage", "ms")]

# Pages the paper checked across its eight snapshots (Table 2).
PAPER_PAGES = 14.7e6

# The traced study runs also serve their own results, for the serve
# layers' metrics.
SERVE_PROBE_KEYS = {"fix.autofix_s", "serve.overhead_us", "serve.connect_us",
                    "serve.reconnects", "serve.backlog_max",
                    "serve.gen_late_ms"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures and builds hv + hvbench; returns the build directory."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], "configure")
    run_checked(["cmake", "--build", out, "-j", jobs, "--target", "hv",
                 "hvbench"], "build")
    return out


def run_checked(command, what):
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        log(done.stdout[-4000:])
        raise SystemExit(f"perfbench: {what} failed ({done.returncode})")
    return done.stdout


def hvbench(binary, command, options):
    """Runs one hvbench command and returns its parsed JSON line."""
    argv = [binary, command]
    for key, value in options.items():
        if value is True:
            argv.append("--" + key)
        elif value is not False and value is not None:
            argv += ["--" + key, str(value)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if done.returncode != 0:
        log(done.stderr[-4000:])
        raise SystemExit(f"perfbench: hvbench {command} failed "
                         f"({done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Server:
    """A child `hv serve` process; stopped (and waited for) on exit."""

    def __init__(self, hv, results, threads):
        self.process = subprocess.Popen(
            [hv, "serve", "--results", results, "--port", "0",
             "--threads", str(threads)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = self.process.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise SystemExit(f"perfbench: hv serve did not start: {line!r}")
        self.port = int(line.split("listening on ")[1].split()[0]
                        .rsplit(":", 1)[1])

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def study_workload(args, binary, hv, work, gzip):
    domains, pages = SCALES[args.scale]
    common = {"domains": domains, "pages": pages, "seed": args.seed,
              "threads": args.threads, "gzip": gzip}
    study_dir = os.path.join(work, "study")
    setup = []
    if not args.trace:
        # Three set-ups, each in a fresh process (the calibration cache is
        # per process); the last one's archives are measured.
        for i in range(SETUP_SAMPLES):
            directory = fresh_dir(os.path.join(work, f"setup{i}"))
            sample = hvbench(binary, "study-setup", dict(common, workdir=directory))
            setup.append(sample["metrics"]["setup_s"])
            if i + 1 < SETUP_SAMPLES:
                shutil.rmtree(directory, ignore_errors=True)
        os.rename(directory, study_dir)
    else:
        fresh_dir(study_dir)
    result = hvbench(binary, "study", dict(
        common, workdir=study_dir, seconds=args.seconds,
        trace=int(args.trace),
        **({"corrupt-rate": args.corrupt_rate} if args.corrupt_rate else {})))
    if setup:
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["facts"]["setup_samples_s"] = " ".join(f"{s:.4f}" for s in setup)
    if args.trace:
        probe = serve_probe(args, binary, hv, study_dir)
        for key in SERVE_PROBE_KEYS:
            result["metrics"][key] = probe["metrics"][key]
        result["facts"]["serve_probe"] = " ".join(
            f"{k}={v:.4f}" for k, v in sorted(probe["metrics"].items()))
        result["attempted"] += probe["attempted"]
        result["failed"] += probe["failed"]
        if probe["facts"].get("errors"):
            result["facts"]["errors"] = "; ".join(filter(None, (
                result["facts"].get("errors"), probe["facts"]["errors"])))
    return result


def serve_probe(args, binary, hv, directory):
    """Serves <directory>/results.hv with a child `hv serve` and probes it
    one request kind at a time."""
    server = Server(hv, os.path.join(directory, "results.hv"), args.threads)
    try:
        return hvbench(binary, "serve-load", {
            "workdir": directory, "port": server.port, "seed": args.seed,
            "connections": args.connections})
    finally:
        server.stop()


def source_fingerprint():
    """Commit and dirty flag from git when the tree is a checkout, and a
    content hash of the sources either way."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(SOURCE_ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SOURCE_ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    commit, dirty = "none", "unknown"
    try:
        commit = subprocess.run(["git", "-C", SOURCE_ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                check=True).stdout.strip()
        dirty = "yes" if subprocess.run(
            ["git", "-C", SOURCE_ROOT, "status", "--porcelain", "--",
             "src", "tools", "perfbench"],
            capture_output=True, text=True, check=True).stdout.strip() else "no"
    except (OSError, subprocess.CalledProcessError):
        pass
    return commit, dirty, digest.hexdigest()[:16]


def fingerprint(out, hv):
    cache = {}
    with open(os.path.join(out, "CMakeCache.txt")) as handle:
        for line in handle:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    simd = subprocess.run([hv, "version"], capture_output=True,
                          text=True).stdout.strip()
    commit, dirty, sources = source_fingerprint()
    return {"commit": commit, "dirty": dirty, "source_sha256": sources,
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "compiler": version[0] if version else compiler,
            "cpu_model": cpu, "nproc": os.cpu_count(),
            "machine": platform.machine(), "hv_version": simd}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["study-plain", "study-gzip"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--threads", type=int, default=2,
                        help="pipeline threads and hv serve workers")
    parser.add_argument("--connections", type=int, default=2,
                        help="probe connections to hv serve (traced runs)")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--corrupt-rate", type=float, default=0.0,
                        help="corrupt the study archives with `hv warc "
                             "mutate --rate` after set-up (self-test)")
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so child processes are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)

    out = build()
    binary = os.path.join(out, "hvbench")
    hv = os.path.join(out, "hv")
    work = os.path.join(".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    fresh_dir(work)
    try:
        result = study_workload(args, binary, hv, work,
                                args.workload == "study-gzip")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass

    wanted = [(m["name"], m["unit"]) for m in
              spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {}
    for name, unit in wanted:
        value = result["metrics"].get(name)
        if value is None:
            raise SystemExit(f"perfbench: {name} was not measured")
        metrics[name] = {"value": value, "unit": unit}
    attempted = max(1, int(result["attempted"]))
    failed = int(result["failed"])
    correct = failed == 0

    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>16.6f} {metric['unit']}")
    print(f"{'failed_frac':32s} {failed / attempted:>16.6f} ratio "
          f"({failed} of {attempted})")
    if not args.trace:
        # Measured but ungated: too unsteady across runs on a shared
        # machine (perfbench/README.md, "Measured spreads").
        for name, unit in UNGATED:
            print(f"{name:32s} {result['metrics'][name]:>16.6f} {unit} "
                  "(ungated)")
        # Derived, ungated: the paper's 14.7M checked pages at this rate.
        hours = PAPER_PAGES / result["metrics"]["study_pages_per_s"] / 3600
        print(f"{'paper_scale_hours':32s} {hours:>16.6f} h (derived)")
    if result["facts"].get("errors"):
        print("errors: " + result["facts"]["errors"])
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "threads": args.threads, "connections": args.connections,
              "scale": args.scale, "fingerprint": fingerprint(out, hv),
              "facts": result["facts"],
              "all_metrics": result["metrics"]}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
