#!/usr/bin/env python3
"""End-to-end benchmark of the OPC UA study library.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. The first call builds the library and
the benchmark program (perfbench/CMakeLists.txt) into .bench_build; later
calls rebuild incrementally. Each call works in its own directory under
.bench_work, removed when it ends, so calls can run at once and no run
inherits files from an earlier one. For scan_weeks the seed's RSA key
corpus is generated once, outside the run, under .bench_work/keys.

Workloads (BENCHMARK.json records why each was chosen):
  scan_weeks     weekly measurements of the paper population, sharded
  history_batch  read-side batch analysis of a campaign history
  svc_mixed      the resident query service under reads and appends

The last line of standard output is the result document
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding the end_to_end metrics of BENCHMARK.json with --trace 0 and the
per_layer metrics with --trace 1; the traced run also leaves its span log
in .bench_work/traces/WORKLOAD.jsonl. perfbench/METRICS.md maps every
metric to its source. --smoke runs tiny inputs for the benchmark's own
test (perfbench/test_smoke.py). The exit code is 0 for a completed run
whose outputs passed every check and whose document matches
BENCHMARK.json; a run whose checks failed prints its document and exits 1.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD, "perfbench_e2e")
WORKLOADS = ("scan_weeks", "history_batch", "svc_mixed")
RUN_TIMEOUT_S = 170


class Locked:
    """An exclusive advisory lock on `path` for the duration of a with-block."""

    def __init__(self, path):
        self.path = path
        self.handle = None

    def __enter__(self):
        self.handle = open(self.path, "a")
        fcntl.flock(self.handle, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc):
        fcntl.flock(self.handle, fcntl.LOCK_UN)
        self.handle.close()


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_checked(command, timeout=None):
    """Run a command with its output on stderr; raise on failure."""
    subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=timeout)


def build():
    os.makedirs(WORK, exist_ok=True)
    with Locked(os.path.join(WORK, "build.lock")):
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_checked(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"])
        run_checked(["cmake", "--build", BUILD, "--target", "perfbench_e2e", "-j", jobs])


def key_corpus(seed):
    """The seed's warm key corpus, generated once per checkout."""
    keys = os.path.join(WORK, "keys")
    os.makedirs(keys, exist_ok=True)
    corpus = os.path.join(keys, f"{seed}.keycache")
    with Locked(os.path.join(keys, f"{seed}.lock")):
        if not os.path.exists(corpus):
            partial = f"{corpus}.partial-{os.getpid()}"
            log(f"generating the RSA key corpus of seed {seed}")
            try:
                run_checked([BINARY, "--warm-keys", "--seed", str(seed), "--key-corpus", partial],
                            timeout=600)
                os.replace(partial, corpus)
            finally:
                for leftover in (partial, partial + ".tmp"):
                    if os.path.exists(leftover):
                        os.remove(leftover)
    return corpus


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    """The result document must carry exactly the declared metrics."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    expected = expected_metrics(trace)
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                         f"extra {extra}, wrong unit {wrong}")
    if result["attempted"] < 1:
        raise ValueError("no operation attempted")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    if args.workload == "scan_weeks":
        command += ["--key-corpus", key_corpus(args.seed)]

    workdir = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=WORK)
    try:
        trace_file = os.path.join(workdir, "spans.jsonl")
        command += ["--workdir", workdir]
        process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        if process.returncode not in (0, 1):
            log(f"{args.workload} exited with code {process.returncode}")
            return 1
        try:
            result = json.loads(output.rstrip("\n").split("\n")[-1])
            validate(result, bool(args.trace))
        except (ValueError, KeyError, TypeError) as error:
            log(f"bad result document: {error}")
            sys.stderr.write(output)
            return 1
        if args.trace and os.path.exists(trace_file):
            traces = os.path.join(WORK, "traces")
            os.makedirs(traces, exist_ok=True)
            os.replace(trace_file, os.path.join(traces, f"{args.workload}.jsonl"))
        sys.stdout.write(output if output.endswith("\n") else output + "\n")
        sys.stdout.flush()
        if process.returncode != 0:
            log(f"{args.workload}: an output check failed")
        return process.returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as error:
        log(f"failed: {error}")
        sys.exit(1)
