#!/usr/bin/env python3
"""Serving benchmark for the ontorew OntologyServer (see README.md here).

Run from the repository root:

    python3 servebench/run.py --workload warm_lookup --seed 1 \\
        --seconds 10 --trace 0
    python3 servebench/run.py --smoke

The first call configures and builds servebench/ (which compiles ../src)
with CMake into $CARGO_TARGET_DIR/servebench, default
.bench_build/servebench; later calls only rebuild what changed. It then
runs serve_bench, echoes its metric lines and prints, as the last line,
one JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics BENCHMARK.json lists, --trace 1 the
per-layer ones, from a traced replay whose spans go to
<build dir>/traces/<workload>-seed<seed>.json.

--smoke is the benchmark's own test: every workload, traced and untraced,
for a few seconds each; it checks that every metric BENCHMARK.json names
is printed with its unit, that the chase oracle passes, and that each
trace file is Chrome trace_event JSON holding a span for every layer.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(
    REPO, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "servebench")
BINARY = os.path.join(BUILD, "serve_bench")
RUN_TIMEOUT_S = 170

# Spans the traced replay must record: the request root plus one per
# layer call (README.md, "Per-layer metrics").
LAYER_SPANS = [
    "request", "server.serve_line", "server.wire_parse", "logic.parse_query",
    "serving.cache_key", "serving.cache_lookup", "serving.engine_serve",
    "rewriting.saturate", "rewriting.dag", "rewriting.emit",
    "backend.sqlite.exec", "db.eval", "render.rows",
]


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("the ontorew sources (src/) are missing; nothing to benchmark")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "--target", "serve_bench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")


def trace_path(workload, seed):
    return os.path.join(BUILD, "traces", f"{workload}-seed{seed}.json")


def run_once(workload, seed, seconds, trace):
    """Runs serve_bench; returns (exit code, echo lines, report or None)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    if trace:
        path = trace_path(workload, seed)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        command += ["--trace-out", path]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"servebench: {workload} timed out after {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, [], None
    lines = done.stdout.splitlines()
    report = None
    if lines:
        try:
            report = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            pass
    return done.returncode, lines, report


def result_line(spec, trace, code, report):
    """The contract's result object, and the problems found building it."""
    problems = [] if code == 0 else [f"serve_bench exited with {code}"]
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if report is None:
        return result, problems + ["serve_bench printed no report"]
    problems += report["failures"]
    result["attempted"] = report["attempted"]
    result["failed"] = report["failed"]
    for entry in spec["per_layer" if trace else "end_to_end"]:
        metric = report["metrics"].get(entry["name"])
        if metric is None:
            problems.append(f"metric {entry['name']} missing")
        elif metric["unit"] != entry["unit"]:
            problems.append(f"metric {entry['name']} in {metric['unit']}, "
                            f"BENCHMARK.json says {entry['unit']}")
        else:
            result["metrics"][entry["name"]] = {
                "value": metric["value"], "unit": metric["unit"]}
    result["correct"] = not problems and report["failed"] == 0
    return result, problems


def check_trace(path):
    """Problems with a trace file: Chrome trace_event JSON, every layer."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"{path}: not trace_event JSON ({e})"]
    problems = []
    for event in events:
        if not (event.get("ph") == "X" and isinstance(event.get("name"), str)
                and all(isinstance(event.get(k), (int, float))
                        for k in ("ts", "dur", "pid", "tid"))):
            problems.append(f"{path}: malformed event {event}")
            break
        parent = event["args"]["parent"]
        if parent >= 0 and (events[parent]["name"] != "request" or
                            events[parent]["args"]["request"] !=
                            event["args"]["request"]):
            problems.append(f"{path}: span {event} has a bad parent")
            break
    names = {event.get("name") for event in events}
    problems += [f"{path}: no {name} span"
                 for name in LAYER_SPANS if name not in names]
    return problems


def smoke(spec, seconds):
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, lines, report = run_once(workload, 1, seconds, trace)
            _, found = result_line(spec, trace, code, report)
            if report is not None and report["mismatches"]:
                found.append(f"{report['mismatches']} oracle mismatches")
            printed = "\n".join(lines)
            for entry in spec["per_layer" if trace else "end_to_end"]:
                pattern = (r"^metric " + re.escape(entry["name"]) +
                           r" = \S+ " + re.escape(entry["unit"]) + r" ")
                if not re.search(pattern, printed, re.MULTILINE):
                    found.append(f"{entry['name']} not printed in "
                                 f"{entry['unit']}")
            if trace:
                found += check_trace(trace_path(workload, 1))
            status = "ok" if not found else "FAILED"
            print(f"smoke {workload} trace={trace}: {status}")
            problems += [f"{workload} trace={trace}: {p}" for p in found]
    for problem in problems:
        print(f"  {problem}")
    print("smoke: " + ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    build()
    if args.smoke:
        sys.exit(smoke(spec, args.seconds or 5))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    seconds = args.seconds or spec["run_seconds"]
    code, lines, report = run_once(args.workload, args.seed, seconds,
                                   args.trace)
    result, problems = result_line(spec, args.trace, code, report)
    for line in lines:
        print(line)
    for problem in problems:
        print(f"servebench: {problem}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
