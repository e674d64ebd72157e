#!/usr/bin/env python3
"""Client-view benchmark: builds the library and the benchmark binary, runs one workload
in its own process, checks its answers and prints its metrics.

    python3 clientbench/run.py --workload nyt_static_range --seed 1 \
        --seconds 10 --trace 0

Run it from the root of a checkout. Every metric is printed as
"name value unit" (n/a where the workload has no such operation); the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, with
--trace 1 its per_layer metrics. A per_layer metric that does not apply to the
workload (see APPLIES) reads 0; one that applies and came out undefined fails
the run. `--workload all` runs every workload, each in its own
process. `--self-test` builds and runs the benchmark's own tests.

The build goes to $CARGO_TARGET_DIR/clientbench (default .bench_build), in
Release with the compiler's default target flags; the traced run writes its
spans there too.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["nyt_static_range", "yago_live_mixed", "nyt_snapshot_range"]
RUN_TIMEOUT_S = 170

# The per_layer metrics each workload measures. The others belong to layers
# or operations the workload does not use.
_EVERY = [
    "serve.overhead_us", "serve.stopped_ratio", "serve.deadline_overhead_ratio",
    "serve.deadline_overhead_iqr", "serve.zero_think_min_share",
    "client.range_p50_ms", "client.range_p99_ms", "client.peak_rss_mb",
    "client.error_rate", "bench.trace_overhead_ratio", "bench.reconcile_gap",
]
_KERNEL = [
    "invidx.index_mb", "kernel.candidates_per_query",
    "kernel.postings_scanned_per_query", "kernel.validate_ns_per_candidate",
    "kernel.results_per_candidate", "kernel.distance_calls_per_query",
]
APPLIES = {
    "nyt_static_range": _EVERY + _KERNEL + [
        "serve.inflight_at_arrival", "serve.result_cache_hit_ratio",
        "invidx.fv_query_us", "kernel.filter_us",
    ],
    "yago_live_mixed": _EVERY + [
        "serve.inflight_at_arrival", "serve.result_cache_hit_ratio",
        "mutate.range_us", "mutate.knn_us", "mutate.insert_us",
        "mutate.delete_us", "mutate.wait_us", "mutate.knn_wait_us",
        "mutate.write_wait_us", "mutate.knn_distance_calls_per_query",
        "mutate.merge_cycles", "mutate.delta_rows_mean",
        "mutate.tombstones_mean", "client.knn_p50_ms", "client.knn_p99_ms",
        "client.write_p50_ms", "client.write_p99_ms", "bench.writer_lag_p99_ms",
    ],
    "nyt_snapshot_range": _EVERY + _KERNEL + [
        "storage.snapshot_write_s", "storage.open_s",
        "storage.resident_mb_after_open", "storage.bytes_per_entry",
        "storage.filter_us", "storage.blocks_decoded_per_query",
    ],
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "clientbench")


def build():
    """Configures and builds; returns False (after logging why) on failure."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "clientbench"), "-B", out,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as error:
            log("clientbench: build step failed:", error)
            return False
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("clientbench: build failed:", " ".join(step))
            return False
    return True


def load_metric_lists():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def run_workload(name, seed, seconds, trace):
    """Runs the benchmark binary for one workload; returns its report."""
    out = build_dir()
    spans = os.path.join(out, "spans-%s-%d.jsonl" % (name, seed))
    cmd = [os.path.join(out, "clientbench"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--work-dir", os.path.join(out, "work-%s-%d" % (name, os.getpid())),
           "--spans-out", spans if trace else ""]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("clientbench: %s did not finish in %d s" % (name, RUN_TIMEOUT_S))
        return None
    lines = done.stdout.strip().splitlines()
    if not lines:
        log("clientbench: %s exited %d without a report" % (name, done.returncode))
        return None
    report = json.loads(lines[-1])
    report["exit_code"] = done.returncode
    return report


def print_report(report):
    print("workload %s seed %s seconds %s trace %s readers %s rows %s" % (
        report["workload"], report["seed"], report["seconds"], report["trace"],
        report["readers"], report["rows"]))
    print("build " + " ".join("%s=%s" % kv for kv in report["build"].items()))
    for name, metric in report["metrics"].items():
        value = metric["value"]
        shown = "n/a" if value is None else repr(value)
        print("%-36s %s %s" % (name, shown, metric["unit"]))
    print("answers checked %d, mismatches %d, stopped %d, shed %d, "
          "attempted %d, failed %d, reconciled %s" % (
              report["checked"], report["mismatches"], report["stopped"],
              report["shed"], report["attempted"], report["failed"],
              report["reconciled"]))
    for note in report["notes"]:
        print("note: " + note)


def result_line(report, trace, end_to_end, per_layer):
    """The result line, or None when a metric is missing."""
    metrics = {}
    if trace:
        applies = APPLIES[report["workload"]]
        for spec in per_layer:
            name = spec["name"]
            source = name[len("client."):] if name.startswith("client.") else name
            value = report["metrics"].get(source, {}).get("value")
            if name not in applies:
                value = 0.0
            elif value is None:
                log("clientbench: %s has no %s" % (report["workload"], name))
                return None
            metrics[name] = {"value": value, "unit": spec["unit"]}
    else:
        for spec in end_to_end:
            value = report["metrics"].get(spec["name"], {}).get("value")
            if value is None:
                log("clientbench: %s has no %s" % (report["workload"], spec["name"]))
                return None
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    correct = (report["mismatches"] == 0 and report["checked"] > 0 and
               report["reconciled"])
    return {"correct": correct, "attempted": max(1, report["attempted"]),
            "failed": report["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()  # an unknown flag exits with code 2
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        log("clientbench: no library sources at the checkout root")
        return 1
    if not build():
        return 1
    if args.self_test:
        return subprocess.run(
            [os.path.join(build_dir(), "clientbench_selftest"),
             os.path.join(build_dir(), "selftest-work")],
            cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode

    end_to_end, per_layer = load_metric_lists()
    listed = {spec["name"] for spec in per_layer}
    unlisted = sorted(set(sum(APPLIES.values(), [])) - listed)
    if unlisted:
        log("clientbench: APPLIES names metrics BENCHMARK.json lacks:", unlisted)
        return 1
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        report = run_workload(name, args.seed, args.seconds, args.trace)
        if report is None:
            return 1
        print_report(report)
        if report["exit_code"] != 0:
            log("clientbench: %s exited %d" % (name, report["exit_code"]))
            return 1
        line = result_line(report, args.trace, end_to_end, per_layer)
        if line is None:
            return 1
        results[name] = line
    sys.stdout.flush()
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
