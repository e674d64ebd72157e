// The benchmark's own tests: the answer check counts a corrupted answer,
// an expired deadline is counted as a failed request, a traced run
// reconciles, the reconciliation gate opens a gap when a lower layer's
// cost moves under load, and the span arithmetic is right. Each workload
// runs at a small size for about a second, and traced at its own size for
// a few seconds.
//
//   python3 clientbench/run.py --self-test
//   clientbench_selftest [WORK_DIR]   (snapshot scratch; default
//                                      .clientbench-work)

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace {

int failures = 0;
std::string work_root = ".clientbench-work";

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

clientbench::WorkloadConfig Small(const std::string& name) {
  clientbench::WorkloadConfig config = *clientbench::ConfigFor(name);
  config.rows = 4000;
  config.readers = 2;
  config.pool_size = 3000;
  config.pool_per_second = 0;
  config.setup_reps = 1;
  config.check_sample = 16;
  config.write_rate = 100;
  config.merge_threshold = 32;
  config.deadline_pairs = 20;
  return config;
}

clientbench::RunReport Run(const clientbench::WorkloadConfig& config,
                           bool trace, double seconds = 1.0) {
  clientbench::RunOptions options;
  options.seed = 7;
  options.seconds = seconds;
  options.trace = trace;
  options.work_dir = work_root + "/selftest-" + config.name;
  return clientbench::RunWorkload(config, options);
}

void TestSpanArithmetic() {
  using clientbench::Phase;
  using clientbench::SpanLog;
  SpanLog log(0);
  log.set_phase(Phase::kSingle);
  const uint64_t root = log.Record("root", 0, 1, 0, 100000);
  log.Record("child", root, 1, 100000, 130000);
  log.Record("child", root, 1, 130000, 150000);
  log.Record("lone", 0, 2, 0, 5000);
  const clientbench::LayerTimes t =
      clientbench::CollectLayerTimes({&log}, Phase::kSingle);
  Expect(t.self_us.at("root").size() == 1 &&
             std::abs(t.self_us.at("root")[0] - 50.0) < 1e-9,
         "self time subtracts the replayed children");
  Expect(t.self_us.count("lone") == 0 && t.duration_us.at("lone").size() == 1,
         "a request without replays has a duration and no self time");
  Expect(clientbench::Median({3, 1, 2, 4}) == 2.5, "median of an even count");
  Expect(clientbench::Percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99) == 10,
         "nearest-rank p99");
}

void TestReconcileGap() {
  using clientbench::Phase;
  using clientbench::SpanLog;
  // One request per phase: a 100 us frontend call whose replayed lower
  // layer takes 30 us alone.
  auto times = [](Phase phase, int64_t root_ns, int64_t child_ns) {
    SpanLog log(0);
    log.set_phase(phase);
    const uint64_t root = log.Record("root", 0, 1, 0, root_ns);
    log.Record("lower", root, 1, root_ns, root_ns + child_ns);
    return clientbench::CollectLayerTimes({&log}, phase);
  };
  const clientbench::LayerTimes single = times(Phase::kSingle, 100000, 30000);
  const std::vector<const char*> chain = {"root", "lower"};
  // Under load the call takes 200 us and the lower layer still 30 us: the
  // extra 100 us is the frontend's wait, and the chain reconciles.
  Expect(clientbench::ReconcileGap(single, times(Phase::kLoaded, 200000, 30000),
                                   chain) < 1e-9,
         "a frontend wait reconciles");
  // The replayed lower layer takes 90 us under load: its single-client
  // cost no longer explains the call, and the gap is (200 - 140) / 200.
  Expect(std::abs(clientbench::ReconcileGap(
                      single, times(Phase::kLoaded, 200000, 90000), chain) -
                  0.3) < 1e-9,
         "a lower layer whose cost moves under load opens a gap");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) work_root = argv[1];
  TestSpanArithmetic();
  TestReconcileGap();
  for (const std::string& name : clientbench::WorkloadNames()) {
    const clientbench::RunReport clean = Run(Small(name), false);
    Expect(clean.checked > 0 && clean.mismatches == 0 && clean.failed == 0,
           name + ": a clean run checks answers and counts no failure");

    clientbench::WorkloadConfig corrupt = Small(name);
    corrupt.corrupt_every = 1;
    const clientbench::RunReport bad = Run(corrupt, false);
    Expect(bad.checked > 0 && bad.mismatches == bad.checked &&
               bad.failed >= bad.mismatches && *bad.Get("error_rate") > 0,
           name + ": every corrupted answer is counted as a failure");

    clientbench::WorkloadConfig expired = Small(name);
    expired.deadline_ms = 0;
    const clientbench::RunReport late = Run(expired, false);
    Expect(late.stopped > 0 && late.failed >= late.stopped &&
               *late.Get("error_rate") > 0,
           name + ": requests past their deadline are counted as failures");

    // Reconciliation compares medians of per-layer costs between phases;
    // at a small size a live range read takes microseconds and the medians
    // move by more than 10% between phases, so this run has the workload's
    // own size.
    clientbench::WorkloadConfig full = *clientbench::ConfigFor(name);
    full.setup_reps = 1;
    full.deadline_pairs = 20;
    const clientbench::RunReport traced = Run(full, true, 6.0);
    Expect(traced.reconciled && traced.failed == 0 &&
               traced.Get("serve.overhead_us").has_value() &&
               traced.Get("serve.zero_think_min_share").has_value() &&
               traced.Get("bench.trace_overhead_ratio").has_value(),
           name + ": a traced run reconciles and reports per-layer metrics"
               " (gap " +
               std::to_string(traced.Get("bench.reconcile_gap").value_or(-1)) +
               ", failed " + std::to_string(traced.failed) + ")");
  }
  std::printf("%s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
