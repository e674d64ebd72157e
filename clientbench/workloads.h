// The client-view benchmark's workloads.
//
// Each workload builds its inputs from the seed, sets the system up
// through the library's public calls, drives it from client threads in
// one process, checks a seeded sample of answers against a linear scan,
// and reports end-to-end metrics (untraced run) or per-layer metrics
// (traced run). See clientbench/notes.json for why each workload exists.

#ifndef CLIENTBENCH_WORKLOADS_H_
#define CLIENTBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace clientbench {

enum class WorkloadKind { kStaticRange, kLiveMixed, kSnapshotRange };

struct WorkloadConfig {
  WorkloadKind kind = WorkloadKind::kStaticRange;
  std::string name;
  /// Rows in the store (NYT-like for the static and snapshot workloads,
  /// Yago-like for the live one).
  uint32_t rows = 0;
  /// Closed-loop reader threads in the loaded phase.
  size_t readers = 1;
  /// Distinct entries in the query pool; larger than a run sends when
  /// repeat_fraction is 0, so no query is re-issued.
  size_t pool_size = 0;
  /// Extra pool entries per second of run time.
  double pool_per_second = 0.0;
  double repeat_fraction = 0.0;
  /// Open-loop writes per second (live only), 3 inserts per delete.
  double write_rate = 0.0;
  size_t merge_threshold = 0;
  /// Deadline of every read, far above any healthy latency.
  double deadline_ms = 1000.0;
  /// Set-up repetitions; setup_s is their median.
  size_t setup_reps = 9;
  /// Answers checked per run (per read kind on the live workload).
  size_t check_sample = 48;
  /// Paired no-control / far-deadline replays behind
  /// serve.deadline_overhead_ratio.
  size_t deadline_pairs = 300;
  /// Test hook: when > 0, every Nth checked answer is corrupted before it
  /// is compared, so a test can show that the check counts it.
  size_t corrupt_every = 0;
};

/// The workload names, in the order they are reported.
std::vector<std::string> WorkloadNames();
/// The fixed configuration of a named workload; nullopt for an unknown name.
std::optional<WorkloadConfig> ConfigFor(const std::string& name);

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for snapshot files; created and removed by the run.
  std::string work_dir;
  /// Where a traced run writes its spans (JSON lines); empty skips it.
  std::string spans_path;
};

/// A metric value; nullopt where the workload performs no such operation
/// or where the measurement came out undefined (no samples).
struct Metric {
  std::string name;
  std::optional<double> value;
  std::string unit;
};

struct RunReport {
  std::vector<Metric> metrics;
  /// Operations attempted and failed (mismatched answers, stopped or shed
  /// requests, failed writes), over the timed window and the answer check.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t checked = 0;
  uint64_t stopped = 0;
  uint64_t shed = 0;
  /// Traced runs: whether, for every request chain, the single-client
  /// self-time medians plus the waits under load land within 10% of the
  /// loaded end-to-end median (see ReconcileGap in trace.h).
  bool reconciled = true;
  std::vector<std::string> notes;

  std::optional<double> Get(const std::string& name) const;
};

RunReport RunWorkload(const WorkloadConfig& config, const RunOptions& options);

/// Build configuration compiled into the benchmark (type, flags, compiler).
std::vector<std::pair<std::string, std::string>> BuildInfo();

}  // namespace clientbench

#endif  // CLIENTBENCH_WORKLOADS_H_
