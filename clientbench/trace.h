// Spans and summary statistics for the client-view benchmark.
//
// Spans are recorded from the benchmark's own code, around calls into the
// library's public entry points; nothing inside the library is
// instrumented. Every client thread owns a SpanLog (no locking on the
// record path); the logs are merged and written out after the run.
//
// A replay span is a logical child: after a traced phase's clients stop,
// each request's input is sent again through the entry point one layer
// down, and the replay's span names the request's span as its parent and
// carries the same request id. A layer's self time is therefore its span's
// duration minus the summed durations of its child spans, not minus an
// overlapped interval.

#ifndef CLIENTBENCH_TRACE_H_
#define CLIENTBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace clientbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Which measurement phase a span belongs to.
enum class Phase : uint8_t { kSingle = 0, kLoaded = 1 };

struct Span {
  uint64_t id = 0;       // unique within the run, never 0
  uint64_t parent = 0;   // 0 for a request's root span
  uint64_t request = 0;  // shared by every span of one request
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Phase phase = Phase::kSingle;
};

/// Per-thread span buffer. Span ids embed the owning thread's index, so
/// ids from different logs never collide. Callers record only in traced
/// phases.
class SpanLog {
 public:
  explicit SpanLog(uint32_t thread)
      : next_id_((static_cast<uint64_t>(thread) + 1) << 40) {}

  void set_phase(Phase phase) { phase_ = phase; }
  Phase phase() const { return phase_; }

  /// Records one span and returns its id.
  uint64_t Record(const char* name, uint64_t parent, uint64_t request,
                  int64_t start_ns, int64_t end_ns) {
    const uint64_t id = ++next_id_;
    spans_.push_back(Span{id, parent, request, name, start_ns, end_ns, phase_});
    return id;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  uint64_t next_id_;
  Phase phase_ = Phase::kSingle;
};

/// Writes every span as one JSON object per line. Returns false on an I/O
/// error.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

/// Durations and self times (both in microseconds) per span name, for one
/// phase.
struct LayerTimes {
  std::map<std::string, std::vector<double>> duration_us;
  std::map<std::string, std::vector<double>> self_us;
  /// Durations of the spans that have replayed children.
  std::map<std::string, std::vector<double>> replayed_us;
};

/// Groups the spans of `phase` by name. Self time = duration minus the
/// durations of the span's children; it is collected only for spans that
/// have a parent or children.
LayerTimes CollectLayerTimes(const std::vector<const SpanLog*>& logs,
                             Phase phase);

/// The reconciliation gap of one request chain (root first). Predicted:
/// the single-client self-time medians of the layers below the root, plus
/// the single-client self-time median of the root, plus the root's wait
/// (its loaded minus its single-client self-time median). Against: the
/// loaded end-to-end median (the root's duration) of the same replayed
/// requests. Returns |predicted - e2e| / e2e; NaN when a median is
/// missing. The layers below count at their single-client cost, so the gap
/// grows when their cost under load differs from their cost alone.
double ReconcileGap(const LayerTimes& single, const LayerTimes& loaded,
                    const std::vector<const char*>& chain);

/// Median (the mean of the middle pair for an even count); NaN when empty.
double Median(std::vector<double> values);
/// Median of the values recorded under `name`; NaN when there are none.
double MedianOf(const std::map<std::string, std::vector<double>>& by_name,
                const std::string& name);
/// Nearest-rank percentile, q in (0, 1]; NaN when empty.
double Percentile(std::vector<double> values, double q);
/// Interquartile range (upper minus lower quartile); NaN when fewer than 2.
double Iqr(std::vector<double> values);
double Mean(const std::vector<double>& values);

}  // namespace clientbench

#endif  // CLIENTBENCH_TRACE_H_
