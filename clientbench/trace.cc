#include "trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>
#include <unordered_map>

namespace clientbench {

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
          << ",\"request\":" << span.request << ",\"name\":\"" << span.name
          << "\",\"phase\":\""
          << (span.phase == Phase::kSingle ? "single" : "loaded")
          << "\",\"start_ns\":" << span.start_ns
          << ",\"end_ns\":" << span.end_ns << "}\n";
    }
  }
  out.flush();
  return static_cast<bool>(out);
}

LayerTimes CollectLayerTimes(const std::vector<const SpanLog*>& logs,
                             Phase phase) {
  // A replay is recorded by the thread that served its parent, so the
  // child durations can be summed per log.
  LayerTimes times;
  for (const SpanLog* log : logs) {
    std::unordered_map<uint64_t, int64_t> child_ns;
    for (const Span& span : log->spans()) {
      if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
    }
    for (const Span& span : log->spans()) {
      if (span.phase != phase) continue;
      const int64_t duration = span.end_ns - span.start_ns;
      const auto it = child_ns.find(span.id);
      const int64_t children = it == child_ns.end() ? 0 : it->second;
      times.duration_us[span.name].push_back(duration / 1e3);
      // Self time is kept only for spans of a replayed chain; a request
      // that was not replayed has no children to subtract.
      if (it != child_ns.end() || span.parent != 0) {
        times.self_us[span.name].push_back((duration - children) / 1e3);
      }
      if (it != child_ns.end()) times.replayed_us[span.name].push_back(duration / 1e3);
    }
  }
  return times;
}

double ReconcileGap(const LayerTimes& single, const LayerTimes& loaded,
                    const std::vector<const char*>& chain) {
  // The root's single-client self time plus its wait is its loaded self
  // time.
  double predicted = MedianOf(loaded.self_us, chain.front());
  for (size_t i = 1; i < chain.size(); ++i) {
    predicted += MedianOf(single.self_us, chain[i]);
  }
  // The root's self time is known only for replayed requests; the e2e
  // median is taken over the same ones.
  const double e2e = MedianOf(loaded.replayed_us, chain.front());
  return std::abs(predicted - e2e) / e2e;
}

double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

double MedianOf(const std::map<std::string, std::vector<double>>& by_name,
                const std::string& name) {
  const auto it = by_name.find(name);
  return it == by_name.end() ? std::numeric_limits<double>::quiet_NaN()
                             : Median(it->second);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = std::clamp<size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

namespace {

// Linear interpolation between closest ranks (numpy's default).
double Quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

}  // namespace

double Iqr(std::vector<double> values) {
  if (values.size() < 2) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  return Quantile(values, 0.75) - Quantile(values, 0.25);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace clientbench
