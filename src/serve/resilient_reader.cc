#include "serve/resilient_reader.h"

#include <utility>

#include "core/failpoint.h"
#include "kernel/range_search.h"

namespace topk {

ResilientReader::ResilientReader(const RankingStore* ram_store,
                                 ResilientReaderOptions options)
    : ram_store_(ram_store),
      options_(std::move(options)),
      manager_(options_.snapshot_dir,
               storage::SnapshotManagerOptions{options_.keep_generations}) {}

Status ResilientReader::OpenSnapshotTier(Statistics* stats) {
  if (options_.snapshot_dir.empty()) {
    return Status::InvalidArgument("no snapshot_dir configured");
  }
  // The whole scan runs under the reader mutex: SnapshotManager is
  // externally synchronized, and this also keeps a concurrent query
  // from observing a half-swapped tier.
  MutexLock lock(&mutex_);
  Result<storage::OpenedSnapshot> opened = manager_.OpenNewestValid(stats);
  if (!opened.ok()) return opened.status();
  snapshot_ = std::move(opened).ValueOrDie();
  degraded_ = false;
  return Status::OK();
}

Status ResilientReader::RestoreSnapshotTier(Statistics* stats) {
  return OpenSnapshotTier(stats);
}

bool ResilientReader::degraded() const {
  MutexLock lock(&mutex_);
  return degraded_;
}

bool ResilientReader::snapshot_open() const {
  MutexLock lock(&mutex_);
  return snapshot_.has_value();
}

uint64_t ResilientReader::snapshot_generation() const {
  MutexLock lock(&mutex_);
  return snapshot_.has_value() ? snapshot_->generation : 0;
}

Status ResilientReader::RangeQuery(const PreparedQuery& query,
                                   RawDistance theta_raw,
                                   QueryControl* control,
                                   std::vector<RankingId>* out,
                                   Statistics* stats) {
  out->clear();
  MutexLock lock(&mutex_);
  if (control != nullptr && control->ShouldStop()) {
    return StopStatus(*control, "range query", stats);
  }
  // The failpoint stands in for the unscriptable hardware fault: a cold
  // mmap page whose backing device died surfaces here, on first touch,
  // not at open time. Degradation is sticky — one fault means the
  // mapping cannot be trusted for any later page either.
  if (snapshot_.has_value() && TOPK_FAILPOINT("serve.snapshot.query")) {
    degraded_ = true;
    snapshot_.reset();  // drop the failing mapping
  }
  bool answered;
  if (snapshot_.has_value()) {
    answered = RangeSearch(snapshot_->snapshot.store(),
                           snapshot_->snapshot.index(), query.view(), theta_raw,
                           DropMode::kNone, &filter_, &validator_, out, stats,
                           control);
  } else {
    if (degraded_) AddTicker(stats, Ticker::kDegradedReads);
    // No index survives on the RAM tier (the compressed postings lived
    // in the dropped mapping), so the fallback validates every row:
    // slower, never wrong, and alive — which is the whole point.
    answered = RangeSearch(*ram_store_, AllRows{}, query.view(), theta_raw,
                           DropMode::kNone, &filter_, &validator_, out, stats,
                           control);
  }
  return answered ? Status::OK() : StopStatus(*control, "range query", stats);
}

std::vector<RankingId> ResilientReader::RangeQuery(const PreparedQuery& query,
                                                   RawDistance theta_raw,
                                                   Statistics* stats) {
  std::vector<RankingId> out;
  const Status status = RangeQuery(query, theta_raw, nullptr, &out, stats);
  TOPK_DCHECK(status.ok());  // no deadline, no fault surfaces as a status
  return out;
}

}  // namespace topk
