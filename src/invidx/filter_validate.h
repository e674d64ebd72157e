// Filter & Validate (F&V) query processing over an inverted index
// (Section 4), optionally with posting-list dropping (F&V+Drop,
// Section 6.1).
//
// The engine is a thin owner of per-query scratch (visited set,
// candidate list, rank table) around the kernel RangeSearch
// (kernel/range_search.h): FilterPhase unions the query items' posting
// lists, the batched FootruleValidator checks each candidate's exact
// distance, and at theta >= dmax every row is validated instead (a
// ranking disjoint from the query sits at exactly dmax and appears in no
// posting list). The template runs over the plain CSR index
// (FilterValidateEngine) and the storage tier's compressed/mmap index
// (storage::CompressedFilterValidateEngine) alike; one instance serves
// any number of sequential queries without allocation churn.

#ifndef TOPK_INVIDX_FILTER_VALIDATE_H_
#define TOPK_INVIDX_FILTER_VALIDATE_H_

#include <vector>

#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "invidx/drop_policy.h"
#include "invidx/plain_inverted_index.h"
#include "kernel/filter_phase.h"
#include "kernel/footrule_batch.h"
#include "kernel/range_search.h"

namespace topk {

struct FilterValidateOptions {
  DropMode drop = DropMode::kNone;
};

template <typename Index>
class BasicFilterValidateEngine {
 public:
  /// `store` and `index` must outlive the engine.
  BasicFilterValidateEngine(const RankingStore* store, const Index* index,
                            FilterValidateOptions options = {})
      : store_(store), index_(index), options_(options) {
    filter_.visited.EnsureCapacity(store->size());
    validator_.EnsureItemCapacity(
        store->empty() ? 0 : static_cast<size_t>(store->max_item()) + 1);
  }

  /// All rankings within raw distance `theta_raw` of the query, in
  /// ascending id order.
  std::vector<RankingId> Query(const PreparedQuery& query,
                               RawDistance theta_raw,
                               Statistics* stats = nullptr) {
    return Run(*index_, query, theta_raw, stats);
  }

  /// Query restricted to ids in [id_lo, id_hi]: the filter phase clips
  /// each id-sorted list to the range (a compressed index skips whole
  /// blocks on metadata alone) before merging. Results are identical to
  /// Query() filtered to the id range.
  std::vector<RankingId> QueryIdRange(const PreparedQuery& query,
                                      RawDistance theta_raw, RankingId id_lo,
                                      RankingId id_hi,
                                      Statistics* stats = nullptr) {
    return Run(IdRange<Index>{index_, id_lo, id_hi}, query, theta_raw, stats);
  }

 private:
  template <typename Source>
  std::vector<RankingId> Run(const Source& source, const PreparedQuery& query,
                             RawDistance theta_raw, Statistics* stats) {
    TOPK_DCHECK(query.k() == store_->k());
    std::vector<RankingId> results;
    RangeSearch(*store_, source, query.view(), theta_raw, options_.drop,
                &filter_, &validator_, &results, stats);
    return results;
  }

  const RankingStore* store_;
  const Index* index_;
  FilterValidateOptions options_;
  FilterScratch filter_;
  FootruleValidator validator_;
};

using FilterValidateEngine = BasicFilterValidateEngine<PlainInvertedIndex>;

}  // namespace topk

#endif  // TOPK_INVIDX_FILTER_VALIDATE_H_
