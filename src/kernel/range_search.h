// The range pipeline, once: choose candidates, validate them, tick, stop.
//
// The paper's serving algorithm is one pipeline — filter with the
// inverted index (the posting-list union), then validate each candidate
// by its exact Footrule distance. RangeSearch is that pipeline for every
// caller in the library: the F&V engines (plain CSR and compressed/mmap
// index alike), each MutableStore segment (with its tombstones as the
// keep predicate), both ResilientReader tiers (the RAM tier is the
// no-index AllRows source) and the QueryFrontend's candidate-cache path
// (a memoized union as a CandidateSpan source).
//
// Steps, in order:
//  1. candidates: every row when theta admits rankings disjoint from the
//     query (PostingUnionCoversAnswer is false — they sit at exactly dmax
//     and appear in no posting list) or the source has no index; else
//     the source's own candidates (FilterPhase, FilterPhaseIdRange, or a
//     precomputed span);
//  2. the keep predicate drops candidates BEFORE validation (a dead row
//     never costs a distance call); kCandidates ticks what survives;
//  3. one batched FootruleValidator pass;
//  4. the stop rule: a control that stopped (polled at entry and inside
//     validation) discards the partial answer — `out` is cleared and
//     false returned; the caller maps that to a Status (StopStatus in
//     core/deadline.h). Otherwise results come back in ascending id
//     order and kResults ticks.
//
// Scratch (FilterScratch, FootruleValidator) is caller-owned, so the hot
// path never allocates and each caller keeps its own locking discipline.

#ifndef TOPK_KERNEL_RANGE_SEARCH_H_
#define TOPK_KERNEL_RANGE_SEARCH_H_

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>
#include <type_traits>
#include <vector>

#include "core/deadline.h"
#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "kernel/filter_phase.h"
#include "kernel/footrule_batch.h"

namespace topk {

/// Candidate source with no index: every row is a candidate.
struct AllRows {};

/// Candidate source: a precomputed superset of the answer below dmax
/// (the frontend's memoized posting union).
struct CandidateSpan {
  std::span<const RankingId> ids;
};

/// Candidate source: `index` restricted to ids in [lo, hi] (the
/// block-skipping sweep of FilterPhaseIdRange).
template <typename Index>
struct IdRange {
  const Index* index;
  RankingId lo;
  RankingId hi;
};

/// Keep predicate that keeps every candidate.
struct KeepAll {
  constexpr bool operator()(RankingId /*id*/) const { return true; }
};

/// Whether a posting union is a superset of the answer at `theta_raw`:
/// true below dmax, where a ranking sharing no item with the query is
/// out of range. At theta >= dmax those disjoint rankings qualify and no
/// posting list holds them, so every row must be validated.
inline bool PostingUnionCoversAnswer(RawDistance theta_raw, uint32_t k) {
  return theta_raw < MaxDistance(k);
}

namespace range_detail {

template <typename Source>
inline constexpr bool kIsIdRange = false;
template <typename Index>
inline constexpr bool kIsIdRange<IdRange<Index>> = true;

/// Ids lo..hi (inclusive, clipped to the store) into the scratch list.
inline std::span<const RankingId> RowsInRange(size_t n, RankingId lo,
                                              RankingId hi,
                                              FilterScratch* scratch) {
  const size_t end = std::min<size_t>(n, size_t{hi} + 1);
  scratch->candidates.resize(lo < end ? end - lo : 0);
  std::iota(scratch->candidates.begin(), scratch->candidates.end(), lo);
  return scratch->candidates;
}

template <typename Source>
std::span<const RankingId> Candidates(const RankingStore& store,
                                      const Source& source, RankingView query,
                                      RawDistance theta_raw, DropMode drop,
                                      FilterScratch* scratch,
                                      Statistics* stats) {
  const size_t n = store.size();
  if (std::is_same_v<Source, AllRows> ||
      !PostingUnionCoversAnswer(theta_raw, store.k())) {
    if constexpr (kIsIdRange<Source>) {
      return RowsInRange(n, source.lo, source.hi, scratch);
    }
    return RowsInRange(n, 0, std::numeric_limits<RankingId>::max(), scratch);
  }
  if constexpr (kIsIdRange<Source>) {
    return FilterPhaseIdRange(*source.index, query, theta_raw, drop, source.lo,
                              source.hi, n, scratch, stats);
  } else if constexpr (std::is_same_v<Source, CandidateSpan>) {
    return source.ids;
  } else if constexpr (!std::is_same_v<Source, AllRows>) {
    return FilterPhase(source, query, theta_raw, drop, n, scratch, stats);
  }
  return {};  // AllRows: handled above
}

}  // namespace range_detail

/// All rows of `store` within `theta_raw` of `query` among `source`'s
/// candidates that `keep` admits, into `out` in ascending id order.
/// `source` is an index (anything FilterPhase accepts), IdRange, AllRows
/// or CandidateSpan; `drop` applies to index sources. Returns false —
/// with `out` cleared — when `control` stopped the query.
template <typename Source, typename Keep = KeepAll>
bool RangeSearch(const RankingStore& store, const Source& source,
                 RankingView query, RawDistance theta_raw, DropMode drop,
                 FilterScratch* scratch, FootruleValidator* validator,
                 std::vector<RankingId>* out, Statistics* stats,
                 QueryControl* control = nullptr, const Keep& keep = {}) {
  out->clear();
  if (control == nullptr || !control->ShouldStop()) {
    std::span<const RankingId> candidates = range_detail::Candidates(
        store, source, query, theta_raw, drop, scratch, stats);
    if constexpr (!std::is_same_v<Keep, KeepAll>) {
      std::vector<RankingId>& kept = scratch->candidates;
      if (candidates.data() != kept.data()) {
        kept.assign(candidates.begin(), candidates.end());
      }
      std::erase_if(kept, [&keep](RankingId id) { return !keep(id); });
      candidates = kept;
    }
    AddTicker(stats, Ticker::kCandidates, candidates.size());
    validator->BindQuery(query, static_cast<size_t>(store.max_item()) + 1);
    validator->ValidateSpan(store, candidates, theta_raw, out, stats, control);
  }
  if (control != nullptr && control->stopped()) {
    out->clear();
    return false;
  }
  // Filter order is first-encounter; all-rows and sorted spans are
  // already ascending and skip the sort.
  if (!std::is_sorted(out->begin(), out->end())) {
    std::sort(out->begin(), out->end());
  }
  AddTicker(stats, Ticker::kResults, out->size());
  return true;
}

}  // namespace topk

#endif  // TOPK_KERNEL_RANGE_SEARCH_H_
