// k-nearest-neighbour queries over the ranking indexes.
//
// The paper evaluates range queries only, but its related-work section
// frames KNN as the sibling problem and every structure here supports it
// naturally: best-first search with a shrinking distance bound. The
// result is the j rankings closest to the query (ties broken by id), with
// the same exactness guarantees as the range API.
//
// All searchers share the contract: results sorted by (distance, id),
// exactly min(j, n) entries.

#ifndef TOPK_METRIC_KNN_H_
#define TOPK_METRIC_KNN_H_

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "core/ranking.h"
#include "core/statistics.h"
#include "core/types.h"
#include "metric/bk_tree.h"
#include "metric/m_tree.h"

namespace topk {

struct Neighbor {
  RankingId id;
  RawDistance distance;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

/// Bounded best-j set over (distance, id) pairs: a max-heap whose top is
/// the current worst admitted neighbour. Offer order does not matter —
/// (distance, id) is a total order, so ties resolve exactly as a full
/// sort would.
class NeighborHeap {
 public:
  explicit NeighborHeap(size_t capacity) : capacity_(capacity) {}

  bool full() const { return heap_.size() == capacity_; }

  /// Worst admitted distance; infinite while not full.
  RawDistance Bound() const {
    return full() ? heap_.front().distance
                  : std::numeric_limits<RawDistance>::max();
  }

  void Offer(RankingId id, RawDistance distance) {
    if (capacity_ == 0) return;
    const Neighbor candidate{id, distance};
    if (!full()) {
      heap_.push_back(candidate);
      std::push_heap(heap_.begin(), heap_.end(), Less);
      return;
    }
    if (Less(candidate, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), Less);
      heap_.back() = candidate;
      std::push_heap(heap_.begin(), heap_.end(), Less);
    }
  }

  /// The admitted neighbours sorted by (distance, id).
  std::vector<Neighbor> Finish() && {
    std::sort(heap_.begin(), heap_.end(), Less);
    return std::move(heap_);
  }

 private:
  static bool Less(const Neighbor& a, const Neighbor& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
  }

  size_t capacity_;
  std::vector<Neighbor> heap_;  // max-heap under Less
};

/// Exhaustive baseline (and differential-test oracle).
std::vector<Neighbor> LinearScanKnn(const RankingStore& store,
                                    const PreparedQuery& query, size_t j,
                                    Statistics* stats = nullptr);

/// BK-tree KNN: depth-first traversal keeping the j best seen; a subtree
/// is entered only while |d(q, node) - edge| can still beat the current
/// j-th best distance. Degenerates to a full scan when j >= n.
std::vector<Neighbor> BkTreeKnn(const BkTree& tree,
                                const PreparedQuery& query, size_t j,
                                Statistics* stats = nullptr);

/// M-tree KNN: best-first descent ordered by the optimistic subtree bound
/// max(0, d(q, routing) - radius), pruned against the current j-th best.
std::vector<Neighbor> MTreeKnn(const MTree& tree, const PreparedQuery& query,
                               size_t j, Statistics* stats = nullptr);

}  // namespace topk

#endif  // TOPK_METRIC_KNN_H_
