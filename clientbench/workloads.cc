#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>

#include "core/deadline.h"
#include "core/ranking.h"
#include "core/rng.h"
#include "core/statistics.h"
#include "core/status.h"
#include "core/types.h"
#include "data/generator.h"
#include "data/workload.h"
#include "harness/query_algorithms.h"
#include "invidx/plain_inverted_index.h"
#include "kernel/filter_phase.h"
#include "kernel/footrule_batch.h"
#include "metric/knn.h"
#include "metric/linear_scan.h"
#include "mutate/mutable_store.h"
#include "serve/frontend.h"
#include "serve/live_frontend.h"
#include "serve/resilient_reader.h"
#include "storage/compressed_arena.h"
#include "storage/compressed_index.h"
#include "storage/snapshot.h"
#include "storage/snapshot_manager.h"
#include "trace.h"

namespace clientbench {

using topk::Algorithm;
using topk::Deadline;
using topk::DropMode;
using topk::LiveFrontend;
using topk::MutableStore;
using topk::Neighbor;
using topk::PreparedQuery;
using topk::QueryControl;
using topk::QueryFrontend;
using topk::RankingId;
using topk::RankingStore;
using topk::RawDistance;
using topk::ResilientReader;
using topk::ServeRequest;
using topk::ServeResponse;
using topk::Statistics;
using topk::Status;
using topk::Ticker;

namespace {

constexpr uint32_t kK = 10;
constexpr double kThetas[] = {0.1, 0.2, 0.3};
/// Neighbours per live k-NN read.
constexpr size_t kKnnJ = 10;
/// Zipf exponent of the re-issued queries (live workload).
constexpr double kRepeatZipfS = 1.0;
constexpr double kMiB = 1024.0 * 1024.0;
/// The ROADMAP's reconciliation rule: per-layer self times plus waits
/// must land within 10% of the end-to-end median.
constexpr double kMaxReconcileGap = 0.10;
/// Consecutive windows the untraced run's time is split into; its client
/// metrics are medians across them.
constexpr size_t kWindows = 3;
/// Alternating rounds of the traced run's single-client and loaded phases.
constexpr size_t kTracedRounds = 4;
/// Pause between a reader's requests in the measured phases. With none,
/// the library's mutexes (std::mutex, which is not fair) hand the lock
/// straight back to the client that released it: 3 of 4 static and
/// snapshot clients waited out a whole phase and failed their deadline.
/// 50 us is short against every request that holds a lock for long, and
/// long enough for a woken waiter to take the lock. The traced run also
/// runs a zero-think phase and reports how starved its readers were
/// (serve.zero_think_min_share), so the unfairness stays visible.
constexpr int64_t kThinkUs = 50;
/// Length of that zero-think phase: shorter than the read deadline, so a
/// starved reader's one pending request cannot outwait it.
constexpr double kZeroThinkSeconds = 0.5;
constexpr size_t kMaxCapturedPerClient = 512;
/// The stored corpora are fixed, as the paper's NYT and Yago corpora are;
/// the run's seed draws everything sent to them (queries, thresholds,
/// inserted rows, deleted ids). A NYT-like corpus's cost depends on its
/// few huge duplicate clusters, so a per-seed corpus made runs of one
/// workload differ by up to 30% in throughput.
constexpr uint64_t kNytCorpusSeed = 1;
constexpr uint64_t kYagoCorpusSeed = 2;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Span names: the public entry point each span wraps.
constexpr char kServeBatch[] = "serve.QueryFrontend.ServeBatch";
constexpr char kEngineQuery[] = "invidx.QueryEngine.Query";
constexpr char kFilterPhase[] = "kernel.FilterPhase";
constexpr char kValidator[] = "kernel.FootruleValidator";
constexpr char kLiveRange[] = "serve.LiveFrontend.ServeRange";
constexpr char kLiveKnn[] = "serve.LiveFrontend.ServeKnn";
constexpr char kStoreRange[] = "mutate.MutableStore.RangeQuery";
constexpr char kStoreKnn[] = "mutate.MutableStore.KnnQuery";
constexpr char kStoreInsert[] = "mutate.MutableStore.Insert";
constexpr char kStoreDelete[] = "mutate.MutableStore.Delete";
constexpr char kReaderRange[] = "serve.ResilientReader.RangeQuery";
constexpr char kStorageFilter[] = "storage.FilterPhase";

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double S(int64_t ns) { return static_cast<double>(ns) / 1e9; }

std::optional<double> Known(double value) {
  if (std::isnan(value)) return std::nullopt;
  return value;
}

double RatioOr(double num, double den) {
  return den > 0 ? num / den : kNaN;
}

/// Peak resident set of this process (VmHWM), MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return kNaN;
}

enum class Outcome { kOk, kStopped, kShed, kError };

Outcome Classify(const Status& status) {
  switch (status.code()) {
    case Status::Code::kOk:
      return Outcome::kOk;
    case Status::Code::kDeadlineExceeded:
    case Status::Code::kAborted:
      return Outcome::kStopped;
    case Status::Code::kUnavailable:
      return Outcome::kShed;
    default:
      return Outcome::kError;
  }
}

struct QueryPool {
  std::vector<PreparedQuery> queries;
  std::vector<RawDistance> theta_raw;
};

QueryPool MakePool(const RankingStore& store, const WorkloadConfig& config,
                   const RunOptions& run) {
  const uint64_t seed = run.seed;
  topk::WorkloadOptions options;
  options.num_queries =
      config.pool_size +
      static_cast<size_t>(config.pool_per_second * run.seconds);
  options.seed = topk::MixId64(seed ^ 0x51ed2701u);
  options.repeat_fraction = config.repeat_fraction;
  options.repeat_zipf_s = kRepeatZipfS;
  QueryPool pool{topk::MakeWorkload(store, options), {}};
  topk::Rng rng(topk::MixId64(seed ^ 0x7e7a0001u));
  pool.theta_raw.reserve(pool.queries.size());
  for (size_t i = 0; i < pool.queries.size(); ++i) {
    pool.theta_raw.push_back(topk::RawThreshold(kThetas[rng.Below(3)], kK));
  }
  return pool;
}

/// Builds the program's store from the generated rows through the checked
/// public Add path: the store construction that set-up pays.
RankingStore BuildStore(const RankingStore& rows) {
  RankingStore store(rows.k());
  store.Reserve(rows.size());
  for (RankingId id = 0; id < rows.size(); ++id) {
    if (!store.Add(rows.view(id).items()).ok()) {
      throw std::runtime_error("generated row rejected by RankingStore::Add");
    }
  }
  return store;
}

/// Counts the layer's work over the replays of one phase.
struct KernelCounts {
  uint64_t replays = 0;
  uint64_t candidates = 0;
  uint64_t results = 0;
  uint64_t postings = 0;
  uint64_t distance_calls = 0;
  uint64_t blocks_decoded = 0;
  int64_t validate_ns = 0;

  void MergeFrom(const KernelCounts& o) {
    replays += o.replays;
    candidates += o.candidates;
    results += o.results;
    postings += o.postings;
    distance_calls += o.distance_calls;
    blocks_decoded += o.blocks_decoded;
    validate_ns += o.validate_ns;
  }
};

/// What one phase measured, summed over its clients.
struct PhaseSamples {
  std::vector<double> range_ms, knn_ms, write_ms, lag_ms;
  std::vector<double> delta_rows, tombstones, knn_distance_calls;
  uint64_t ok_reads = 0;
  uint64_t reads = 0;
  double inflight_sum = 0;
  Statistics stats;
  KernelCounts kernel;
  double wall_s = 0;
  /// The fewest reads a reader completed OK, over the mean per reader.
  double min_reader_share = 0;

  void MergeFrom(PhaseSamples&& o) {
    auto append = [](std::vector<double>* to, std::vector<double>* from) {
      to->insert(to->end(), from->begin(), from->end());
    };
    append(&range_ms, &o.range_ms);
    append(&knn_ms, &o.knn_ms);
    append(&write_ms, &o.write_ms);
    append(&lag_ms, &o.lag_ms);
    append(&delta_rows, &o.delta_rows);
    append(&tombstones, &o.tombstones);
    append(&knn_distance_calls, &o.knn_distance_calls);
    ok_reads += o.ok_reads;
    reads += o.reads;
    inflight_sum += o.inflight_sum;
    stats.MergeFrom(o.stats);
    kernel.MergeFrom(o.kernel);
  }
};

struct Captured {
  size_t query = 0;
  std::vector<RankingId> ids;
};

/// A served request waiting to be replayed one layer down.
struct PendingReplay {
  Phase phase = Phase::kSingle;
  size_t query = 0;
  bool knn = false;
  uint64_t root = 0;     // the served request's span
  uint64_t request = 0;  // its request id
  bool served = false;   // it returned OK
  std::vector<RankingId> ids;  // its answer, where the replay checks it
};

/// One client thread's state. Owned by exactly one thread while a phase
/// runs; merged by the coordinator after the join.
struct Client {
  explicit Client(uint32_t index) : log(index) {}

  SpanLog log;
  PhaseSamples cur;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t stopped = 0;
  uint64_t shed = 0;
  uint64_t mismatches = 0;
  uint64_t seq = 0;
  std::vector<Captured> captured;
  std::vector<PendingReplay> pending;
  // Replay scratch.
  std::unique_ptr<topk::QueryEngine> engine;
  topk::FilterScratch filter;
  topk::FootruleValidator validator;
  std::vector<RankingId> ids, replay_ids;
  std::vector<Neighbor> neighbors, replay_neighbors;

  /// Counts one operation; failed ones get +inf latency (they miss every
  /// latency limit). Returns whether it succeeded.
  bool Count(const Status& status, std::vector<double>* latency_ms,
             int64_t ns) {
    ++attempted;
    const Outcome outcome = Classify(status);
    if (outcome == Outcome::kStopped) ++stopped;
    if (outcome == Outcome::kShed) ++shed;
    if (outcome != Outcome::kOk) ++failed;
    if (latency_ms != nullptr) {
      latency_ms->push_back(outcome == Outcome::kOk
                                ? Ms(ns)
                                : std::numeric_limits<double>::infinity());
    }
    return outcome == Outcome::kOk;
  }

  void Mismatch() {
    ++mismatches;
    ++failed;
  }
};

/// Corrupts an answer for the benchmark's own tests.
void Corrupt(std::vector<RankingId>* ids) {
  ids->push_back(ids->empty() ? 0 : ids->back() + 1);
}
void Corrupt(std::vector<Neighbor>* neighbors) {
  neighbors->push_back(Neighbor{0, 0});
}

/// The workload-specific half of a run. RunWorkload owns the phases.
class Workload {
 public:
  explicit Workload(const WorkloadConfig& config, const RunOptions& options)
      : config_(config), options_(options) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the inputs (not timed).
  virtual void MakeInputs() = 0;
  /// One set-up of the program: the timed part of set-up. Called
  /// setup_reps times; the last instance serves.
  virtual void SetupOnce() = 0;
  /// Untimed preparation of the traced replay path.
  virtual void PrepareReplays(std::vector<std::unique_ptr<Client>>*) {}
  /// One closed-loop read. When `traced`, it records the request's span
  /// and queues the request in client->pending for its replay, unless the
  /// result cache answered it (then it never went down the chain).
  virtual void Read(Client* client, bool traced) = 0;
  /// Sends a queued request's input through the entry point one layer
  /// down, records the child spans under its root span and counts the
  /// layers' work into `into`.
  virtual void Replay(Client* client, const PendingReplay& pending,
                      PhaseSamples* into) = 0;
  /// Called once before a round's replays run.
  virtual void BeforeReplays() {}
  virtual bool has_writer() const { return false; }
  /// The open-loop writer of the loaded phase (live only).
  virtual void WriterLoop(Client*, int64_t, int64_t, bool) {}
  /// A single-client write (live only).
  virtual void WriteOnce(Client*, bool) {}
  /// One paired no-control / far-deadline measurement: t_far / t_none.
  virtual double DeadlinePair(size_t pair) = 0;
  /// Checks the seeded answer sample; counts into `report`.
  virtual void CheckAnswers(std::vector<std::unique_ptr<Client>>* clients,
                            RunReport* report) = 0;
  /// The request roots and the span chain below each, for reconciliation.
  virtual std::vector<std::vector<const char*>> Chains() const = 0;
  /// Workload-specific per-layer metrics.
  virtual void LayerMetrics(const LayerTimes& single, const LayerTimes& loaded,
                            const PhaseSamples& single_samples,
                            const PhaseSamples& traced,
                            RunReport* report) = 0;

 protected:
  size_t NextQuery() {
    return cursor_.fetch_add(1, std::memory_order_relaxed) %
           pool_.queries.size();
  }
  uint64_t NextRequest() {
    return next_request_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Seeded choice of pool queries whose served answers are kept.
  bool ShouldCapture(size_t query) const {
    return topk::MixId64(options_.seed * 0x9e37u + query) % 16 == 0;
  }
  /// t_far / t_none of one pair; `run(with_deadline)` returns a call's
  /// nanoseconds. Odd pairs run the far-deadline call first, so order
  /// effects cancel across pairs.
  template <typename Run>
  static double PairedRatio(size_t pair, Run run) {
    const bool far_first = pair % 2 == 1;
    const int64_t first = run(far_first);
    const int64_t second = run(!far_first);
    const int64_t far = far_first ? first : second;
    const int64_t none = far_first ? second : first;
    return static_cast<double>(far) / static_cast<double>(none);
  }
  Deadline ReadDeadline() const {
    return Deadline::AfterMillis(config_.deadline_ms);
  }
  /// Compares one checked answer; returns whether it matched.
  template <typename Answer>
  bool Compare(Answer got, const Answer& expected) {
    ++compared_;
    if (config_.corrupt_every > 0 && compared_ % config_.corrupt_every == 0) {
      Corrupt(&got);
    }
    return got == expected;
  }
  /// Checks the answers kept during the timed window against a linear
  /// scan of `store` (the static and snapshot workloads).
  void CheckCaptured(const RankingStore& store,
                     std::vector<std::unique_ptr<Client>>* clients,
                     RunReport* report);

  const WorkloadConfig& config_;
  const RunOptions& options_;
  QueryPool pool_;

 private:
  std::atomic<size_t> cursor_{0};
  std::atomic<uint64_t> next_request_{1};
  size_t compared_ = 0;
};

void Workload::CheckCaptured(const RankingStore& store,
                             std::vector<std::unique_ptr<Client>>* clients,
                             RunReport* report) {
  std::vector<Captured> all;
  for (auto& client : *clients) {
    for (Captured& c : client->captured) all.push_back(std::move(c));
    client->captured.clear();
  }
  // A seeded shuffle of everything captured, so the sample spans the
  // warm-up and every measured phase (the query cursor runs in order).
  std::sort(all.begin(), all.end(),
            [](const Captured& a, const Captured& b) {
              return a.query < b.query;
            });
  topk::Rng(topk::MixId64(options_.seed ^ 0x5a3b1eu)).Shuffle(&all);
  if (all.size() > config_.check_sample) all.resize(config_.check_sample);
  for (Captured& c : all) {
    const std::vector<RankingId> expected = topk::LinearScanQuery(
        store, pool_.queries[c.query], pool_.theta_raw[c.query]);
    ++report->checked;
    if (!Compare(std::move(c.ids), expected)) ++report->mismatches;
  }
  if (all.empty()) report->notes.push_back("no answer was captured to check");
}

}  // namespace

// ---------------------------------------------------------------------------
// nyt_static_range: QueryFrontend (F&V) over an immutable NYT-like store.

namespace {

class StaticRange : public Workload {
 public:
  using Workload::Workload;

  void MakeInputs() override {
    rows_ = topk::Generate(topk::NytLikeOptions(config_.rows, kK, kNytCorpusSeed));
    pool_ = MakePool(rows_, config_, options_);
  }

  void SetupOnce() override {
    frontend_.reset();
    store_ = BuildStore(rows_);
    topk::QueryFrontendOptions options;
    options.num_threads = 4;
    frontend_ = std::make_unique<QueryFrontend>(&store_, options);
    frontend_->Prepare(Algorithm::kFV);
  }

  void PrepareReplays(std::vector<std::unique_ptr<Client>>* clients) override {
    plain_ = &frontend_->suite().plain_index();
    for (auto& client : *clients) {
      client->engine = frontend_->suite().MakeEngine(Algorithm::kFV);
    }
  }

  void Read(Client* c, bool traced) override {
    const size_t qi = NextQuery();
    ServeRequest request = ServeRequest::Range(Algorithm::kFV, pool_.queries[qi],
                                               pool_.theta_raw[qi]);
    c->cur.inflight_sum += static_cast<double>(frontend_->inflight_batches());
    request.deadline = ReadDeadline();
    const uint64_t rid = NextRequest();
    const uint64_t hits = c->cur.stats.Get(Ticker::kResultCacheHits);
    const int64_t t0 = NowNs();
    std::vector<ServeResponse> responses = frontend_->ServeBatch(
        std::span<const ServeRequest>(&request, 1), &c->cur.stats);
    const int64_t t1 = NowNs();
    ++c->cur.reads;
    ServeResponse& response = responses.front();
    const bool ok = c->Count(response.status, &c->cur.range_ms, t1 - t0);
    if (ok) ++c->cur.ok_reads;
    if (traced) {
      const uint64_t root = c->log.Record(kServeBatch, 0, rid, t0, t1);
      if (c->cur.stats.Get(Ticker::kResultCacheHits) == hits) {
        c->pending.push_back({c->log.phase(), qi, false, root, rid, ok, response.ids});
      }
    }
    if (ok && ShouldCapture(qi) && c->captured.size() < kMaxCapturedPerClient) {
      c->captured.push_back(Captured{qi, std::move(response.ids)});
    }
  }

  double DeadlinePair(size_t pair) override {
    const size_t qi = NextQuery();
    auto run = [&](bool with_deadline) {
      frontend_->InvalidateCaches();
      ServeRequest request = ServeRequest::Range(
          Algorithm::kFV, pool_.queries[qi], pool_.theta_raw[qi]);
      if (with_deadline) request.deadline = ReadDeadline();
      const int64_t t0 = NowNs();
      frontend_->ServeBatch(std::span<const ServeRequest>(&request, 1));
      return NowNs() - t0;
    };
    return PairedRatio(pair, run);
  }

  void CheckAnswers(std::vector<std::unique_ptr<Client>>* clients,
                    RunReport* report) override {
    CheckCaptured(store_, clients, report);
  }

  std::vector<std::vector<const char*>> Chains() const override {
    return {{kServeBatch, kEngineQuery, kFilterPhase, kValidator}};
  }

  void LayerMetrics(const LayerTimes& single, const LayerTimes&,
                    const PhaseSamples& single_samples, const PhaseSamples&,
                    RunReport* report) override {
    const KernelCounts& k = single_samples.kernel;
    report->metrics.push_back(
        {"invidx.fv_query_us", Known(MedianOf(single.duration_us, kEngineQuery)), "us"});
    report->metrics.push_back(
        {"invidx.index_mb", plain_->MemoryUsage() / kMiB, "MiB"});
    report->metrics.push_back(
        {"kernel.filter_us", Known(MedianOf(single.duration_us, kFilterPhase)), "us"});
    report->metrics.push_back(
        {"kernel.validate_ns_per_candidate",
         Known(static_cast<double>(k.validate_ns) /
               static_cast<double>(k.candidates)),
         "ns"});
  }

  void Replay(Client* c, const PendingReplay& p, PhaseSamples* into) override {
    const PreparedQuery& query = pool_.queries[p.query];
    const RawDistance theta = pool_.theta_raw[p.query];
    Statistics engine_stats, filter_stats, validate_stats;
    const int64_t e0 = NowNs();
    std::vector<RankingId> engine_ids =
        c->engine->Query(query, theta, &engine_stats);
    const int64_t e1 = NowNs();
    const std::span<const RankingId> candidates =
        topk::FilterPhase(*plain_, query.view(), theta, DropMode::kNone,
                          store_.size(), &c->filter, &filter_stats);
    const int64_t f1 = NowNs();
    c->replay_ids.clear();
    c->validator.BindQuery(query.view(),
                           static_cast<size_t>(store_.max_item()) + 1);
    c->validator.ValidateSpan(store_, candidates, theta, &c->replay_ids,
                              &validate_stats);
    const int64_t v1 = NowNs();
    const uint64_t engine_span =
        c->log.Record(kEngineQuery, p.root, p.request, e0, e1);
    c->log.Record(kFilterPhase, engine_span, p.request, e1, f1);
    c->log.Record(kValidator, engine_span, p.request, f1, v1);
    KernelCounts& k = into->kernel;
    ++k.replays;
    k.candidates += candidates.size();
    k.results += c->replay_ids.size();
    k.postings += filter_stats.Get(Ticker::kPostingEntriesScanned);
    k.distance_calls += engine_stats.Get(Ticker::kDistanceCalls);
    k.validate_ns += v1 - f1;
    // The replay doubles as a check of the served answer.
    if (p.served && engine_ids != p.ids) c->Mismatch();
  }

 private:
  RankingStore rows_{kK};
  RankingStore store_{kK};
  std::unique_ptr<QueryFrontend> frontend_;
  const topk::PlainInvertedIndex* plain_ = nullptr;
};

}  // namespace

// ---------------------------------------------------------------------------
// yago_live_mixed: LiveFrontend over a MutableStore with a merging writer.

namespace {

class LiveMixed : public Workload {
 public:
  using Workload::Workload;

  ~LiveMixed() override {
    // The store's mutation listener points into the frontend: destroy
    // the store first.
    store_.reset();
    frontend_.reset();
  }

  void MakeInputs() override {
    base_ = topk::Generate(topk::YagoLikeOptions(config_.rows, kK, kYagoCorpusSeed));
    pool_ = MakePool(base_, config_, options_);
    // Fresh rows for the inserts: Yago-like, over the base item domain.
    const double write_seconds = options_.seconds * 1.5 + 10.0;
    topk::GeneratorOptions fresh = topk::YagoLikeOptions(
        static_cast<uint32_t>(config_.write_rate * write_seconds) + 1024, kK,
        topk::MixId64(options_.seed ^ 0xf7e54u));
    fresh.domain = topk::YagoLikeOptions(config_.rows, kK).domain;
    fresh_ = topk::Generate(fresh);
  }

  void SetupOnce() override {
    store_.reset();
    frontend_.reset();
    topk::MutableStoreOptions options;
    options.merge_threshold = config_.merge_threshold;
    store_ = std::make_unique<MutableStore>(BuildStore(base_), options);
    frontend_ = std::make_unique<LiveFrontend>(store_.get());
    // The benchmark's own mirror of the store's rows, by global id.
    rows_ = base_;
    rows_.Reserve(base_.size() + fresh_.size());
    alive_.resize(base_.size());
    for (size_t i = 0; i < alive_.size(); ++i) {
      alive_[i] = static_cast<RankingId>(i);
    }
    next_fresh_ = 0;
    writes_ = 0;
    rng_ = topk::Rng(topk::MixId64(options_.seed ^ 0xde1e7eu));
    last_delta_ = 0;
    seals_ = 0;
  }

  void Read(Client* c, bool traced) override {
    const bool knn = c->seq++ % 2 == 1;
    const size_t qi = NextQuery();
    const PreparedQuery& query = pool_.queries[qi];
    const RawDistance theta = pool_.theta_raw[qi];
    c->cur.inflight_sum += static_cast<double>(frontend_->inflight());
    QueryControl control(ReadDeadline());
    const uint64_t rid = NextRequest();
    const uint64_t hits = c->cur.stats.Get(Ticker::kResultCacheHits);
    const int64_t t0 = NowNs();
    const Status status =
        knn ? frontend_->ServeKnn(query, kKnnJ, &control,
                                  &c->neighbors, &c->cur.stats)
            : frontend_->ServeRange(query, theta, &control, &c->ids,
                                    &c->cur.stats);
    const int64_t t1 = NowNs();
    ++c->cur.reads;
    const bool ok =
        c->Count(status, knn ? &c->cur.knn_ms : &c->cur.range_ms, t1 - t0);
    if (ok) ++c->cur.ok_reads;
    if (!traced) return;
    const uint64_t root = c->log.Record(knn ? kLiveKnn : kLiveRange, 0, rid, t0, t1);
    if (c->cur.stats.Get(Ticker::kResultCacheHits) != hits) return;
    c->pending.push_back({c->log.phase(), qi, knn, root, rid, ok, {}});
    c->cur.delta_rows.push_back(static_cast<double>(store_->delta_size()));
    c->cur.tombstones.push_back(static_cast<double>(store_->tombstone_count()));
  }

  /// A merge still rebuilding when the phases end would run beside the
  /// replays and slow them.
  void BeforeReplays() override { WaitMergeIdle(); }

  void Replay(Client* c, const PendingReplay& p, PhaseSamples* into) override {
    const PreparedQuery& query = pool_.queries[p.query];
    QueryControl control(ReadDeadline());
    Statistics stats;
    const int64_t r0 = NowNs();
    const Status replayed =
        p.knn ? store_->KnnQuery(query, kKnnJ, &control, &c->replay_neighbors,
                                 &stats)
              : store_->RangeQuery(query, pool_.theta_raw[p.query], &control,
                                   &c->replay_ids, &stats);
    const int64_t r1 = NowNs();
    c->log.Record(p.knn ? kStoreKnn : kStoreRange, p.root, p.request, r0, r1);
    c->Count(replayed, nullptr, 0);
    if (p.knn) {
      into->knn_distance_calls.push_back(
          static_cast<double>(stats.Get(Ticker::kDistanceCalls)));
    }
  }

  bool has_writer() const override { return true; }

  void WriterLoop(Client* c, int64_t start_ns, int64_t end_ns,
                  bool traced) override {
    const double period_ns = 1e9 / config_.write_rate;
    for (uint64_t k = 0;; ++k) {
      const int64_t due =
          start_ns + static_cast<int64_t>(static_cast<double>(k) * period_ns);
      if (due >= end_ns) break;
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
      c->cur.lag_ms.push_back(Ms(NowNs() - due));
      Write(c, traced, due);  // timed from when it was due
    }
  }

  void WriteOnce(Client* c, bool traced) override {
    Write(c, traced, NowNs());
  }

  double DeadlinePair(size_t pair) override {
    const size_t qi = NextQuery();
    const bool knn = (pair / 2) % 2 == 1;
    std::vector<RankingId> ids;
    std::vector<Neighbor> neighbors;
    auto run = [&](bool with_deadline) {
      frontend_->InvalidateCaches();
      QueryControl control(ReadDeadline());
      QueryControl* ctl = with_deadline ? &control : nullptr;
      const int64_t t0 = NowNs();
      if (knn) {
        frontend_->ServeKnn(pool_.queries[qi], kKnnJ, ctl, &neighbors);
      } else {
        frontend_->ServeRange(pool_.queries[qi], pool_.theta_raw[qi], ctl, &ids);
      }
      return NowNs() - t0;
    };
    return PairedRatio(pair, run);
  }

  void CheckAnswers(std::vector<std::unique_ptr<Client>>*,
                    RunReport* report) override {
    WaitMergeIdle();
    // The reference: a store rebuilt from the alive rows in global-id order.
    std::vector<RankingId> alive = alive_;
    std::sort(alive.begin(), alive.end());
    RankingStore reference(kK);
    reference.Reserve(alive.size());
    for (const RankingId id : alive) reference.AddUnchecked(rows_.view(id).items());
    if (store_->live_size() != alive.size()) {
      ++report->mismatches;
      report->notes.push_back("live_size() disagrees with the writes sent");
    }
    topk::Rng rng(topk::MixId64(options_.seed ^ 0xc4ec4u));
    for (size_t i = 0; i < 2 * config_.check_sample; ++i) {
      const size_t qi = rng.Below(pool_.queries.size());
      const PreparedQuery& query = pool_.queries[qi];
      QueryControl control(ReadDeadline());
      ++report->attempted;
      ++report->checked;
      Status status;
      bool match = false;
      if (i % 2 == 0) {
        std::vector<RankingId> got;
        status = frontend_->ServeRange(query, pool_.theta_raw[qi], &control, &got);
        std::vector<RankingId> expected =
            topk::LinearScanQuery(reference, query, pool_.theta_raw[qi]);
        for (RankingId& id : expected) id = alive[id];
        match = Compare(std::move(got), expected);
      } else {
        std::vector<Neighbor> got;
        status = frontend_->ServeKnn(query, kKnnJ, &control, &got);
        std::vector<Neighbor> expected =
            topk::LinearScanKnn(reference, query, kKnnJ);
        for (Neighbor& n : expected) n.id = alive[n.id];
        match = Compare(std::move(got), expected);
      }
      if (!status.ok()) {
        ++report->failed;
        if (Classify(status) == Outcome::kStopped) ++report->stopped;
        if (Classify(status) == Outcome::kShed) ++report->shed;
      } else if (!match) {
        ++report->mismatches;
      }
    }
  }

  std::vector<std::vector<const char*>> Chains() const override {
    return {{kLiveRange, kStoreRange}, {kLiveKnn, kStoreKnn}};
  }

  void LayerMetrics(const LayerTimes& single, const LayerTimes& loaded,
                    const PhaseSamples&, const PhaseSamples& traced,
                    RunReport* report) override {
    auto at = [](const LayerTimes& t, const char* name) {
      return MedianOf(t.duration_us, name);
    };
    // A read's wait: its loaded minus its single-client self time above
    // the replayed store call. LiveFrontend takes no lock of its own, so
    // this is the wait for the store mutex.
    auto wait = [&](const char* root) {
      return MedianOf(loaded.self_us, root) - MedianOf(single.self_us, root);
    };
    const double insert_us = at(single, kStoreInsert);
    report->metrics.push_back({"mutate.range_us", Known(at(single, kStoreRange)), "us"});
    report->metrics.push_back({"mutate.knn_us", Known(at(single, kStoreKnn)), "us"});
    report->metrics.push_back({"mutate.insert_us", Known(insert_us), "us"});
    report->metrics.push_back(
        {"mutate.delete_us", Known(at(single, kStoreDelete)), "us"});
    report->metrics.push_back({"mutate.wait_us", Known(wait(kLiveRange)), "us"});
    report->metrics.push_back({"mutate.knn_wait_us", Known(wait(kLiveKnn)), "us"});
    report->metrics.push_back(
        {"mutate.write_wait_us", Known(at(loaded, kStoreInsert) - insert_us), "us"});
    report->metrics.push_back({"mutate.knn_distance_calls_per_query",
                               Known(Mean(traced.knn_distance_calls)), "count"});
    report->metrics.push_back(
        {"mutate.merge_cycles", static_cast<double>(seals_), "count"});
    report->metrics.push_back(
        {"mutate.delta_rows_mean", Known(Mean(traced.delta_rows)), "rows"});
    report->metrics.push_back(
        {"mutate.tombstones_mean", Known(Mean(traced.tombstones)), "rows"});
    report->metrics.push_back({"bench.writer_lag_p99_ms",
                               Known(Percentile(traced.lag_ms, 0.99)), "ms"});
  }

 private:
  /// One write, 3 inserts per delete of a uniformly chosen live id.
  /// Records write_ms (from `timed_from`) and the store call's span.
  void Write(Client* c, bool traced, int64_t timed_from) {
    const bool remove = writes_++ % 4 == 3 && !alive_.empty();
    bool ok = true;
    int64_t t0 = 0;
    int64_t t1 = 0;
    if (remove) {
      const size_t pick = rng_.Below(alive_.size());
      const RankingId id = alive_[pick];
      alive_[pick] = alive_.back();
      alive_.pop_back();
      t0 = NowNs();
      ok = store_->Delete(id);
      t1 = NowNs();
    } else {
      const topk::RankingView row =
          fresh_.view(static_cast<RankingId>(next_fresh_++ % fresh_.size()));
      t0 = NowNs();
      const RankingId id = store_->Insert(row);
      t1 = NowNs();
      ok = id == rows_.size();
      rows_.AddUnchecked(row.items());
      alive_.push_back(id);
    }
    c->Count(ok ? Status::OK() : Status::FailedPrecondition("write failed"),
             &c->cur.write_ms, t1 - timed_from);
    if (traced) {
      c->log.Record(remove ? kStoreDelete : kStoreInsert, 0, NextRequest(), t0, t1);
      // A seal moves the delta aside: observed as a drop in delta_size().
      const size_t delta = store_->delta_size();
      if (delta < last_delta_) ++seals_;
      last_delta_ = delta;
    }
  }

  /// Waits until no merge runs: the generation holds still for longer
  /// than a rebuild takes (a rebuild ends by bumping it) and the delta is
  /// below the merge threshold.
  void WaitMergeIdle() {
    int stable = 0;
    for (int i = 0; i < 400 && stable < 8; ++i) {
      const uint64_t generation = store_->generation();
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      const bool idle = generation == store_->generation() &&
                        store_->delta_size() < config_.merge_threshold;
      stable = idle ? stable + 1 : 0;
    }
  }

  RankingStore base_{kK};
  RankingStore fresh_{kK};
  std::unique_ptr<LiveFrontend> frontend_;
  std::unique_ptr<MutableStore> store_;
  // Writer state: touched only by the thread that writes in a phase.
  RankingStore rows_{kK};
  std::vector<RankingId> alive_;
  size_t next_fresh_ = 0;
  uint64_t writes_ = 0;
  size_t last_delta_ = 0;
  uint64_t seals_ = 0;
  topk::Rng rng_{0x5eed};
};

}  // namespace

// ---------------------------------------------------------------------------
// nyt_snapshot_range: ResilientReader over a recovered snapshot generation.

namespace {

class SnapshotRange : public Workload {
 public:
  using Workload::Workload;

  ~SnapshotRange() override {
    reader_.reset();
    snapshot_.reset();
  }

  void MakeInputs() override {
    rows_ = topk::Generate(topk::NytLikeOptions(config_.rows, kK, kNytCorpusSeed));
    pool_ = MakePool(rows_, config_, options_);
  }

  void SetupOnce() override {
    reader_.reset();
    store_ = BuildStore(rows_);
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
    dir_ = options_.work_dir + "/snapshot-" + std::to_string(reps_++);
    std::filesystem::remove_all(dir_);
    const topk::PlainInvertedIndex plain = topk::PlainInvertedIndex::Build(store_);
    const auto arena =
        topk::storage::CompressedPostingArena<RankingId>::FromArena(plain.arena());
    topk::storage::SnapshotManager manager(dir_);
    const int64_t w0 = NowNs();
    const Status written = manager.WriteSnapshot(store_, arena);
    const int64_t w1 = NowNs();
    if (!written.ok()) {
      throw std::runtime_error("snapshot write: " + written.ToString());
    }
    reader_ = std::make_unique<ResilientReader>(
        &store_, topk::ResilientReaderOptions{dir_, 3});
    const int64_t o0 = NowNs();
    const Status opened = reader_->OpenSnapshotTier();
    const int64_t o1 = NowNs();
    if (!opened.ok()) {
      throw std::runtime_error("snapshot open: " + opened.ToString());
    }
    write_s_.push_back(S(w1 - w0));
    open_s_.push_back(S(o1 - o0));
    index_mb_ = plain.MemoryUsage() / kMiB;
    // An opened snapshot adopts the mapped arena and owns no heap bytes,
    // so the encoding's size is read off the arena that was written.
    bytes_per_entry_ = static_cast<double>(arena.MemoryUsage()) /
                       static_cast<double>(arena.num_entries());
  }

  void PrepareReplays(std::vector<std::unique_ptr<Client>>*) override {
    // The replay path's own view of the generation the reader opened.
    const std::string path = topk::storage::SnapshotManager(dir_).GenerationPath(
        reader_->snapshot_generation());
    auto opened = topk::storage::OpenStoreSnapshot(path);
    if (!opened.ok()) {
      throw std::runtime_error("snapshot reopen: " + opened.status().ToString());
    }
    snapshot_ = std::make_unique<topk::storage::StoreSnapshot>(
        std::move(opened).ValueOrDie());
    resident_mb_ = snapshot_->ResidentBytes() / kMiB;
  }

  void Read(Client* c, bool traced) override {
    const size_t qi = NextQuery();
    QueryControl control(ReadDeadline());
    const uint64_t rid = NextRequest();
    const int64_t t0 = NowNs();
    const Status status = reader_->RangeQuery(
        pool_.queries[qi], pool_.theta_raw[qi], &control, &c->ids, &c->cur.stats);
    const int64_t t1 = NowNs();
    ++c->cur.reads;
    const bool ok = c->Count(status, &c->cur.range_ms, t1 - t0);
    if (ok) ++c->cur.ok_reads;
    if (traced) {
      const uint64_t root = c->log.Record(kReaderRange, 0, rid, t0, t1);
      c->pending.push_back({c->log.phase(), qi, false, root, rid, ok, c->ids});
    }
    if (ok && ShouldCapture(qi) && c->captured.size() < kMaxCapturedPerClient) {
      c->captured.push_back(Captured{qi, std::move(c->ids)});
    }
  }

  double DeadlinePair(size_t pair) override {
    const size_t qi = NextQuery();
    std::vector<RankingId> ids;
    auto run = [&](bool with_deadline) {
      QueryControl control(ReadDeadline());
      const int64_t t0 = NowNs();
      reader_->RangeQuery(pool_.queries[qi], pool_.theta_raw[qi],
                          with_deadline ? &control : nullptr, &ids);
      return NowNs() - t0;
    };
    return PairedRatio(pair, run);
  }

  void CheckAnswers(std::vector<std::unique_ptr<Client>>* clients,
                    RunReport* report) override {
    CheckCaptured(store_, clients, report);
    if (reader_->degraded()) {
      report->notes.push_back("the reader degraded to the RAM tier");
    }
  }

  std::vector<std::vector<const char*>> Chains() const override {
    return {{kReaderRange, kStorageFilter, kValidator}};
  }

  void LayerMetrics(const LayerTimes& single, const LayerTimes&,
                    const PhaseSamples& single_samples, const PhaseSamples&,
                    RunReport* report) override {
    const KernelCounts& k = single_samples.kernel;
    report->metrics.push_back(
        {"invidx.index_mb", index_mb_, "MiB"});
    report->metrics.push_back(
        {"kernel.validate_ns_per_candidate",
         Known(static_cast<double>(k.validate_ns) /
               static_cast<double>(k.candidates)),
         "ns"});
    report->metrics.push_back(
        {"storage.snapshot_write_s", Known(Median(write_s_)), "s"});
    report->metrics.push_back({"storage.open_s", Known(Median(open_s_)), "s"});
    report->metrics.push_back(
        {"storage.resident_mb_after_open", resident_mb_, "MiB"});
    report->metrics.push_back(
        {"storage.bytes_per_entry", bytes_per_entry_, "B"});
    report->metrics.push_back(
        {"storage.filter_us", Known(MedianOf(single.duration_us, kStorageFilter)),
         "us"});
  }

  void Replay(Client* c, const PendingReplay& p, PhaseSamples* into) override {
    const PreparedQuery& query = pool_.queries[p.query];
    const RawDistance theta = pool_.theta_raw[p.query];
    const RankingStore& store = snapshot_->store();
    Statistics filter_stats, validate_stats;
    const int64_t f0 = NowNs();
    const std::span<const RankingId> candidates =
        topk::FilterPhase(snapshot_->index(), query.view(), theta,
                          DropMode::kNone, store.size(), &c->filter,
                          &filter_stats);
    const int64_t f1 = NowNs();
    c->replay_ids.clear();
    c->validator.BindQuery(query.view(),
                           static_cast<size_t>(store.max_item()) + 1);
    c->validator.ValidateSpan(store, candidates, theta, &c->replay_ids,
                              &validate_stats);
    const int64_t v1 = NowNs();
    c->log.Record(kStorageFilter, p.root, p.request, f0, f1);
    c->log.Record(kValidator, p.root, p.request, f1, v1);
    KernelCounts& k = into->kernel;
    ++k.replays;
    k.candidates += candidates.size();
    k.results += c->replay_ids.size();
    k.postings += filter_stats.Get(Ticker::kPostingEntriesScanned);
    k.distance_calls += validate_stats.Get(Ticker::kDistanceCalls);
    k.blocks_decoded += filter_stats.Get(Ticker::kBlocksDecoded);
    k.validate_ns += v1 - f1;
    std::sort(c->replay_ids.begin(), c->replay_ids.end());
    if (p.served && c->replay_ids != p.ids) c->Mismatch();
  }

 private:
  RankingStore rows_{kK};
  RankingStore store_{kK};
  std::unique_ptr<ResilientReader> reader_;
  std::unique_ptr<topk::storage::StoreSnapshot> snapshot_;
  std::string dir_;
  size_t reps_ = 0;
  std::vector<double> write_s_, open_s_;
  double index_mb_ = 0;
  double bytes_per_entry_ = 0;
  double resident_mb_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// The run: phases, answer check, metrics.

namespace {

/// Runs `readers` closed-loop clients for `seconds` (plus, when
/// `with_writer`, the workload's open-loop writer on the last client).
/// With `inline_writes` the single reader also writes, once per two reads.
/// Readers pause `think_us` between requests. A `traced` phase records
/// spans and queues its requests for ReplayRound.
PhaseSamples RunPhase(Workload* workload,
                      std::vector<std::unique_ptr<Client>>* clients,
                      size_t readers, double seconds, Phase phase, bool traced,
                      bool with_writer, bool inline_writes, int64_t think_us) {
  for (auto& client : *clients) {
    client->cur = PhaseSamples{};
    client->log.set_phase(phase);
  }
  const bool writer = with_writer && workload->has_writer();
  std::atomic<bool> go{false};
  std::atomic<int64_t> last_end{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  auto guarded = [&](auto&& body) {
    try {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body();
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
    const int64_t now = NowNs();
    int64_t seen = last_end.load();
    while (seen < now && !last_end.compare_exchange_weak(seen, now)) {
    }
  };
  std::vector<std::thread> threads;
  for (size_t i = 0; i < readers; ++i) {
    Client* client = (*clients)[i].get();
    threads.emplace_back([&, client] {
      guarded([&] {
        for (uint64_t n = 0; NowNs() < end_ns; ++n) {
          workload->Read(client, traced);
          if (think_us > 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(think_us));
          }
          if (inline_writes && workload->has_writer() && n % 2 == 1) {
            workload->WriteOnce(client, traced);
          }
        }
      });
    });
  }
  if (writer) {
    Client* client = clients->back().get();
    threads.emplace_back([&, client] {
      guarded([&] {
        workload->WriterLoop(client, start_ns, end_ns, traced);
      });
    });
  }
  start_ns = NowNs();
  end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  PhaseSamples merged;
  double fewest = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < readers; ++i) {
    fewest = std::min(fewest, static_cast<double>((*clients)[i]->cur.ok_reads));
  }
  for (auto& client : *clients) merged.MergeFrom(std::move(client->cur));
  merged.min_reader_share = RatioOr(fewest * static_cast<double>(readers),
                                    static_cast<double>(merged.ok_reads));
  merged.wall_s = S(last_end.load() - start_ns);
  return merged;
}

/// Replays the requests queued in one round of the traced run's
/// single-client and loaded phases, after their clients stopped and one at
/// a time: a replay then neither waits for a lock nor competes for a core
/// with served requests, so it measures what the layers below cost, and
/// the traced phase keeps the untraced phase's load. The served request's
/// extra time over its replay is the frontend's overhead plus its wait.
/// The two phases' replays alternate in proportion, so a drift in machine
/// speed while they run moves both alike.
void ReplayRound(Workload* workload,
                 std::vector<std::unique_ptr<Client>>* clients,
                 PhaseSamples* single, PhaseSamples* loaded) {
  struct Item {
    double position;  // in (0, 1) within its phase's replays
    Client* client;
    const PendingReplay* pending;
  };
  std::vector<Item> items;
  for (const Phase phase : {Phase::kSingle, Phase::kLoaded}) {
    std::vector<std::pair<Client*, const PendingReplay*>> queued;
    for (auto& client : *clients) {
      for (const PendingReplay& p : client->pending) {
        if (p.phase == phase) queued.emplace_back(client.get(), &p);
      }
    }
    for (size_t i = 0; i < queued.size(); ++i) {
      items.push_back({(static_cast<double>(i) + 0.5) /
                           static_cast<double>(queued.size()),
                       queued[i].first, queued[i].second});
    }
  }
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) {
                     return a.position < b.position;
                   });
  workload->BeforeReplays();
  for (const Item& item : items) {
    item.client->log.set_phase(item.pending->phase);
    workload->Replay(item.client, *item.pending,
                     item.pending->phase == Phase::kSingle ? single : loaded);
  }
  for (auto& client : *clients) client->pending.clear();
}

/// Client-view metrics over the measured windows: each rate and
/// percentile is computed per window and the median across windows is
/// reported, so one stalled window does not set a run's figure.
void AddClientMetrics(const std::vector<PhaseSamples>& windows, double setup_s,
                      std::vector<Metric>* out) {
  auto across = [&](auto per_window) {
    std::vector<double> values;
    for (const PhaseSamples& w : windows) values.push_back(per_window(w));
    return Known(Median(values));
  };
  auto percentile = [&](std::vector<double> PhaseSamples::*field, double q) {
    return across([&](const PhaseSamples& w) { return Percentile(w.*field, q); });
  };
  auto total = [&](std::vector<double> PhaseSamples::*field) {
    size_t n = 0;
    for (const PhaseSamples& w : windows) n += (w.*field).size();
    return static_cast<double>(n);
  };
  out->push_back({"setup_s", Known(setup_s), "s"});
  out->push_back({"read_qps", across([](const PhaseSamples& w) {
                    return RatioOr(static_cast<double>(w.ok_reads), w.wall_s);
                  }),
                  "1/s"});
  out->push_back({"range_p50_ms", percentile(&PhaseSamples::range_ms, 0.50), "ms"});
  out->push_back({"range_p90_ms", percentile(&PhaseSamples::range_ms, 0.90), "ms"});
  out->push_back({"range_p99_ms", percentile(&PhaseSamples::range_ms, 0.99), "ms"});
  out->push_back({"knn_p50_ms", percentile(&PhaseSamples::knn_ms, 0.50), "ms"});
  out->push_back({"knn_p99_ms", percentile(&PhaseSamples::knn_ms, 0.99), "ms"});
  out->push_back({"write_p50_ms", percentile(&PhaseSamples::write_ms, 0.50), "ms"});
  out->push_back({"write_p99_ms", percentile(&PhaseSamples::write_ms, 0.99), "ms"});
  out->push_back({"range_samples", total(&PhaseSamples::range_ms), "count"});
  out->push_back({"knn_samples", total(&PhaseSamples::knn_ms), "count"});
  out->push_back({"write_samples", total(&PhaseSamples::write_ms), "count"});
  out->push_back({"windows", static_cast<double>(windows.size()), "count"});
}

std::unique_ptr<Workload> MakeWorkloadFor(const WorkloadConfig& config,
                                          const RunOptions& options) {
  switch (config.kind) {
    case WorkloadKind::kStaticRange:
      return std::make_unique<StaticRange>(config, options);
    case WorkloadKind::kLiveMixed:
      return std::make_unique<LiveMixed>(config, options);
    case WorkloadKind::kSnapshotRange:
      return std::make_unique<SnapshotRange>(config, options);
  }
  throw std::invalid_argument("unknown workload kind");
}

/// Removes the run's work directory on every exit path.
struct WorkDirGuard {
  explicit WorkDirGuard(std::string dir) : dir(std::move(dir)) {
    if (!this->dir.empty()) std::filesystem::create_directories(this->dir);
  }
  ~WorkDirGuard() {
    std::error_code ignored;
    if (!dir.empty()) std::filesystem::remove_all(dir, ignored);
  }
  WorkDirGuard(const WorkDirGuard&) = delete;
  WorkDirGuard& operator=(const WorkDirGuard&) = delete;
  std::string dir;
};

size_t Nproc() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

std::optional<double> RunReport::Get(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return std::nullopt;
}

std::vector<std::string> WorkloadNames() {
  return {"nyt_static_range", "yago_live_mixed", "nyt_snapshot_range"};
}

std::optional<WorkloadConfig> ConfigFor(const std::string& name) {
  WorkloadConfig config;
  config.name = name;
  if (name == "nyt_static_range" || name == "nyt_snapshot_range") {
    config.kind = name == "nyt_static_range" ? WorkloadKind::kStaticRange
                                             : WorkloadKind::kSnapshotRange;
    config.rows = 200000;
    config.readers = std::min<size_t>(4, Nproc());
    config.pool_size = 10000;
    config.pool_per_second = 2500;
    return config;
  }
  if (name == "yago_live_mixed") {
    config.kind = WorkloadKind::kLiveMixed;
    config.rows = 100000;
    // One thread is the writer; client threads never outnumber cores.
    config.readers = std::clamp<size_t>(Nproc() - 1, 1, 3);
    config.pool_size = 20000;
    config.repeat_fraction = 0.5;
    config.write_rate = 200.0;
    config.merge_threshold = 256;
    return config;
  }
  return std::nullopt;
}

RunReport RunWorkload(const WorkloadConfig& config, const RunOptions& options) {
  const WorkDirGuard work_dir(
      config.kind == WorkloadKind::kSnapshotRange ? options.work_dir : "");
  RunReport report;
  std::unique_ptr<Workload> workload = MakeWorkloadFor(config, options);
  workload->MakeInputs();

  std::vector<double> setup_s;
  for (size_t rep = 0; rep < std::max<size_t>(1, config.setup_reps); ++rep) {
    const int64_t t0 = NowNs();
    workload->SetupOnce();
    setup_s.push_back(S(NowNs() - t0));
  }

  std::vector<std::unique_ptr<Client>> clients;
  for (size_t i = 0; i <= config.readers; ++i) {
    clients.push_back(std::make_unique<Client>(static_cast<uint32_t>(i)));
  }
  if (options.trace) workload->PrepareReplays(&clients);

  const double warmup_s = std::clamp(0.15 * options.seconds, 0.2, 2.0);
  RunPhase(workload.get(), &clients, config.readers, warmup_s, Phase::kLoaded,
           false, true, false, kThinkUs);

  if (!options.trace) {
    std::vector<PhaseSamples> windows;
    for (size_t w = 0; w < kWindows; ++w) {
      windows.push_back(RunPhase(workload.get(), &clients, config.readers,
                                 options.seconds / kWindows, Phase::kLoaded,
                                 false, true, false, kThinkUs));
    }
    AddClientMetrics(windows, Median(setup_s), &report.metrics);
  } else {
    std::vector<double> ratios;
    const int64_t pairs_end =
        NowNs() + static_cast<int64_t>(std::max(1.0, 0.1 * options.seconds) * 1e9);
    for (size_t i = 0; i < config.deadline_pairs && NowNs() < pairs_end; ++i) {
      ratios.push_back(workload->DeadlinePair(i));
    }
    const PhaseSamples loaded =
        RunPhase(workload.get(), &clients, config.readers,
                 0.4 * options.seconds, Phase::kLoaded, false, true, false,
                 kThinkUs);
    // The reconciliation compares what the layers cost in the two phases;
    // alternating them in rounds keeps drift in machine speed and store
    // state out of that comparison.
    PhaseSamples single, traced;
    for (size_t round = 0; round < kTracedRounds; ++round) {
      PhaseSamples round_single =
          RunPhase(workload.get(), &clients, 1,
                   0.2 * options.seconds / kTracedRounds, Phase::kSingle, true,
                   false, true, 0);
      PhaseSamples round_loaded =
          RunPhase(workload.get(), &clients, config.readers,
                   0.4 * options.seconds / kTracedRounds, Phase::kLoaded, true,
                   true, false, kThinkUs);
      ReplayRound(workload.get(), &clients, &round_single, &round_loaded);
      single.MergeFrom(std::move(round_single));
      traced.MergeFrom(std::move(round_loaded));
    }
    const PhaseSamples zero_think =
        RunPhase(workload.get(), &clients, config.readers, kZeroThinkSeconds,
                 Phase::kLoaded, false, true, false, 0);
    AddClientMetrics({loaded}, Median(setup_s), &report.metrics);

    std::vector<const SpanLog*> logs;
    for (const auto& client : clients) logs.push_back(&client->log);
    const LayerTimes single_times = CollectLayerTimes(logs, Phase::kSingle);
    const LayerTimes loaded_times = CollectLayerTimes(logs, Phase::kLoaded);

    double worst_gap = 0;
    std::vector<double> root_self_loaded;
    for (const std::vector<const char*>& chain : workload->Chains()) {
      const double gap = ReconcileGap(single_times, loaded_times, chain);
      worst_gap = std::isnan(gap) ? gap : std::max(worst_gap, gap);
      if (std::isnan(gap)) break;
      const auto it = loaded_times.self_us.find(chain.front());
      if (it != loaded_times.self_us.end()) {
        root_self_loaded.insert(root_self_loaded.end(), it->second.begin(),
                                it->second.end());
      }
    }
    report.reconciled = !std::isnan(worst_gap) && worst_gap <= kMaxReconcileGap;
    if (!report.reconciled) {
      report.notes.push_back("per-layer medians do not reconcile with the "
                             "end-to-end median");
    }

    const bool snapshot = config.kind == WorkloadKind::kSnapshotRange;
    KernelCounts k = single.kernel;
    k.MergeFrom(traced.kernel);
    const double replays = static_cast<double>(k.replays);
    const Statistics& s = traced.stats;
    std::vector<Metric>& m = report.metrics;
    m.push_back({"serve.overhead_us", Known(Median(root_self_loaded)), "us"});
    m.push_back({"serve.inflight_at_arrival",
                 snapshot ? std::nullopt
                          : Known(RatioOr(traced.inflight_sum,
                                          static_cast<double>(traced.reads))),
                 "count"});
    m.push_back({"serve.result_cache_hit_ratio",
                 Known(RatioOr(
                     static_cast<double>(s.Get(Ticker::kResultCacheHits)),
                     static_cast<double>(s.Get(Ticker::kResultCacheHits) +
                                         s.Get(Ticker::kResultCacheMisses)))),
                 "ratio"});
    m.push_back({"serve.stopped_ratio",
                 Known(RatioOr(
                     static_cast<double>(s.Get(Ticker::kDeadlineExceeded) +
                                         s.Get(Ticker::kLoadShed)),
                     static_cast<double>(traced.reads))),
                 "ratio"});
    m.push_back({"serve.deadline_overhead_ratio", Known(Median(ratios)), "ratio"});
    m.push_back({"serve.deadline_overhead_iqr", Known(Iqr(ratios)), "ratio"});
    m.push_back({"serve.deadline_pairs", static_cast<double>(ratios.size()), "count"});
    m.push_back({"serve.zero_think_min_share", Known(zero_think.min_reader_share),
                 "ratio"});
    m.push_back({"kernel.candidates_per_query",
                 Known(RatioOr(static_cast<double>(k.candidates), replays)), "count"});
    m.push_back({"kernel.postings_scanned_per_query",
                 Known(RatioOr(static_cast<double>(k.postings), replays)), "count"});
    m.push_back({"kernel.results_per_candidate",
                 Known(RatioOr(static_cast<double>(k.results),
                               static_cast<double>(k.candidates))),
                 "ratio"});
    m.push_back({"kernel.distance_calls_per_query",
                 Known(RatioOr(static_cast<double>(k.distance_calls), replays)),
                 "count"});
    m.push_back({"storage.blocks_decoded_per_query",
                 snapshot ? Known(RatioOr(static_cast<double>(k.blocks_decoded),
                                          replays))
                          : std::nullopt,
                 "count"});
    workload->LayerMetrics(single_times, loaded_times, single, traced, &report);
    m.push_back({"bench.trace_overhead_ratio",
                 Known(RatioOr(Percentile(traced.range_ms, 0.5),
                               Percentile(loaded.range_ms, 0.5))),
                 "ratio"});
    m.push_back({"bench.reconcile_gap", Known(worst_gap), "ratio"});
    if (!options.spans_path.empty() && !WriteSpans(options.spans_path, logs)) {
      report.notes.push_back("could not write spans to " + options.spans_path);
    }
  }

  workload->CheckAnswers(&clients, &report);
  for (const auto& client : clients) {
    report.attempted += client->attempted;
    report.failed += client->failed;
    report.stopped += client->stopped;
    report.shed += client->shed;
  }
  // Mismatches found by the answer check; the replay-time ones are already
  // in the clients' failed counts.
  report.failed += report.mismatches;
  for (const auto& client : clients) report.mismatches += client->mismatches;
  report.metrics.push_back({"peak_rss_mb", Known(PeakRssMb()), "MiB"});
  report.metrics.push_back(
      {"error_rate",
       Known(RatioOr(static_cast<double>(report.failed),
                     static_cast<double>(report.attempted))),
       "ratio"});
  return report;
}

std::vector<std::pair<std::string, std::string>> BuildInfo() {
  return {{"build_type", CLIENTBENCH_BUILD_TYPE},
          {"cxx_flags", CLIENTBENCH_CXX_FLAGS},
          {"compiler", CLIENTBENCH_COMPILER},
          {"nproc", std::to_string(Nproc())}};
}

}  // namespace clientbench
