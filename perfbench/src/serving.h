#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "corpus/corpus.h"
#include "loadgen/workload.h"
#include "store/database.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// Operations attempted and failed across a run; feeds ok_ratio and the
/// result line's attempted / failed counts. Output checks count too.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log

  void Add(bool ok, const std::string& what = "");
  /// Counts `ops` operations of which `failed_ops` failed.
  void AddMany(uint64_t ops, uint64_t failed_ops);
  /// Keeps a failure description (the first few) without counting it.
  void Note(const std::string& what);
};

/// The serving deployment under test: the standard 6000-article /
/// 16000-tweet world in a store, and an Engine whose index generations
/// persist under a directory the benchmark owns.
struct ServingSystem {
  newsdiff::store::Database db;
  /// Serializes store writes against the refresher's BuildIndex (the
  /// Engine leaves this to its caller; see core/engine.h).
  std::mutex db_mu;
  std::unique_ptr<newsdiff::Engine> engine;
  std::vector<std::string> titles;  // article titles: editor drafts
  double build_ms = 0.0;            // the set-up BuildIndex
  int64_t next_id = 50'000'000;     // external ids for written documents
};

/// World generation + store load + first BuildIndex.
std::unique_ptr<ServingSystem> SetUpServing(const std::string& index_dir,
                                            Tally& tally);

/// News + tweet documents in the store.
size_t StoreDocs(ServingSystem& sys);

/// Corpora rebuilt from the store through the public collection and
/// preprocessing calls, exactly as BuildIndex tokenizes them.
struct Corpora {
  newsdiff::corpus::Corpus news;
  newsdiff::corpus::Corpus tweets;
};
Corpora LoadCorpora(ServingSystem& sys);

/// Output check: the pinned snapshot's TopK answers for each query equal
/// index::BruteForceTopK over `corpora` (which must match the snapshot),
/// scores bit for bit. One tally entry per query.
void CheckTopK(ServingSystem& sys, const Corpora& corpora,
               const std::vector<std::string>& tweet_queries,
               size_t tweet_k, const std::vector<std::string>& news_queries,
               size_t news_k, Tally& tally);

/// Per-request samples of one open-loop phase.
struct OpenLoopResult {
  /// Completion minus scheduled arrival, per op class, in ms. A failed,
  /// refused or skipped request is +infinity.
  std::array<std::vector<double>, newsdiff::loadgen::kNumOpClasses> latency_ms;
  /// Completion minus dispatch (the request's own service time), per op
  /// class, in ms; +infinity when it failed.
  std::array<std::vector<double>, newsdiff::loadgen::kNumOpClasses> service_ms;
  /// Dispatch minus scheduled arrival for every dispatched request, ms.
  std::vector<double> lateness_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;    // errors and failed output checks
  double achieved_ratio = 0.0;  // scheduled span / elapsed span, capped at 1
  double achieved_rate = 0.0;   // requests sent / elapsed seconds
  /// Median lateness of the last quarter of requests (by schedule) minus
  /// that of the first quarter: positive when a backlog builds.
  double lateness_growth_ms = 0.0;
  bool aborted = false;
  SpanLog spans;  // store.lock_wait / store.insert, when traced
};

struct OpenLoopOptions {
  /// A request dispatched this late aborts the phase; the rest are
  /// skipped (counted as missing every limit).
  double abort_lateness_ms = 5000.0;
  bool trace = false;
};

/// Replays `trace` open loop with kRequestWorkers workers and k =
/// kOpenLoopK: workers sleep until each request's scheduled time, so a
/// stall makes later requests late rather than fewer.
OpenLoopResult RunOpenLoop(ServingSystem& sys,
                           const std::vector<newsdiff::loadgen::Request>& trace,
                           const OpenLoopOptions& options, Tally& tally);

/// Closed loop, one client: sends requests[i % n] in order, in blocks of
/// `block` requests, until at least one block was sent and `seconds` have
/// passed. Each block is sent `repeats` times over, and a request's sample
/// is the fastest of its calls, in ms (+infinity when one failed). A
/// block's other requests run between two calls of one request, so each
/// call meets caches as cold as a single call would. With `calls`, also
/// appends every call's own time.
std::vector<double> RunClosedLoop(
    ServingSystem& sys, const std::vector<newsdiff::loadgen::Request>& requests,
    size_t k, size_t repeats, size_t block, double seconds, Tally& tally,
    SpanLog& log, std::vector<double>* calls = nullptr);

/// One rung tried by the max_rate_at_slo search.
struct LadderStep {
  size_t rung = 0;
  double rate = 0.0;
  bool ok = false;
  std::string why;  // first violated condition
  // p99 of completion minus scheduled arrival (queueing included).
  double trending_p99_ms = 0.0;
  double predict_p99_ms = 0.0;
  double write_p99_ms = 0.0;
  // p99 of service time (dispatch to completion): what the SLO limits.
  double trending_service_p99_ms = 0.0;
  double predict_service_p99_ms = 0.0;
  double achieved_ratio = 0.0;
  double achieved_rate = 0.0;  // req/s the window actually completed
  double lateness_growth_ms = 0.0;
  double lateness_p99_ms = 0.0;
};

struct LadderResult {
  /// Throughput the highest passing rung achieved (0: none passed).
  double max_rate = 0.0;
  std::vector<LadderStep> steps;
  LadderStep best;  // the highest passing rung's step
};

/// The max_rate_at_slo search: bisects the fixed rate ladder (rungs
/// kLadderGrowth apart) for the highest rung where both read classes hold
/// a service-time p99 <= kSloP99Ms, achieved/offered >= kSloMinAchieved,
/// and lateness does not grow (no backlog). When the bisection converges,
/// the failed rung just above the best is tried once more with fresh
/// traces; if it passes, the search goes on above it, up to the next rung
/// that failed. So a host stall that fails one rung costs one more rung,
/// not the upper half of the ladder. Stepwise, so a run can interleave it
/// with other measurements.
class LadderSearch {
 public:
  LadderSearch(ServingSystem& sys, uint64_t seed, const OpMix& mix,
               double window_seconds, Tally& tally);

  bool done() const;
  /// Decides one rung (one or two windows).
  void Step();
  const LadderResult& result() const { return result_; }

 private:
  /// Decides `rung` from windows `attempt` and, when that fails,
  /// `attempt + 1`.
  LadderStep DecideRung(size_t rung, uint64_t attempt);
  LadderStep TryRung(size_t rung, uint64_t attempt);

  ServingSystem& sys_;
  uint64_t seed_;
  OpMix mix_;
  double window_seconds_;
  Tally& tally_;
  // Bisection over rung indexes: lo_ passed (or -1), hi_ failed (or one
  // past the top). The rung set is fixed, so every machine and commit
  // searches the same rates and traces.
  long lo_ = -1;
  long hi_ = static_cast<long>(kLadderRungs);
  std::set<long> failed_;     // rungs judged failed
  std::set<long> rechecked_;  // failed rungs tried once more
  LadderResult result_;
};

/// Background index refresher: waits `pause_seconds` after each rebuild
/// finishes, then runs BuildIndex while holding the store lock.
class Refresher {
 public:
  Refresher(ServingSystem& sys, double pause_seconds, Tally& tally);
  ~Refresher();
  Refresher(const Refresher&) = delete;
  Refresher& operator=(const Refresher&) = delete;

  /// Stops after the rebuild in progress (if any), joins, and enters the
  /// rebuilds into the tally.
  void Stop();

  /// Valid after Stop().
  const std::vector<double>& build_ms() const { return build_ms_; }
  const std::vector<double>& hold_ms() const { return hold_ms_; }

 private:
  void Loop();

  ServingSystem& sys_;
  double pause_seconds_;
  Tally& tally_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> build_ms_;
  std::vector<double> hold_ms_;
  std::vector<std::string> errors_;
  std::thread thread_;  // last: starts after the members it uses
};

/// Elapsed milliseconds between two NowNanos() readings.
inline double MillisBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
