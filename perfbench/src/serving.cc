#include "serving.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>

#include "core/collection.h"
#include "core/preprocess.h"
#include "datagen/world.h"
#include "index/index.h"
#include "stats.h"
#include "store/value.h"
#include "text/pipeline.h"

namespace perfbench {

using newsdiff::Engine;
using newsdiff::EngineOptions;
using newsdiff::InterestPrediction;
using newsdiff::QueryHit;
using newsdiff::StatusCode;
using newsdiff::StatusOr;
namespace loadgen = newsdiff::loadgen;
namespace store = newsdiff::store;
namespace core = newsdiff::core;
namespace index = newsdiff::index;

namespace {

constexpr double kFailed = std::numeric_limits<double>::infinity();
constexpr size_t kMaxFailureNotes = 8;

enum class Outcome { kOk, kNotFound, kFailed };

/// Inserts the document a write request carries, under the store lock.
bool WriteDoc(ServingSystem& sys, const loadgen::Request& r, int64_t id,
              SpanLog& log) {
  const int64_t created = 1554076800 + static_cast<int64_t>(r.seq);
  store::Value doc =
      r.op == loadgen::OpClass::kTweetIngest
          ? store::MakeObject({{"tweet_id", id},
                               {"user_id", static_cast<int64_t>(r.user)},
                               {"text", r.text},
                               {"created", created},
                               {"likes", static_cast<int64_t>(0)},
                               {"retweets", static_cast<int64_t>(0)}})
          : store::MakeObject({{"article_id", id},
                               {"outlet", std::string("perfbench")},
                               {"title", r.text},
                               {"body", r.body},
                               {"published", created}});
  const char* collection =
      r.op == loadgen::OpClass::kTweetIngest ? "tweets" : "news";
  const int64_t wait_start = NowNanos();
  std::lock_guard<std::mutex> lock(sys.db_mu);
  const int64_t locked = NowNanos();
  log.Add("store.lock_wait", r.seq, wait_start, locked);
  ScopedSpan insert(log, "store.insert", r.seq);
  return sys.db.GetOrCreate(collection).Insert(std::move(doc)).ok();
}

/// Runs one request against the system; `why` names a failure.
Outcome Execute(ServingSystem& sys, const loadgen::Request& r, size_t k,
                int64_t id, SpanLog& log, std::string* why) {
  switch (r.op) {
    case loadgen::OpClass::kTweetIngest:
    case loadgen::OpClass::kArticleUpsert:
      if (WriteDoc(sys, r, id, log)) return Outcome::kOk;
      *why = "store insert failed";
      return Outcome::kFailed;
    case loadgen::OpClass::kQueryTrending: {
      StatusOr<std::vector<QueryHit>> hits = sys.engine->QueryTrending(r.text, k);
      if (hits.ok()) return Outcome::kOk;
      if (hits.status().code() == StatusCode::kNotFound) {
        return Outcome::kNotFound;
      }
      *why = "QueryTrending: " + hits.status().ToString();
      return Outcome::kFailed;
    }
    case loadgen::OpClass::kPredictInterest: {
      StatusOr<InterestPrediction> p = sys.engine->PredictInterest(r.text, k);
      if (p.ok()) {
        // Output check: every answer comes from the model, and names the
        // model generation that produced it.
        if (p->model_reranked && p->model_version != 0) return Outcome::kOk;
        *why = "PredictInterest answer not model-reranked";
        return Outcome::kFailed;
      }
      if (p.status().code() == StatusCode::kNotFound) {
        return Outcome::kNotFound;
      }
      *why = "PredictInterest: " + p.status().ToString();
      return Outcome::kFailed;
    }
  }
  *why = "unknown op";
  return Outcome::kFailed;
}

const char* CallSpanName(loadgen::OpClass op) {
  switch (op) {
    case loadgen::OpClass::kTweetIngest:
    case loadgen::OpClass::kArticleUpsert:
      return "store.write";
    case loadgen::OpClass::kQueryTrending:
      return "core.query_trending";
    case loadgen::OpClass::kPredictInterest:
      return "core.predict_interest";
  }
  return "?";
}

}  // namespace

void Tally::Add(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  Note(what);
}

void Tally::Note(const std::string& what) {
  if (failures.size() < kMaxFailureNotes) failures.push_back(what);
}

void Tally::AddMany(uint64_t ops, uint64_t failed_ops) {
  attempted += ops;
  failed += failed_ops;
}

std::unique_ptr<ServingSystem> SetUpServing(const std::string& index_dir,
                                            Tally& tally) {
  auto sys = std::make_unique<ServingSystem>();
  {
    const newsdiff::datagen::World world =
        newsdiff::datagen::GenerateWorld(newsdiff::datagen::WorldOptions{});
    world.LoadInto(sys->db);
    sys->titles.reserve(world.articles.size());
    for (const auto& a : world.articles) sys->titles.push_back(a.title);
  }
  EngineOptions options;
  options.index_dir = index_dir;
  sys->engine = std::make_unique<Engine>(options);
  const int64_t t0 = NowNanos();
  StatusOr<newsdiff::BuildIndexReport> built = sys->engine->BuildIndex(sys->db);
  sys->build_ms = MillisBetween(t0, NowNanos());
  tally.Add(built.ok(), built.ok() ? "" : "BuildIndex: " +
                                              built.status().ToString());
  return sys;
}

size_t StoreDocs(ServingSystem& sys) {
  std::lock_guard<std::mutex> lock(sys.db_mu);
  return sys.db.GetOrCreate("news").size() + sys.db.GetOrCreate("tweets").size();
}

Corpora LoadCorpora(ServingSystem& sys) {
  Corpora c;
  std::lock_guard<std::mutex> lock(sys.db_mu);
  StatusOr<std::vector<core::NewsRecord>> news = core::LoadNews(sys.db);
  StatusOr<std::vector<core::TweetRecord>> tweets = core::LoadTweets(sys.db);
  if (news.ok()) c.news = core::BuildNewsED(*news);
  if (tweets.ok()) c.tweets = core::BuildTwitterED(*tweets);
  return c;
}

void CheckTopK(ServingSystem& sys, const Corpora& corpora,
               const std::vector<std::string>& tweet_queries, size_t tweet_k,
               const std::vector<std::string>& news_queries, size_t news_k,
               Tally& tally) {
  std::shared_ptr<const Engine::IndexMap> snapshot = sys.engine->IndexSnapshot();
  const index::IndexOptions& options = sys.engine->options().index;
  auto run = [&](const char* name, const newsdiff::corpus::Corpus& corpus,
                 const std::vector<std::string>& queries, size_t k) {
    auto it = snapshot->find(name);
    for (const std::string& q : queries) {
      if (it == snapshot->end()) {
        tally.Add(false, std::string("no index ") + name);
        continue;
      }
      const std::vector<std::string> terms = newsdiff::text::PreprocessNewsED(q);
      const std::vector<index::SearchResult> got = it->second.TopK(terms, k);
      const std::vector<index::SearchResult> want =
          index::BruteForceTopK(corpus, options, terms, k);
      bool same = got.size() == want.size();
      for (size_t i = 0; same && i < got.size(); ++i) {
        same = got[i].doc == want[i].doc && got[i].score == want[i].score;
      }
      tally.Add(same, std::string(name) + " TopK differs from brute force for '" +
                          q + "'");
    }
  };
  run("tweets", corpora.tweets, tweet_queries, tweet_k);
  run("news", corpora.news, news_queries, news_k);
}

OpenLoopResult RunOpenLoop(ServingSystem& sys,
                           const std::vector<loadgen::Request>& trace,
                           const OpenLoopOptions& options, Tally& tally) {
  struct Sample {
    uint64_t seq;
    double lateness_ms;
  };
  struct Worker {
    std::array<std::vector<double>, loadgen::kNumOpClasses> latency_ms;
    std::array<std::vector<double>, loadgen::kNumOpClasses> service_ms;
    std::vector<Sample> lateness;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
    SpanLog spans;
  };
  OpenLoopResult result;
  if (trace.empty()) return result;
  std::vector<Worker> locals(kRequestWorkers);
  for (Worker& w : locals) w.spans = SpanLog(options.trace);
  const int64_t id_base = sys.next_id;
  sys.next_id += static_cast<int64_t>(trace.size());

  std::atomic<size_t> cursor{0};
  std::atomic<bool> abort{false};
  std::atomic<int64_t> last_completion{0};
  const int64_t start = NowNanos();
  const auto start_tp = std::chrono::steady_clock::now();

  auto work = [&](Worker& mine) {
    for (;;) {
      const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= trace.size()) break;
      const loadgen::Request& r = trace[i];
      const size_t cls = static_cast<size_t>(r.op);
      if (abort.load(std::memory_order_relaxed)) {
        mine.latency_ms[cls].push_back(kFailed);
        continue;
      }
      std::this_thread::sleep_until(start_tp +
                                    std::chrono::nanoseconds(r.arrival_nanos));
      const int64_t due = start + r.arrival_nanos;
      const int64_t dispatched = NowNanos();
      const double lateness = MillisBetween(due, dispatched);
      mine.lateness.push_back({r.seq, lateness});
      std::string why;
      const Outcome outcome =
          Execute(sys, r, kOpenLoopK, id_base + static_cast<int64_t>(r.seq),
                  mine.spans, &why);
      const int64_t done = NowNanos();
      ++mine.attempted;
      if (outcome == Outcome::kFailed) {
        ++mine.failed;
        if (mine.failures.size() < kMaxFailureNotes) mine.failures.push_back(why);
      }
      mine.latency_ms[cls].push_back(
          outcome == Outcome::kFailed ? kFailed : MillisBetween(due, done));
      mine.service_ms[cls].push_back(
          outcome == Outcome::kFailed ? kFailed : MillisBetween(dispatched, done));
      int64_t prev = last_completion.load(std::memory_order_relaxed);
      while (prev < done && !last_completion.compare_exchange_weak(
                                prev, done, std::memory_order_relaxed)) {
      }
      if (options.abort_lateness_ms > 0.0 &&
          lateness > options.abort_lateness_ms) {
        abort.store(true, std::memory_order_relaxed);
      }
    }
  };
  {
    std::vector<std::thread> threads;
    threads.reserve(locals.size());
    for (Worker& w : locals) threads.emplace_back(work, std::ref(w));
    for (std::thread& t : threads) t.join();
  }

  std::vector<Sample> lateness;
  for (Worker& w : locals) {
    for (size_t c = 0; c < loadgen::kNumOpClasses; ++c) {
      result.latency_ms[c].insert(result.latency_ms[c].end(),
                                  w.latency_ms[c].begin(), w.latency_ms[c].end());
      result.service_ms[c].insert(result.service_ms[c].end(),
                                  w.service_ms[c].begin(), w.service_ms[c].end());
    }
    lateness.insert(lateness.end(), w.lateness.begin(), w.lateness.end());
    result.attempted += w.attempted;
    result.failed += w.failed;
    result.spans.Merge(w.spans);
    for (const std::string& why : w.failures) tally.Note(why);
  }
  // Failures beyond the noted ones and every success.
  tally.AddMany(result.attempted, result.failed);
  result.aborted = abort.load();

  std::sort(lateness.begin(), lateness.end(),
            [](const Sample& a, const Sample& b) { return a.seq < b.seq; });
  result.lateness_ms.reserve(lateness.size());
  for (const Sample& s : lateness) result.lateness_ms.push_back(s.lateness_ms);
  const size_t quarter = result.lateness_ms.size() / 4;
  if (quarter > 0) {
    const auto& l = result.lateness_ms;
    result.lateness_growth_ms =
        Median(std::vector<double>(l.end() - quarter, l.end())) -
        Median(std::vector<double>(l.begin(), l.begin() + quarter));
  }
  const double scheduled = static_cast<double>(trace.back().arrival_nanos);
  const double elapsed = static_cast<double>(last_completion.load() - start);
  result.achieved_ratio =
      result.aborted ? 0.0
                     : (elapsed > 0.0 ? std::min(1.0, scheduled / elapsed) : 1.0);
  result.achieved_rate =
      elapsed > 0.0 ? static_cast<double>(result.attempted) / (elapsed / 1e9)
                    : 0.0;
  return result;
}

std::vector<double> RunClosedLoop(ServingSystem& sys,
                                  const std::vector<loadgen::Request>& requests,
                                  size_t k, size_t repeats, size_t block,
                                  double seconds, Tally& tally, SpanLog& log,
                                  std::vector<double>* calls) {
  std::vector<double> out;
  if (requests.empty() || block == 0) return out;
  const int64_t start = NowNanos();
  int64_t next_id = sys.next_id;
  do {
    const size_t first = out.size();
    out.resize(first + block, kFailed);
    std::vector<bool> failed(block, false);
    for (size_t rep = 0; rep < repeats; ++rep) {
      for (size_t j = 0; j < block; ++j) {
        const size_t i = first + j;
        const loadgen::Request& r = requests[i % requests.size()];
        std::string why;
        const int64_t t0 = NowNanos();
        const uint32_t span = log.Open(CallSpanName(r.op), i);
        const Outcome outcome = Execute(sys, r, k, next_id++, log, &why);
        log.Close(span);
        const int64_t t1 = NowNanos();
        tally.Add(outcome != Outcome::kFailed, why);
        const double ms =
            outcome == Outcome::kFailed ? kFailed : MillisBetween(t0, t1);
        if (calls != nullptr) calls->push_back(ms);
        failed[j] = failed[j] || outcome == Outcome::kFailed;
        out[i] = std::min(out[i], ms);
      }
    }
    for (size_t j = 0; j < block; ++j) {
      if (failed[j]) out[first + j] = kFailed;
    }
  } while (MillisBetween(start, NowNanos()) < seconds * 1e3);
  sys.next_id = next_id;
  return out;
}

LadderSearch::LadderSearch(ServingSystem& sys, uint64_t seed, const OpMix& mix,
                           double window_seconds, Tally& tally)
    : sys_(sys),
      seed_(seed),
      mix_(mix),
      window_seconds_(window_seconds),
      tally_(tally) {}

LadderStep LadderSearch::TryRung(size_t rung, uint64_t attempt) {
  LadderStep step;
  step.rung = rung;
  step.rate = LadderRate(rung);
  const std::vector<loadgen::Request> trace =
      MakeTrace(seed_, kLadderStreamBase + attempt * kLadderRungs + rung,
                step.rate, window_seconds_, mix_);
  OpenLoopOptions options;
  options.abort_lateness_ms = 100.0;
  const OpenLoopResult r = RunOpenLoop(sys_, trace, options, tally_);
  auto p99 = [&](loadgen::OpClass op) {
    return Percentile(r.latency_ms[static_cast<size_t>(op)], 0.99);
  };
  auto service_p99 = [&](loadgen::OpClass op) {
    return Percentile(r.service_ms[static_cast<size_t>(op)], 0.99);
  };
  step.trending_service_p99_ms = service_p99(loadgen::OpClass::kQueryTrending);
  step.predict_service_p99_ms = service_p99(loadgen::OpClass::kPredictInterest);
  step.trending_p99_ms = p99(loadgen::OpClass::kQueryTrending);
  step.predict_p99_ms = p99(loadgen::OpClass::kPredictInterest);
  step.write_p99_ms = std::max(p99(loadgen::OpClass::kTweetIngest),
                               p99(loadgen::OpClass::kArticleUpsert));
  step.achieved_ratio = r.achieved_ratio;
  step.achieved_rate = r.achieved_rate;
  step.lateness_growth_ms = r.lateness_growth_ms;
  step.lateness_p99_ms = Percentile(r.lateness_ms, 0.99);
  if (r.failed > 0) {
    step.why = "failed requests";
  } else if (r.aborted) {
    step.why = "backlog (aborted)";
  } else if (step.trending_service_p99_ms > kSloP99Ms) {
    step.why = "trending p99";
  } else if (step.predict_service_p99_ms > kSloP99Ms) {
    step.why = "predict p99";
  } else if (step.achieved_ratio < kSloMinAchieved) {
    step.why = "achieved/offered";
  } else if (step.lateness_growth_ms > kSloMaxLatenessGrowthMs) {
    step.why = "lateness growth";
  }
  step.ok = step.why.empty();
  result_.steps.push_back(step);
  // Let the inference queue and the allocator settle between windows.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  return step;
}

bool LadderSearch::done() const {
  return hi_ - lo_ <= 1 &&
         (hi_ >= static_cast<long>(kLadderRungs) || rechecked_.count(hi_) > 0);
}

LadderStep LadderSearch::DecideRung(size_t rung, uint64_t attempt) {
  LadderStep step = TryRung(rung, attempt);
  // A rung fails only when a second window (a different trace) at the
  // same rate fails too: one window can land on a scheduling stall of a
  // shared host, but overload fails every window.
  if (!step.ok) step = TryRung(rung, attempt + 1);
  return step;
}

void LadderSearch::Step() {
  if (done()) return;
  if (hi_ - lo_ > 1) {
    const long mid = lo_ + (hi_ - lo_) / 2;
    const LadderStep step = DecideRung(static_cast<size_t>(mid), 0);
    if (step.ok) {
      lo_ = mid;
      result_.max_rate = step.achieved_rate;
      result_.best = step;
    } else {
      hi_ = mid;
      failed_.insert(mid);
    }
    return;
  }
  // Converged below a failed rung: try it once more, with fresh traces.
  rechecked_.insert(hi_);
  const LadderStep step = DecideRung(static_cast<size_t>(hi_), 2);
  if (!step.ok) return;
  lo_ = hi_;
  result_.max_rate = step.achieved_rate;
  result_.best = step;
  const auto above = failed_.upper_bound(lo_);
  hi_ = above == failed_.end() ? static_cast<long>(kLadderRungs) : *above;
}

Refresher::Refresher(ServingSystem& sys, double pause_seconds, Tally& tally)
    : sys_(sys),
      pause_seconds_(pause_seconds),
      tally_(tally),
      thread_([this] { Loop(); }) {}

Refresher::~Refresher() { Stop(); }

void Refresher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (!thread_.joinable()) return;
  thread_.join();
  tally_.AddMany(build_ms_.size() + errors_.size(), errors_.size());
  for (const std::string& e : errors_) tally_.Note(e);
}

void Refresher::Loop() {
  const auto pause = std::chrono::duration<double>(pause_seconds_);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_for(lock, pause, [this] { return stop_; })) return;
    }
    std::lock_guard<std::mutex> store_lock(sys_.db_mu);
    const int64_t t0 = NowNanos();
    StatusOr<newsdiff::BuildIndexReport> built = sys_.engine->BuildIndex(sys_.db);
    const int64_t t1 = NowNanos();
    if (!built.ok()) {
      errors_.push_back("refresher BuildIndex: " + built.status().ToString());
      continue;
    }
    build_ms_.push_back(MillisBetween(t0, t1));
    hold_ms_.push_back(MillisBetween(t0, NowNanos()));
  }
}

}  // namespace perfbench
