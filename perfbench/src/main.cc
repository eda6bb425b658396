// newsbench: the newsdiff end-to-end benchmark.
//
//   newsbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --work <dir>
//   newsbench prepare --work <dir>
//   newsbench compare <BENCHMARK.json> <base report> <current report>
//
// `run` drives one workload through the public API, checks its outputs,
// and prints as its last stdout line one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics untraced, the per-layer
// metrics traced). `prepare` trains the frozen embedding store the
// pipeline loads in set-up. `compare` judges one run report against
// another, or only reports the deltas when their fingerprints differ.
// perfbench/README.md documents the workloads and every metric.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "compare.h"
#include "fingerprint.h"
#include "offline.h"
#include "replay.h"
#include "serving.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace loadgen = newsdiff::loadgen;
namespace fs = std::filesystem;

/// Set-up repetitions per run; setup_s is their median.
constexpr size_t kSetupReps = 3;
/// predict_single's timed loop: kLoopChunks chunks of --seconds /
/// kLoopChunks each, over kLoopChunkDrafts drafts of their own in blocks
/// of kLoopBlockDrafts, after kWarmupCalls untimed calls. Its p99 is the
/// median of the chunks' p99s (SummarizeChunks).
constexpr size_t kLoopChunks = 4;
constexpr size_t kLoopChunkDrafts = 2000;
constexpr size_t kLoopBlockDrafts = 500;
constexpr size_t kWarmupCalls = 200;
/// Each block of drafts is sent this many times over, and each draft's
/// sample is its fastest call. A call takes ~0.5 ms and crosses to the
/// inference worker and back, so on a shared host a few percent of single
/// calls meet a stalled or descheduled vCPU, which then sets p99. The
/// fastest of three keeps the tail the drafts themselves cause.
constexpr size_t kPredictRepeats = 3;
/// Timed trending queries and writes in a closed-loop probe, in chunks
/// spread over the run. Each chunk keeps >= 10 samples beyond its own
/// p99, and the probe's p99 is the median of the chunks' p99s. A write
/// takes ~1 us and its tail varies from chunk to chunk, so writes get
/// many more samples; they cycle through kProbeRequests requests. Each
/// chunk first makes kChunkWarmup untimed calls, since the step before it
/// (a ladder window, a pipeline stage) leaves the caches cold.
constexpr size_t kProbeRequests = 20000;
constexpr size_t kTrendingProbeCalls = 20000;
constexpr size_t kWriteProbeCalls = 60000;
constexpr size_t kProbeChunks = 10;
constexpr size_t kChunkWarmup = 100;
/// Pipeline passes behind pipeline_s (their median).
constexpr size_t kPipelinePasses = 3;
/// BuildIndex samples on the untouched system, spread over the run.
constexpr size_t kRefreshSamples = 3;
/// Seconds per rung of the max_rate_at_slo search.
constexpr double kLadderWindowSeconds = 0.8;
/// serve_refresh: pause between the end of one rebuild and the next.
constexpr double kRefreshPauseSeconds = 2.0;
/// Seeded sample sizes for the brute-force check and the traced replays.
constexpr size_t kTopKChecks = 16;
constexpr size_t kReplayQueries = 300;
constexpr size_t kRefreshReplays = 3;

struct Args {
  Workload workload = Workload::kServeRefresh;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work = ".bench_build";
};

struct Metric {
  double value = 0.0;
  std::string unit;
  size_t n = 0;  // samples behind the value (0: not a sampled timing)
};

/// Everything one run accumulates.
struct Context {
  Args args;
  std::string run_dir;
  Tally tally;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  SpanLog spans;
  std::vector<std::string> notes;  // human-readable lines
  bool sizing_error = false;

  void E2e(const std::string& name, double value, const std::string& unit,
           size_t n = 0) {
    e2e[name] = {value, unit, n};
  }
  void Layer(const std::string& name, double value, const std::string& unit,
             size_t n = 0) {
    layer[name] = {value, unit, n};
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string Fmt(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

/// Sets <prefix>_p50_ms and <prefix>_p99_ms from a summary of
/// per-request samples.
void SetLatency(Context& ctx, const std::string& prefix,
                const LatencySummary& s) {
  if (!s.p99_supported) {
    std::fprintf(stderr,
                 "sizing: %zu %s samples leave fewer than %zu beyond p99\n",
                 s.n, prefix.c_str(), kMinTailSamples);
    ctx.sizing_error = true;
  }
  ctx.E2e(prefix + "_p50_ms", s.p50, "ms", s.n);
  ctx.E2e(prefix + "_p99_ms", s.p99, "ms", s.n);
  ctx.Note(prefix + ": n=" + std::to_string(s.n) +
           Fmt(" p50=%.4fms p99=%.4fms", s.p50, s.p99));
}

void SetLatency(Context& ctx, const std::string& prefix,
                const std::vector<double>& samples) {
  SetLatency(ctx, prefix, Summarize(samples));
}

/// A closed loop's samples, chunk by chunk, and every call's own time
/// (more than the samples when requests repeat).
struct ClosedLoopSamples {
  std::vector<std::vector<double>> chunks;
  std::vector<double> calls;
};

/// Sets <prefix>_p50_ms and <prefix>_p99_ms from a chunked closed loop,
/// and notes each chunk's p99 and the p99 of single calls.
void SetChunkedLatency(Context& ctx, const std::string& prefix,
                       const ClosedLoopSamples& s) {
  std::string line = prefix + " chunk p99s:";
  for (const std::vector<double>& c : s.chunks) {
    line += Fmt(" %.4g", Percentile(c, 0.99));
  }
  ctx.Note(line + Fmt(" ms; single calls p99 %.4g ms", Percentile(s.calls, 0.99)));
  SetLatency(ctx, prefix, SummarizeChunks(s.chunks));
}

using ClassSamples = std::array<std::vector<double>, loadgen::kNumOpClasses>;

const std::vector<double>& Samples(const ClassSamples& s, loadgen::OpClass op) {
  return s[static_cast<size_t>(op)];
}

/// Tweet ingests and article upserts together.
std::vector<double> WriteSamples(const ClassSamples& s) {
  std::vector<double> out = Samples(s, loadgen::OpClass::kTweetIngest);
  const std::vector<double>& upserts =
      Samples(s, loadgen::OpClass::kArticleUpsert);
  out.insert(out.end(), upserts.begin(), upserts.end());
  return out;
}

/// Requests of one class, drawn from a seeded probe trace.
std::vector<loadgen::Request> ProbeRequests(uint64_t seed, loadgen::OpClass op,
                                            size_t count) {
  OpMix mix = {{0.0, 0.0, 0.0, 0.0}};
  if (op == loadgen::OpClass::kTweetIngest ||
      op == loadgen::OpClass::kArticleUpsert) {
    mix = {{0.7, 0.3, 0.0, 0.0}};
  } else {
    mix.weight[static_cast<size_t>(op)] = 1.0;
  }
  std::vector<loadgen::Request> trace = MakeTrace(
      seed, kProbeStream + static_cast<uint64_t>(op), 1000.0,
      static_cast<double>(count) / 1000.0 * 1.5, mix);
  if (trace.size() > count) trace.resize(count);
  return trace;
}

/// Editor drafts: article titles drawn by seed.
std::vector<loadgen::Request> TitleDrafts(const ServingSystem& sys,
                                          uint64_t seed, size_t count) {
  std::vector<loadgen::Request> out;
  for (size_t i : DrawIndexes(seed, sys.titles.size(), count)) {
    loadgen::Request r;
    r.seq = out.size();
    r.op = loadgen::OpClass::kPredictInterest;
    r.text = sys.titles[i];
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<std::string> Texts(const std::vector<loadgen::Request>& requests,
                               loadgen::OpClass op, size_t count) {
  std::vector<std::string> out;
  for (const loadgen::Request& r : requests) {
    if (out.size() >= count) break;
    if (r.op == op) out.push_back(r.text);
  }
  return out;
}

// --------------------------------------------------------------- set-up --

struct ServingSetup {
  std::unique_ptr<ServingSystem> sys;       // the last one: under test
  std::unique_ptr<ServingSystem> pristine;  // the first, when kept
  std::vector<double> setup_s;
  std::vector<double> build_ms;
};

/// Sets up the serving system `reps` times (setup_s is the median). Keeps
/// the last one, and with `keep_pristine` also the first, which no request
/// ever writes to: the refresh samples rebuild it.
ServingSetup SetUpServingRepeated(Context& ctx, size_t reps,
                                  bool keep_pristine) {
  ServingSetup out;
  for (size_t r = 0; r < reps; ++r) {
    out.sys.reset();
    const std::string dir = ctx.run_dir + "/serving-" + std::to_string(r);
    const int64_t t0 = NowNanos();
    std::unique_ptr<ServingSystem> sys = SetUpServing(dir, ctx.tally);
    out.setup_s.push_back(MillisBetween(t0, NowNanos()) / 1e3);
    out.build_ms.push_back(sys->build_ms);
    if (r == 0 && keep_pristine) {
      out.pristine = std::move(sys);
    } else {
      out.sys = std::move(sys);
    }
  }
  return out;
}

/// Output check on the freshly built generation: a seeded sample of
/// TopK answers equals brute force.
void CheckFreshTopK(Context& ctx, ServingSystem& sys) {
  const Corpora corpora = LoadCorpora(sys);
  const std::vector<loadgen::Request> drafts =
      TitleDrafts(sys, ctx.args.seed ^ 0x70f, kTopKChecks);
  std::vector<std::string> draft_texts;
  for (const loadgen::Request& r : drafts) draft_texts.push_back(r.text);
  const std::vector<std::string> queries =
      Texts(ProbeRequests(ctx.args.seed, loadgen::OpClass::kQueryTrending,
                          kTopKChecks),
            loadgen::OpClass::kQueryTrending, kTopKChecks);
  CheckTopK(sys, corpora, draft_texts, kEditorK, queries, kOpenLoopK,
            ctx.tally);
}

// --------------------------------------------------------------- probes --
//
// The probes measure, for every workload, the end-to-end metrics its own
// phase does not produce. They run as steps interleaved round-robin, so
// each measurement is spread over the run: a shared host's slow periods
// last seconds, and a metric taken in one burst would inherit one of them.

/// A stepwise measurement: each call does one step and returns whether
/// more steps remain.
using Task = std::function<bool()>;

void Interleave(std::vector<Task> tasks) {
  std::vector<bool> active(tasks.size(), true);
  for (bool any = true; any;) {
    any = false;
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (active[i]) active[i] = tasks[i]();
      any = any || active[i];
    }
  }
}

/// Closed loop, one client: `calls` calls cycling through `requests`, in
/// kProbeChunks chunks.
Task ClosedLoopTask(Context& ctx, ServingSystem& sys,
                    std::vector<loadgen::Request> requests, size_t calls,
                    ClosedLoopSamples* out) {
  auto next = std::make_shared<size_t>(0);
  auto shared = std::make_shared<std::vector<loadgen::Request>>(std::move(requests));
  return [&ctx, &sys, calls, out, next, shared] {
    const size_t chunk = calls / kProbeChunks;
    std::vector<loadgen::Request> part;
    part.reserve(chunk);
    for (size_t i = *next * chunk; i < (*next + 1) * chunk; ++i) {
      part.push_back((*shared)[i % shared->size()]);
    }
    SpanLog untraced(false);
    RunClosedLoop(sys, part, kOpenLoopK, 1, kChunkWarmup, 0.0, ctx.tally,
                  untraced);
    out->chunks.push_back(RunClosedLoop(sys, part, kOpenLoopK, 1, chunk, 0.0,
                                        ctx.tally, ctx.spans, &out->calls));
    return ++*next < kProbeChunks;
  };
}

/// max_rate_at_slo, one rung per step.
Task LadderTask(LadderSearch& search) {
  return [&search] {
    search.Step();
    return !search.done();
  };
}

/// `reps` BuildIndex calls on a system no request ever wrote to, so each
/// rebuilds the same store.
Task RefreshTask(Context& ctx, ServingSystem& pristine, size_t reps,
                 std::vector<double>* build_ms) {
  auto done = std::make_shared<size_t>(0);
  return [&ctx, &pristine, reps, build_ms, done] {
    const int64_t t0 = NowNanos();
    const auto built = pristine.engine->BuildIndex(pristine.db);
    build_ms->push_back(MillisBetween(t0, NowNanos()));
    ctx.tally.Add(built.ok(), "BuildIndex failed");
    return ++*done < reps;
  };
}

/// kPipelinePasses pipeline passes, one stage per step.
Task PipelineTask(Context& ctx, PipelineSystem& sys,
                  std::vector<PipelineRun>* runs) {
  auto pass = std::make_shared<std::unique_ptr<PipelinePass>>();
  return [&ctx, &sys, runs, pass] {
    if (*pass == nullptr) {
      *pass = std::make_unique<PipelinePass>(sys, runs->size(), ctx.spans,
                                             ctx.tally);
    }
    (*pass)->Step();
    if (!(*pass)->done()) return true;
    runs->push_back((*pass)->run());
    pass->reset();
    return runs->size() < kPipelinePasses;
  };
}

void LadderMetrics(Context& ctx, const LadderResult& ladder) {
  ctx.E2e("max_rate_at_slo", ladder.max_rate, "req/s");
  for (const LadderStep& s : ladder.steps) {
    ctx.Note(Fmt("ladder: rate=%.0f/s service p99 trending=%.3fms predict=%.3fms",
                 s.rate, s.trending_service_p99_ms, s.predict_service_p99_ms) +
             Fmt(" (from schedule %.3fms, %.3fms)", s.trending_p99_ms,
                 s.predict_p99_ms) +
             Fmt(" achieved=%.3f growth=%.3fms ", s.achieved_ratio,
                 s.lateness_growth_ms) +
             (s.ok ? "ok" : "fail: " + s.why));
  }
}

/// The load generator's view of an open-loop phase: how late it ran, how
/// much of the offered rate it achieved, and each class's p99 measured
/// from the scheduled arrival (queueing included).
void LoadgenLayer(Context& ctx, const LadderStep& step) {
  ctx.Layer("loadgen.lateness_p99_ms", step.lateness_p99_ms, "ms");
  ctx.Layer("loadgen.achieved_ratio", step.achieved_ratio, "1");
  ctx.Layer("loadgen.predict_latency_p99_ms", step.predict_p99_ms, "ms");
  ctx.Layer("loadgen.trending_latency_p99_ms", step.trending_p99_ms, "ms");
  ctx.Layer("loadgen.write_latency_p99_ms", step.write_p99_ms, "ms");
}

/// pipeline_s and the pipeline's stage metrics from `runs`.
void PipelineMetrics(Context& ctx, const std::vector<PipelineRun>& runs) {
  if (runs.empty()) return;
  auto median = [&](double PipelineRun::*field) {
    std::vector<double> v;
    for (const PipelineRun& r : runs) v.push_back(r.*field);
    return Median(v);
  };
  ctx.E2e("pipeline_s", median(&PipelineRun::total_ms) / 1e3, "s",
          runs.size());
  for (const PipelineRun& r : runs) {
    ctx.Note(Fmt("pipeline pass: %.1fms (load %.1f, nmf %.1f, ", r.total_ms,
                 r.load_inputs_ms, r.nmf_ms) +
             Fmt("mabed %.1f + %.1f, ", r.news_mabed_ms, r.twitter_mabed_ms) +
             Fmt("dataset %.1f, train %.1f)", r.dataset_ms, r.train_ms));
  }
  ctx.Layer("core.load_inputs_ms", median(&PipelineRun::load_inputs_ms), "ms");
  ctx.Layer("topic.nmf_ms", median(&PipelineRun::nmf_ms), "ms");
  ctx.Layer("event.news_mabed_ms", median(&PipelineRun::news_mabed_ms), "ms");
  ctx.Layer("event.twitter_mabed_ms", median(&PipelineRun::twitter_mabed_ms),
            "ms");
  ctx.Layer("embed.trending_ms", median(&PipelineRun::trending_ms), "ms");
  ctx.Layer("embed.correlation_ms", median(&PipelineRun::correlation_ms), "ms");
  ctx.Layer("core.assign_ms", median(&PipelineRun::assign_ms), "ms");
  ctx.Layer("core.dataset_ms", median(&PipelineRun::dataset_ms), "ms");
  const double train_ms = median(&PipelineRun::train_ms);
  ctx.Layer("nn.train_ms", train_ms, "ms");
  const PipelineRun& last = runs.back();
  ctx.Layer("nn.epochs", static_cast<double>(last.epochs), "count");
  ctx.Layer("nn.ms_per_epoch",
            last.epochs > 0 ? train_ms / static_cast<double>(last.epochs) : 0.0,
            "ms");
  bool same_digest = true;
  for (const PipelineRun& r : runs) {
    same_digest = same_digest && r.digest == last.digest;
  }
  // Output check: repeated passes over the same inputs agree bitwise.
  ctx.tally.Add(same_digest, "pipeline digest differs between passes");
  char digest[64];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(last.digest));
  ctx.Note(std::string("pipeline digest: ") + digest +
           Fmt(" (A1 accuracy %.4f, A2 accuracy %.4f)", last.accuracy_a1,
               last.accuracy_a2));
}

std::unique_ptr<PipelineSystem> SetUpPipelineWorld(Context& ctx) {
  return SetUpPipeline(ctx.args.work + "/artifacts/pretrained_300d.txt",
                       ctx.tally);
}

/// Everything the probes of one run collect.
struct ProbeResults {
  ClosedLoopSamples trending_ms, write_ms;
  std::vector<double> build_ms;
  std::vector<PipelineRun> pipeline;
};

/// Runs the ladder and the pipeline passes interleaved, and sets their
/// end-to-end metrics. With `pristine` (for a workload whose own phase
/// has no rebuilds, trending queries or writes) also the refresh samples
/// on it and the closed-loop trending and write probes. Returns the
/// ladder's result.
LadderResult RunProbes(Context& ctx, ServingSystem& sys,
                       PipelineSystem& pipeline, ServingSystem* pristine,
                       ProbeResults* out) {
  LadderSearch ladder(sys, ctx.args.seed, kLadderMix, kLadderWindowSeconds,
                      ctx.tally);
  std::vector<Task> tasks = {LadderTask(ladder),
                             PipelineTask(ctx, pipeline, &out->pipeline)};
  if (pristine != nullptr) {
    tasks.push_back(
        RefreshTask(ctx, *pristine, kRefreshSamples, &out->build_ms));
    tasks.push_back(ClosedLoopTask(
        ctx, sys,
        ProbeRequests(ctx.args.seed, loadgen::OpClass::kQueryTrending,
                      kProbeRequests),
        kTrendingProbeCalls, &out->trending_ms));
    tasks.push_back(ClosedLoopTask(
        ctx, sys,
        ProbeRequests(ctx.args.seed, loadgen::OpClass::kTweetIngest,
                      kProbeRequests),
        kWriteProbeCalls, &out->write_ms));
  }
  Interleave(std::move(tasks));

  LadderMetrics(ctx, ladder.result());
  PipelineMetrics(ctx, out->pipeline);
  if (pristine != nullptr) {
    SetChunkedLatency(ctx, "trending", out->trending_ms);
    SetChunkedLatency(ctx, "write", out->write_ms);
  }
  return ladder.result();
}

// --------------------------------------------------------- traced layers --

struct ServeCounters {
  newsdiff::serve::InferenceServerStats server;
  newsdiff::la::WeightCacheStats cache;
};

ServeCounters ReadCounters(ServingSystem& sys) {
  ServeCounters c;
  if (newsdiff::serve::InferenceServer* s = sys.engine->inference_server()) {
    c.server = s->stats();
    c.cache = s->cache_stats();
  }
  return c;
}

/// serve.* batch counters and the weight-cache hit ratio over a phase.
void ServeLayer(Context& ctx, const ServeCounters& before,
                const ServeCounters& after) {
  const uint64_t batches = after.server.batches - before.server.batches;
  const uint64_t rows = after.server.batched_rows - before.server.batched_rows;
  ctx.Layer("serve.batches", static_cast<double>(batches), "count");
  ctx.Layer("serve.mean_batch_fill",
            batches > 0 ? static_cast<double>(rows) / static_cast<double>(batches)
                        : 0.0,
            "rows");
  ctx.Layer("serve.queue_rejections",
            static_cast<double>(after.server.queue_full_rejections -
                                before.server.queue_full_rejections),
            "count");
  const uint64_t hits = after.cache.hits - before.cache.hits;
  const uint64_t misses = after.cache.misses - before.cache.misses;
  ctx.Layer("la.weight_cache_hit_ratio",
            hits + misses > 0 ? static_cast<double>(hits) /
                                    static_cast<double>(hits + misses)
                              : 0.0,
            "1");
}

/// Replays the refresh and the query path stage by stage (traced runs).
void ReplayLayers(Context& ctx, ServingSystem& sys,
                  const std::vector<std::string>& drafts, size_t k,
                  const std::vector<std::string>& trending,
                  const std::vector<double>& lock_hold_ms) {
  const RefreshReplay refresh = ReplayRefresh(
      sys, ctx.run_dir + "/replay-index", kRefreshReplays, ctx.spans, ctx.tally);
  const QueryReplay q =
      ReplayQueries(sys, refresh, drafts, k, trending, ctx.spans, ctx.tally);

  ctx.Layer("store.read_ms", Median(refresh.read_ms), "ms");
  ctx.Layer("text.corpus_tokenize_ms", Median(refresh.tokenize_ms), "ms");
  ctx.Layer("index.invert_ms", Median(refresh.invert_ms), "ms");
  ctx.Layer("serve.featurize_ms", Median(refresh.featurize_ms), "ms");
  ctx.Layer("serve.train_ms", Median(refresh.train_ms), "ms");
  ctx.Layer("index.persist_ms", Median(refresh.persist_ms), "ms");
  const double build_ms = Median(refresh.build_ms);
  const double publish_residual = Median(refresh.residual_ms);
  ctx.Layer("core.build_index_ms", build_ms, "ms");
  ctx.Layer("core.publish_residual_ms", publish_residual, "ms");
  ctx.Layer("store.lock_hold_ms",
            Median(lock_hold_ms.empty() ? refresh.hold_ms : lock_hold_ms), "ms");

  ctx.Layer("text.query_tokenize_us", Median(q.tokenize_us), "us",
            q.tokenize_us.size());
  double terms = 0.0;
  for (double t : q.query_terms) terms += t;
  ctx.Layer("text.query_terms",
            q.query_terms.empty() ? 0.0 : terms / static_cast<double>(q.query_terms.size()),
            "count");
  ctx.Layer("index.tweets_topk_us", Median(q.tweets_topk_us), "us",
            q.tweets_topk_us.size());
  ctx.Layer("index.news_topk_us", Median(q.news_topk_us), "us",
            q.news_topk_us.size());
  ctx.Layer("index.candidates", static_cast<double>(q.candidates), "count");
  ctx.Layer("index.docs_scored", static_cast<double>(q.docs_scored), "count");
  ctx.Layer("index.blocks_decoded", static_cast<double>(q.blocks_decoded),
            "count");
  ctx.Layer("index.scored_ratio",
            q.candidates > 0 ? static_cast<double>(q.docs_scored) /
                                   static_cast<double>(q.candidates)
                             : 0.0,
            "1");
  const double predict_us = Median(q.predict_us);
  const double direct_us = Median(q.direct_us);
  ctx.Layer("serve.gather_us", Median(q.gather_us), "us", q.gather_us.size());
  ctx.Layer("serve.predict_us", predict_us, "us", q.predict_us.size());
  ctx.Layer("serve.predict_direct_us", direct_us, "us", q.direct_us.size());
  ctx.Layer("serve.queue_hop_us", predict_us - direct_us, "us");
  const double whole_us = Median(q.predict_interest_us);
  const double residual_us = Median(q.residual_us);
  ctx.Layer("core.predict_us", whole_us, "us", q.predict_interest_us.size());
  ctx.Layer("core.residual_us", residual_us, "us");

  // Stage sums account for their totals within kStageTolerance.
  ctx.tally.Add(std::fabs(residual_us) <= kStageTolerance * whole_us,
                Fmt("query stages leave a residual of %.1fus of %.1fus",
                    residual_us, whole_us));
  ctx.tally.Add(std::fabs(publish_residual) <= kStageTolerance * build_ms,
                Fmt("refresh stages leave a residual of %.2fms of %.2fms",
                    publish_residual, build_ms));
  ctx.Note(Fmt("query stages: residual %.1fus of %.1fus", residual_us, whole_us) +
           Fmt(" (tolerance %.0f%%)", 100.0 * kStageTolerance));
  ctx.Note(Fmt("refresh stages: residual %.2fms of %.2fms", publish_residual,
               build_ms) +
           Fmt(" (tolerance %.0f%%)", 100.0 * kStageTolerance));
}

/// store.insert_us and store.lock_wait_p99_ms from traced write spans,
/// and store.docs: read before the probes, whose ladder writes a
/// timing-dependent number of documents, so equal seeds give equal counts.
void StoreLayer(Context& ctx, const SpanLog& spans, size_t docs) {
  const std::vector<double> insert_us = spans.Micros("store.insert");
  std::vector<double> wait_ms = spans.Micros("store.lock_wait");
  for (double& w : wait_ms) w /= 1e3;
  ctx.Layer("store.insert_us", Median(insert_us), "us", insert_us.size());
  ctx.Layer("store.lock_wait_p99_ms", Percentile(wait_ms, 0.99), "ms",
            wait_ms.size());
  ctx.Layer("store.docs", static_cast<double>(docs), "count");
}

void Overhead(Context& ctx, double untraced, double traced) {
  ctx.Layer("trace.overhead_pct",
            untraced > 0.0 ? 100.0 * (traced - untraced) / untraced : 0.0, "%");
  ctx.Note(Fmt("tracing overhead: untraced %.4f, traced %.4f", untraced,
               traced));
}

// ------------------------------------------------------------ workloads --

/// serve_refresh: a write-heavy open-loop phase with a refresher, then
/// the probes for the metrics it does not produce. Its tails are its own
/// rebuild stall, so they are timed from the scheduled arrival.
void RunServeRefresh(Context& ctx) {
  ServingSetup setup =
      SetUpServingRepeated(ctx, kSetupReps, /*keep_pristine=*/false);
  ServingSystem& sys = *setup.sys;
  ctx.E2e("setup_s", Median(setup.setup_s), "s", setup.setup_s.size());
  CheckFreshTopK(ctx, sys);

  const std::vector<loadgen::Request> trace = MakeTrace(
      ctx.args.seed, kPrimaryStream, kRefreshRate, ctx.args.seconds, kRefreshMix);
  // One open-loop phase with the refresher running beside it.
  auto phase = [&](bool traced, std::vector<double>* builds,
                   std::vector<double>* holds) {
    OpenLoopOptions options;
    options.trace = traced;
    Refresher refresher(sys, kRefreshPauseSeconds, ctx.tally);
    OpenLoopResult r = RunOpenLoop(sys, trace, options, ctx.tally);
    refresher.Stop();
    *builds = refresher.build_ms();
    *holds = refresher.hold_ms();
    return r;
  };

  const ServeCounters before = ReadCounters(sys);
  std::vector<double> builds, holds;
  const OpenLoopResult r = phase(false, &builds, &holds);
  const ServeCounters after = ReadCounters(sys);
  LadderStep open_loop;  // the phase as the generator saw it
  open_loop.rate = kRefreshRate;
  open_loop.achieved_ratio = r.achieved_ratio;
  open_loop.lateness_p99_ms = Percentile(r.lateness_ms, 0.99);
  open_loop.predict_p99_ms =
      Percentile(Samples(r.latency_ms, loadgen::OpClass::kPredictInterest), 0.99);
  open_loop.trending_p99_ms =
      Percentile(Samples(r.latency_ms, loadgen::OpClass::kQueryTrending), 0.99);
  open_loop.write_p99_ms = Percentile(WriteSamples(r.latency_ms), 0.99);
  ctx.Note(Fmt("open loop: %.0f req/s offered, achieved/offered %.4f, "
               "lateness p99 %.3fms",
               kRefreshRate, r.achieved_ratio, open_loop.lateness_p99_ms));
  SetLatency(ctx, "predict",
             Samples(r.latency_ms, loadgen::OpClass::kPredictInterest));
  SetLatency(ctx, "trending",
             Samples(r.latency_ms, loadgen::OpClass::kQueryTrending));
  const std::vector<double> writes = WriteSamples(r.latency_ms);
  SetLatency(ctx, "write", writes);
  ctx.E2e("refresh_ms", Median(builds), "ms", builds.size());
  std::string rebuilds = "refresher rebuilds (ms):";
  for (double ms : builds) rebuilds += Fmt(" %.1f", ms);
  ctx.Note(rebuilds);
  if (builds.empty()) {
    std::fprintf(stderr, "sizing: no rebuild finished in the run\n");
    ctx.sizing_error = true;
  }

  std::vector<double> traced_holds;
  if (ctx.args.trace) {
    LoadgenLayer(ctx, open_loop);
    ServeLayer(ctx, before, after);
    std::vector<double> traced_builds;
    const OpenLoopResult t = phase(true, &traced_builds, &traced_holds);
    Overhead(ctx, Median(writes), Median(WriteSamples(t.latency_ms)));
    StoreLayer(ctx, t.spans, StoreDocs(sys));
    ctx.spans.Merge(t.spans);
  }

  std::unique_ptr<PipelineSystem> pipeline = SetUpPipelineWorld(ctx);
  ProbeResults probes;
  RunProbes(ctx, sys, *pipeline, nullptr, &probes);
  if (ctx.args.trace) {
    ReplayLayers(
        ctx, sys,
        Texts(trace, loadgen::OpClass::kPredictInterest, kReplayQueries),
        kOpenLoopK,
        Texts(trace, loadgen::OpClass::kQueryTrending, kReplayQueries),
        traced_holds);
  }
}

/// predict_single: the editor case, closed loop with one client.
void RunPredictSingle(Context& ctx) {
  ServingSetup setup =
      SetUpServingRepeated(ctx, kSetupReps, /*keep_pristine=*/true);
  ServingSystem& sys = *setup.sys;
  ctx.E2e("setup_s", Median(setup.setup_s), "s", setup.setup_s.size());
  CheckFreshTopK(ctx, sys);

  const std::vector<loadgen::Request> drafts =
      TitleDrafts(sys, ctx.args.seed, kLoopChunks * kLoopChunkDrafts);
  SpanLog untraced(false);
  // Warm-up: fill caches and fault in the index before timing.
  RunClosedLoop(sys, drafts, kEditorK, 1, kWarmupCalls, 0.0, ctx.tally,
                untraced);
  // The timed loop, in chunks, each on drafts of its own: its p99 is the
  // median of theirs.
  auto timed_loop = [&](SpanLog& log) {
    ClosedLoopSamples s;
    for (size_t c = 0; c < kLoopChunks; ++c) {
      const std::vector<loadgen::Request> part(
          drafts.begin() + static_cast<long>(c * kLoopChunkDrafts),
          drafts.begin() + static_cast<long>((c + 1) * kLoopChunkDrafts));
      s.chunks.push_back(RunClosedLoop(
          sys, part, kEditorK, kPredictRepeats, kLoopBlockDrafts,
          ctx.args.seconds / kLoopChunks, ctx.tally, log, &s.calls));
    }
    return s;
  };
  const ServeCounters before = ReadCounters(sys);
  const ClosedLoopSamples calls = timed_loop(untraced);
  const ServeCounters after = ReadCounters(sys);
  SetChunkedLatency(ctx, "predict", calls);
  if (ctx.args.trace) {
    SpanLog traced(true);
    const ClosedLoopSamples traced_calls = timed_loop(traced);
    Overhead(ctx, Median(calls.calls), Median(traced_calls.calls));
    ctx.spans.Merge(traced);
  }
  const size_t docs = StoreDocs(sys);

  std::unique_ptr<PipelineSystem> pipeline = SetUpPipelineWorld(ctx);
  ProbeResults probes;
  const LadderResult ladder =
      RunProbes(ctx, sys, *pipeline, setup.pristine.get(), &probes);
  std::vector<double> builds = setup.build_ms;
  builds.insert(builds.end(), probes.build_ms.begin(), probes.build_ms.end());
  ctx.E2e("refresh_ms", Median(builds), "ms", builds.size());

  if (ctx.args.trace) {
    LoadgenLayer(ctx, ladder.best);
    ServeLayer(ctx, before, after);
    StoreLayer(ctx, ctx.spans, docs);
    std::vector<std::string> draft_texts;
    for (size_t i = 0; i < kReplayQueries && i < drafts.size(); ++i) {
      draft_texts.push_back(drafts[i].text);
    }
    ReplayLayers(ctx, sys, draft_texts, kEditorK,
                 Texts(ProbeRequests(ctx.args.seed,
                                     loadgen::OpClass::kQueryTrending,
                                     kReplayQueries),
                       loadgen::OpClass::kQueryTrending, kReplayQueries),
                 {});
  }
}

// --------------------------------------------------------------- output --

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultLine(const Context& ctx) {
  const std::map<std::string, Metric>& metrics =
      ctx.args.trace ? ctx.layer : ctx.e2e;
  std::ostringstream out;
  out << "{\"correct\": " << (ctx.tally.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << ctx.tally.attempted
      << ", \"failed\": " << ctx.tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << JsonNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

void PrintTable(const Context& ctx) {
  const std::map<std::string, Metric>& metrics =
      ctx.args.trace ? ctx.layer : ctx.e2e;
  for (const std::string& line : ctx.notes) std::printf("  %s\n", line.c_str());
  std::printf("%-28s %16s  %-6s %s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, m] : metrics) {
    std::printf("%-28s %16.6g  %-6s %s\n", name.c_str(), m.value,
                m.unit.c_str(), m.n > 0 ? std::to_string(m.n).c_str() : "");
  }
  for (const std::string& f : ctx.tally.failures) {
    std::printf("FAILED CHECK: %s\n", f.c_str());
  }
}

void WriteReport(const Context& ctx, const Fingerprint& fp) {
  RunReport report;
  report.workload = WorkloadName(ctx.args.workload);
  report.seed = ctx.args.seed;
  report.fingerprint = fp;
  for (const auto& [name, m] : ctx.args.trace ? ctx.layer : ctx.e2e) {
    if (std::isfinite(m.value)) report.metrics[name] = m.value;
  }
  const std::string stem = ctx.args.work + "/reports/" + report.workload +
                           "-s" + std::to_string(ctx.args.seed) + "-t" +
                           (ctx.args.trace ? "1" : "0");
  std::ofstream(stem + ".json") << RunReportJson(report) << "\n";
  if (ctx.args.trace) {
    ctx.spans.WriteJsonl(ctx.args.work + "/traces/" + report.workload + "-s" +
                         std::to_string(ctx.args.seed) + ".jsonl");
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: newsbench run --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work <dir>]\n"
               "       newsbench prepare [--work <dir>]\n"
               "       newsbench compare <BENCHMARK.json> <base> <current>\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->workload)) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--work") {
      args->work = value;
    } else {
      return false;
    }
  }
  return true;
}

int RunCommand(const Args& args) {
  Context ctx;
  ctx.args = args;
  ctx.spans = SpanLog(args.trace);
  ctx.run_dir = args.work + "/run-" + std::to_string(getpid());
  std::error_code ec;
  fs::create_directories(ctx.run_dir, ec);
  fs::create_directories(args.work + "/reports", ec);
  fs::create_directories(args.work + "/traces", ec);

  const Fingerprint fp = CurrentFingerprint();
  std::printf("newsbench %s seed=%llu seconds=%g trace=%d\n",
              WorkloadName(args.workload),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("fingerprint: %s\n", Describe(fp).c_str());
  std::fflush(stdout);

  switch (args.workload) {
    case Workload::kServeRefresh:
      RunServeRefresh(ctx);
      break;
    case Workload::kPredictSingle:
      RunPredictSingle(ctx);
      break;
  }
  ctx.E2e("peak_rss_mb", PeakRssMb(), "MB");
  ctx.E2e("ok_ratio",
          ctx.tally.attempted > 0
              ? static_cast<double>(ctx.tally.attempted - ctx.tally.failed) /
                    static_cast<double>(ctx.tally.attempted)
              : 0.0,
          "1");
  fs::remove_all(ctx.run_dir, ec);

  PrintTable(ctx);
  if (ctx.sizing_error) {
    std::fprintf(stderr, "run too small for the reported percentiles\n");
    return 3;
  }
  WriteReport(ctx, fp);
  std::printf("%s\n", ResultLine(ctx).c_str());
  return ctx.tally.failed == 0 ? 0 : 1;
}

int CompareCommand(int argc, char** argv) {
  if (argc != 5) return Usage();
  auto read = [](const char* path, std::string* out) {
    std::ifstream in(path);
    if (!in) return false;
    std::stringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
  };
  std::string spec_text, base_text, current_text;
  if (!read(argv[2], &spec_text) || !read(argv[3], &base_text) ||
      !read(argv[4], &current_text)) {
    std::fprintf(stderr, "compare: cannot read an input file\n");
    return 2;
  }
  const auto specs = ParseMetricSpecs(spec_text);
  const auto base = ParseRunReport(base_text);
  const auto current = ParseRunReport(current_text);
  if (!specs.ok() || !base.ok() || !current.ok()) {
    std::fprintf(stderr, "compare: malformed input\n");
    return 2;
  }
  const Comparison c = Compare(*specs, *base, *current);
  std::printf("%-20s %14s %14s %9s\n", "metric", "base", "current", "worse");
  for (const MetricDelta& d : c.deltas) {
    std::printf("%-20s %14.6g %14.6g %8.2f%%%s\n", d.name.c_str(), d.base,
                d.current, 100.0 * d.worsening,
                d.beyond_bound && c.verdict != Verdict::kReportOnly
                    ? "  beyond bound"
                    : "");
  }
  std::printf("verdict: %s%s%s\n", VerdictName(c.verdict),
              c.reason.empty() ? "" : " — ", c.reason.c_str());
  return c.verdict == Verdict::kRegressed ? 1 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "compare") return CompareCommand(argc, argv);
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (command == "prepare") {
    std::error_code ec;
    std::filesystem::create_directories(args.work + "/artifacts", ec);
    const newsdiff::Status s =
        PrepareEmbeddings(args.work + "/artifacts/pretrained_300d.txt");
    if (!s.ok()) {
      std::fprintf(stderr, "prepare: %s\n", s.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (command == "run") return RunCommand(args);
  return Usage();
}
