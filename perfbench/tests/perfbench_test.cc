#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compare.h"
#include "fingerprint.h"
#include "loadgen/workload.h"
#include "replay.h"
#include "serving.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using newsdiff::loadgen::TraceHash;

TEST(PerfbenchTrace, SameSeedSameTraceHash) {
  const auto a = MakeTrace(7, kPrimaryStream, 2000.0, 1.0, kLadderMix);
  const auto b = MakeTrace(7, kPrimaryStream, 2000.0, 1.0, kLadderMix);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(TraceHash(a), TraceHash(b));
  EXPECT_TRUE(a == b);
}

TEST(PerfbenchTrace, DifferentSeedOrStreamDifferentTraceHash) {
  const auto base = MakeTrace(7, kPrimaryStream, 2000.0, 1.0, kLadderMix);
  EXPECT_NE(TraceHash(base),
            TraceHash(MakeTrace(8, kPrimaryStream, 2000.0, 1.0, kLadderMix)));
  EXPECT_NE(TraceHash(base),
            TraceHash(MakeTrace(7, kProbeStream, 2000.0, 1.0, kLadderMix)));
}

TEST(PerfbenchStats, NearestRankPercentiles) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(Percentile(v, 0.50), 50.0);
  EXPECT_EQ(Percentile(v, 0.99), 99.0);
  EXPECT_EQ(Percentile(v, 1.00), 100.0);
  EXPECT_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Percentile({3.0}, 0.99), 3.0);
}

TEST(PerfbenchStats, Median) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(PerfbenchStats, TailSupportNeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(SupportsPercentile(1000, 0.99));
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_FALSE(SupportsPercentile(999, 0.99));
  EXPECT_TRUE(SupportsPercentile(20, 0.5));
  EXPECT_FALSE(SupportsPercentile(0, 0.5));
}

TEST(PerfbenchStats, FailedRequestsMissEveryLimit) {
  std::vector<double> v(1000, 1.0);
  for (size_t i = 0; i < 11; ++i) v[i] = std::numeric_limits<double>::infinity();
  const LatencySummary s = Summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 1.0);
  EXPECT_TRUE(std::isinf(s.p99));
  EXPECT_TRUE(s.p99_supported);
}

TEST(PerfbenchStats, ChunkedP99IsTheMedianOfChunkP99s) {
  // Three chunks of 1000: tails of 2, 3 and 50 (a slow spell).
  std::vector<std::vector<double>> chunks;
  for (double tail : {2.0, 50.0, 3.0}) {
    std::vector<double> c(1000, 1.0);
    for (size_t i = 0; i < 20; ++i) c[i] = tail;
    chunks.push_back(c);
  }
  const LatencySummary s = SummarizeChunks(chunks);
  EXPECT_EQ(s.n, 3000u);
  EXPECT_EQ(s.p50, 1.0);
  EXPECT_EQ(s.p99, 3.0);
  EXPECT_TRUE(s.p99_supported);
  chunks.push_back(std::vector<double>(999, 1.0));  // 9 samples beyond p99
  EXPECT_FALSE(SummarizeChunks(chunks).p99_supported);
  EXPECT_FALSE(SummarizeChunks({}).p99_supported);
}

RunReport Report(unsigned cores, double latency, double rate) {
  RunReport r;
  r.workload = "serve_refresh";
  r.seed = 1;
  r.fingerprint = {cores, "avx2", "gcc 13", "Release"};
  r.metrics = {{"latency_ms", latency}, {"rate", rate}};
  return r;
}

const std::vector<MetricSpec> kSpecs = {{"latency_ms", "ms", true, 0.10},
                                        {"rate", "req/s", false, 0.10}};

TEST(PerfbenchCompare, SameFingerprintIsJudged) {
  EXPECT_EQ(Compare(kSpecs, Report(4, 1.0, 100), Report(4, 1.05, 95)).verdict,
            Verdict::kPass);
  const Comparison slower =
      Compare(kSpecs, Report(4, 1.0, 100), Report(4, 1.2, 100));
  EXPECT_EQ(slower.verdict, Verdict::kRegressed);
  ASSERT_EQ(slower.deltas.size(), 2u);
  EXPECT_TRUE(slower.deltas[0].beyond_bound);
  EXPECT_NEAR(slower.deltas[0].worsening, 0.2, 1e-12);
  // Higher-is-better metrics worsen when they fall.
  const Comparison fewer =
      Compare(kSpecs, Report(4, 1.0, 100), Report(4, 1.0, 80));
  EXPECT_EQ(fewer.verdict, Verdict::kRegressed);
  EXPECT_NEAR(fewer.deltas[1].worsening, 0.2, 1e-12);
}

TEST(PerfbenchCompare, FingerprintMismatchIsReportedNotJudged) {
  const Comparison c =
      Compare(kSpecs, Report(1, 1.0, 100), Report(4, 3.0, 10));
  EXPECT_EQ(c.verdict, Verdict::kReportOnly);
  EXPECT_NE(c.reason.find("fingerprints differ"), std::string::npos);
  ASSERT_EQ(c.deltas.size(), 2u);  // still shown
  RunReport other_isa = Report(4, 3.0, 10);
  other_isa.fingerprint.isa = "avx512_vnni";
  EXPECT_EQ(Compare(kSpecs, Report(4, 1.0, 100), other_isa).verdict,
            Verdict::kReportOnly);
}

TEST(PerfbenchCompare, ReportsRoundTripAndSpecsParse) {
  const RunReport r = Report(4, 1.25, 123.5);
  const auto parsed = ParseRunReport(RunReportJson(r));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->fingerprint, r.fingerprint);
  EXPECT_EQ(parsed->metrics, r.metrics);
  EXPECT_EQ(parsed->workload, "serve_refresh");
  const auto specs = ParseMetricSpecs(
      R"({"end_to_end": [{"name": "rate", "unit": "req/s",
          "better": "higher", "bound": 0.2}]})");
  ASSERT_TRUE(specs.ok());
  ASSERT_EQ(specs->size(), 1u);
  EXPECT_FALSE((*specs)[0].lower_is_better);
  EXPECT_EQ((*specs)[0].bound, 0.2);
  EXPECT_FALSE(ParseMetricSpecs("{}").ok());
}

TEST(PerfbenchSpans, RecordsOnlyWhenEnabled) {
  SpanLog log(true);
  const uint32_t parent = log.Add("outer", 1, 0, 10'000);
  log.Add("inner", 1, 1'000, 4'000, parent);
  log.Add("inner", 1, 5'000, 6'000, parent);
  EXPECT_EQ(log.Micros("outer"), std::vector<double>{10.0});
  EXPECT_EQ(log.Micros("inner"), (std::vector<double>{3.0, 1.0}));
  SpanLog merged(true);
  merged.Add("first", 0, 0, 1);
  merged.Merge(log);
  EXPECT_EQ(merged.spans()[2].parent, 1u);  // re-based onto "outer"
  SpanLog off(false);
  EXPECT_EQ(off.Open("x", 1), Span::kNoParent);
  EXPECT_TRUE(off.spans().empty());
}

// The replayed stages account for PredictInterest and BuildIndex within
// kStageTolerance (medians), and the replay agrees with the Engine.
TEST(PerfbenchReplay, StageSumsMatchTotals) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "perfbench_replay_test").string();
  std::filesystem::remove_all(dir);
  Tally tally;
  std::unique_ptr<ServingSystem> sys = SetUpServing(dir + "/engine", tally);
  SpanLog log(true);
  const RefreshReplay refresh = ReplayRefresh(*sys, dir + "/replay", 3, log, tally);
  std::vector<std::string> drafts;
  for (size_t i : DrawIndexes(3, sys->titles.size(), 200)) {
    drafts.push_back(sys->titles[i]);
  }
  const QueryReplay q =
      ReplayQueries(*sys, refresh, drafts, kEditorK, {"bank rate"}, log, tally);
  std::filesystem::remove_all(dir);

  EXPECT_EQ(tally.failed, 0u) << (tally.failures.empty() ? ""
                                                          : tally.failures[0]);
  const double build = Median(refresh.build_ms);
  const double publish_residual = Median(refresh.residual_ms);
  EXPECT_LE(std::fabs(publish_residual), kStageTolerance * build)
      << "refresh residual " << publish_residual << "ms of " << build << "ms";
  const double whole = Median(q.predict_interest_us);
  const double residual = Median(q.residual_us);
  EXPECT_LE(std::fabs(residual), kStageTolerance * whole)
      << "query residual " << residual << "us of " << whole << "us";
  EXPECT_GT(q.candidates, 0u);
  EXPECT_GE(q.candidates, q.docs_scored);
}

}  // namespace
}  // namespace perfbench
