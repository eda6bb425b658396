#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "loadgen/workload.h"

namespace perfbench {

/// The named workloads (README.md says why each exists).
enum class Workload { kServeRefresh, kPredictSingle };

const char* WorkloadName(Workload w);
/// Parses a workload name; false when unknown.
bool ParseWorkload(const std::string& name, Workload* out);

/// Op mixes, indexed by loadgen::OpClass (ingest, upsert, trending, predict).
struct OpMix {
  double weight[newsdiff::loadgen::kNumOpClasses];
};

/// The max_rate_at_slo ladder: read-dominant (trending 50%, predict 35%,
/// writes 15%).
inline constexpr OpMix kLadderMix = {{0.10, 0.05, 0.50, 0.35}};
/// serve_refresh: write-heavy (ingest 35%, upsert 15%, trending 30%,
/// predict 20%).
inline constexpr OpMix kRefreshMix = {{0.35, 0.15, 0.30, 0.20}};

/// serve_refresh's offered rate (requests/second).
inline constexpr double kRefreshRate = 1000.0;

/// Open-loop request workers. With the refresher (serve_refresh) or the
/// engine's own inference worker (the ladder) that makes four busy
/// threads, one per core of the 4-core reference host; a fifth would
/// queue model calls behind request threads for a CPU.
inline constexpr size_t kRequestWorkers = 3;

/// k for open-loop queries and predictions, and for the editor case.
inline constexpr size_t kOpenLoopK = 10;
inline constexpr size_t kEditorK = 50;

/// max_rate_at_slo: both read classes' service-time p99 within this limit.
inline constexpr double kSloP99Ms = 10.0;
inline constexpr double kSloMinAchieved = 0.95;
/// Lateness may grow by at most this much from the first to the last
/// quarter of a step (a growing backlog fails the step).
inline constexpr double kSloMaxLatenessGrowthMs = 1.0;

/// The fixed rate ladder: kLadderBase * kLadderGrowth^i, i < kLadderRungs.
inline constexpr double kLadderBase = 2000.0;
inline constexpr double kLadderGrowth = 1.05;
inline constexpr size_t kLadderRungs = 72;
double LadderRate(size_t rung);

/// The seeded open-loop trace options for one phase: `seconds` of Poisson
/// arrivals at `rate` with `mix`. `stream` separates independent traces
/// drawn from one benchmark seed (the primary phase, each ladder rung).
newsdiff::loadgen::WorkloadOptions TraceOptions(uint64_t seed, uint64_t stream,
                                                double rate, double seconds,
                                                const OpMix& mix);

/// The generated trace for TraceOptions(...).
std::vector<newsdiff::loadgen::Request> MakeTrace(uint64_t seed,
                                                  uint64_t stream, double rate,
                                                  double seconds,
                                                  const OpMix& mix);

/// Streams used by the benchmark.
inline constexpr uint64_t kPrimaryStream = 1;
inline constexpr uint64_t kProbeStream = 2;
inline constexpr uint64_t kLadderStreamBase = 100;

/// `count` indexes in [0, n) drawn by `seed` (with replacement).
std::vector<size_t> DrawIndexes(uint64_t seed, size_t n, size_t count);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
