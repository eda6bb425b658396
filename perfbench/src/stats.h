#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Exact nearest-rank percentile: the smallest sample with at least
/// `p * n` samples at or below it (p in [0, 1]). Computed from every
/// sample, never from histogram buckets. 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Classic median: the middle sample, or the mean of the two middle
/// samples for an even count. 0 for an empty sample.
double Median(std::vector<double> samples);

/// Samples that lie strictly beyond the nearest-rank `p` percentile of a
/// sample of `n`.
size_t SamplesBeyond(size_t n, double p);

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that its value is one or two outliers, not a tail.
inline constexpr size_t kMinTailSamples = 10;

/// True when SamplesBeyond(n, p) >= kMinTailSamples.
bool SupportsPercentile(size_t n, double p);

/// Median and p99 of one request class, with its sample count.
struct LatencySummary {
  size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool p99_supported = false;
};

/// Summarizes per-request samples. A failed or refused request is entered
/// as +infinity, so it misses every latency limit.
LatencySummary Summarize(const std::vector<double>& samples);

/// Summarizes a closed loop timed in chunks spread over a run: p50 over
/// every sample, p99 the median of the chunks' own p99s, so one chunk
/// that met a slow spell of a shared host does not set the tail. The p99
/// is supported only when every chunk supports its own.
LatencySummary SummarizeChunks(const std::vector<std::vector<double>>& chunks);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
