#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile p in a sample of n (n > 0).
size_t NearestRank(size_t n, double p) {
  const double clamped = std::clamp(p, 0.0, 1.0);
  // The epsilon keeps exact products (0.99 * 1000 = 990) from rounding up
  // to the next rank through floating-point noise.
  const double rank = std::ceil(clamped * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n % 2 == 1) return samples[n / 2];
  return 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - NearestRank(n, p);
}

bool SupportsPercentile(size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinTailSamples;
}

LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.n = samples.size();
  s.p50 = Percentile(samples, 0.50);
  s.p99 = Percentile(samples, 0.99);
  s.p99_supported = SupportsPercentile(s.n, 0.99);
  return s;
}

LatencySummary SummarizeChunks(const std::vector<std::vector<double>>& chunks) {
  std::vector<double> all;
  std::vector<double> chunk_p99;
  bool supported = !chunks.empty();
  for (const std::vector<double>& c : chunks) {
    all.insert(all.end(), c.begin(), c.end());
    chunk_p99.push_back(Percentile(c, 0.99));
    supported = supported && SupportsPercentile(c.size(), 0.99);
  }
  LatencySummary s;
  s.n = all.size();
  s.p50 = Percentile(std::move(all), 0.50);
  s.p99 = Median(std::move(chunk_p99));
  s.p99_supported = supported;
  return s;
}

}  // namespace perfbench
