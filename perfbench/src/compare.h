#ifndef PERFBENCH_COMPARE_H_
#define PERFBENCH_COMPARE_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "fingerprint.h"

namespace perfbench {

/// One end-to-end metric as BENCHMARK.json declares it.
struct MetricSpec {
  std::string name;
  std::string unit;
  bool lower_is_better = true;
  /// Share of the base value by which the metric may worsen.
  double bound = 0.0;
};

/// The report file one benchmark run writes beside its JSON result line.
struct RunReport {
  std::string workload;
  uint64_t seed = 0;
  Fingerprint fingerprint;
  std::map<std::string, double> metrics;
};

/// Reads the "end_to_end" list of BENCHMARK.json.
newsdiff::StatusOr<std::vector<MetricSpec>> ParseMetricSpecs(
    const std::string& benchmark_json);

newsdiff::StatusOr<RunReport> ParseRunReport(const std::string& json);
std::string RunReportJson(const RunReport& report);

enum class Verdict {
  kPass,        // same fingerprint, every metric within its bound
  kRegressed,   // same fingerprint, at least one metric beyond its bound
  kReportOnly,  // fingerprints (or workloads) differ: shown, not judged
};

const char* VerdictName(Verdict v);

struct MetricDelta {
  std::string name;
  double base = 0.0;
  double current = 0.0;
  /// (current - base) / base, signed so that positive means worse.
  double worsening = 0.0;
  bool beyond_bound = false;
};

struct Comparison {
  Verdict verdict = Verdict::kPass;
  std::string reason;  // why a comparison was report-only
  std::vector<MetricDelta> deltas;
};

/// Compares `current` against `base` metric by metric. Metrics missing
/// from either report are skipped. A fingerprint or workload mismatch
/// still lists every delta but never yields kRegressed.
Comparison Compare(const std::vector<MetricSpec>& specs, const RunReport& base,
                   const RunReport& current);

}  // namespace perfbench

#endif  // PERFBENCH_COMPARE_H_
