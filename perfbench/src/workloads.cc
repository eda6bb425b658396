#include "workloads.h"

#include <cmath>

#include "common/rng.h"

namespace perfbench {

namespace loadgen = newsdiff::loadgen;

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kServeRefresh:
      return "serve_refresh";
    case Workload::kPredictSingle:
      return "predict_single";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kServeRefresh, Workload::kPredictSingle}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

double LadderRate(size_t rung) {
  return kLadderBase * std::pow(kLadderGrowth, static_cast<double>(rung));
}

loadgen::WorkloadOptions TraceOptions(uint64_t seed, uint64_t stream,
                                      double rate, double seconds,
                                      const OpMix& mix) {
  loadgen::WorkloadOptions options;
  // SplitMix-style stream separation: nearby seeds and streams give
  // unrelated generator states.
  options.seed = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  loadgen::PhaseSpec phase;
  phase.name = "measured";
  phase.duration_seconds = seconds;
  phase.arrival_rate = rate;
  for (size_t c = 0; c < loadgen::kNumOpClasses; ++c) {
    phase.mix[c] = mix.weight[c];
  }
  options.phases = {phase};
  return options;
}

std::vector<loadgen::Request> MakeTrace(uint64_t seed, uint64_t stream,
                                        double rate, double seconds,
                                        const OpMix& mix) {
  return loadgen::WorkloadGenerator(
             TraceOptions(seed, stream, rate, seconds, mix))
      .GenerateTrace();
}

std::vector<size_t> DrawIndexes(uint64_t seed, size_t n, size_t count) {
  std::vector<size_t> out;
  if (n == 0) return out;
  newsdiff::Rng rng(seed ^ 0x5851f42d4c957f2dULL);
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(static_cast<size_t>(rng.NextBelow(n)));
  }
  return out;
}

}  // namespace perfbench
