#ifndef PERFBENCH_OFFLINE_H_
#define PERFBENCH_OFFLINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/features.h"
#include "core/pipeline.h"
#include "embed/pretrained.h"
#include "serving.h"
#include "store/database.h"
#include "trace.h"

namespace perfbench {

/// The paper's offline analysis inputs: the 3000-article / 9000-tweet
/// bench world in a store, and the frozen embedding store.
struct PipelineSystem {
  newsdiff::store::Database db;
  std::optional<newsdiff::embed::PretrainedStore> embeddings;
};

/// Trains the frozen embedding store into `path` unless it is already
/// there. Runs before any timed run, in its own process.
newsdiff::Status PrepareEmbeddings(const std::string& path);

/// World generation + store load + loading the prebuilt embedding store.
std::unique_ptr<PipelineSystem> SetUpPipeline(const std::string& embeddings,
                                              Tally& tally);

/// One pass of the paper's analysis and its MLP 1 evaluation.
struct PipelineRun {
  double total_ms = 0.0;
  double load_inputs_ms = 0.0;
  double nmf_ms = 0.0;
  double news_mabed_ms = 0.0;
  double twitter_mabed_ms = 0.0;
  double trending_ms = 0.0;
  double correlation_ms = 0.0;
  double assign_ms = 0.0;
  double dataset_ms = 0.0;  // BuildDataset, A1 + A2
  double train_ms = 0.0;    // MLP 1 train + evaluate, A1 + A2
  size_t epochs = 0;        // A1 + A2
  double accuracy_a1 = 0.0;
  double accuracy_a2 = 0.0;
  /// FNV-1a over every stage output and both accuracies' bits: equal
  /// digests mean bitwise-equal results.
  uint64_t digest = 0;
};

/// One pass of core::Pipeline stages + BuildDataset + MLP 1 training on
/// A1 and A2, one stage per Step() so a run can interleave the stages
/// with other measurements; each stage is a span. Checks: every stage
/// succeeds and the paper's headline shape holds (A2, with metadata,
/// beats A1).
class PipelinePass {
 public:
  PipelinePass(PipelineSystem& sys, uint64_t pass, SpanLog& log, Tally& tally);

  bool done() const { return next_ >= kStages; }
  /// Runs the next stage.
  void Step();
  /// Complete once done(); total_ms is the sum of the stage times.
  const PipelineRun& run() const { return run_; }

 private:
  static constexpr size_t kStages = 11;

  PipelineSystem& sys_;
  uint64_t pass_;
  SpanLog& log_;
  Tally& tally_;
  newsdiff::core::Pipeline pipeline_;
  newsdiff::core::PipelineResult result_;
  newsdiff::core::TrainingDataset dataset_;
  size_t next_ = 0;
  bool ok_ = true;
  PipelineRun run_;
};

}  // namespace perfbench

#endif  // PERFBENCH_OFFLINE_H_
