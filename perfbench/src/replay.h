#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "la/matrix.h"
#include "serving.h"
#include "trace.h"

namespace perfbench {

/// Replayed stages must account for the whole call they replay within
/// this share of its median time (checked on medians).
inline constexpr double kStageTolerance = 0.25;

/// BuildIndex timed whole, then replayed stage by stage from the public
/// calls it is made of: core::LoadNews/LoadTweets (store read),
/// core::BuildNewsED/BuildTwitterED (tokenize), InvertedIndex::Build
/// (invert), HashedFeaturizer::FeaturizeCorpus (featurize),
/// serve::TrainInterestModel (train) and IndexStore::Save (persist).
/// publish residual = BuildIndex minus the stage sum.
struct RefreshReplay {
  std::vector<double> build_ms, hold_ms, read_ms, tokenize_ms, invert_ms,
      featurize_ms, train_ms, persist_ms, residual_ms;
  /// From the last repetition, so they match the Engine's current
  /// generation (the store is locked for each repetition).
  Corpora corpora;
  newsdiff::la::Matrix tweet_features;
};

/// Runs `reps` repetitions; each holds the store lock for BuildIndex and
/// its replay. Replayed indexes persist under `replay_dir`.
RefreshReplay ReplayRefresh(ServingSystem& sys, const std::string& replay_dir,
                            size_t reps, SpanLog& log, Tally& tally);

/// PredictInterest timed whole, then replayed from its public stages:
/// text::PreprocessNewsED, InvertedIndex::TopK on the pinned
/// IndexSnapshot(), a feature-row gather, InferenceServer::Predict (and
/// PredictDirect, to price the queue hop). residual = PredictInterest
/// minus tokenize + top-k + gather + Predict.
struct QueryReplay {
  std::vector<double> predict_interest_us, tokenize_us, query_terms,
      tweets_topk_us, gather_us, predict_us, direct_us, residual_us,
      news_topk_us;
  uint64_t candidates = 0;
  uint64_t docs_scored = 0;
  uint64_t blocks_decoded = 0;
};

/// Replays `drafts` (k = `k`) and `trending` (k = kOpenLoopK). The order
/// of the whole call and its replay alternates per draft so neither side
/// always runs on warm caches. Checks: the replayed top-k equals the
/// Engine's neighbors, Predict equals PredictDirect bit for bit.
QueryReplay ReplayQueries(ServingSystem& sys, const RefreshReplay& fresh,
                          const std::vector<std::string>& drafts, size_t k,
                          const std::vector<std::string>& trending,
                          SpanLog& log, Tally& tally);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
