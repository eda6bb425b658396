#include "replay.h"

#include <algorithm>
#include <utility>

#include "common/file_io.h"
#include "core/collection.h"
#include "core/preprocess.h"
#include "datagen/world.h"
#include "index/index.h"
#include "serve/features.h"
#include "serve/trainer.h"
#include "text/pipeline.h"

namespace perfbench {

using newsdiff::StatusOr;
namespace core = newsdiff::core;
namespace index = newsdiff::index;
namespace serve = newsdiff::serve;
namespace la = newsdiff::la;

namespace {

double Micros(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e3;
}

/// Times `fn` as a span named `name` (child of `parent`); returns ms.
template <typename Fn>
double TimedMs(SpanLog& log, const char* name, uint64_t request,
               uint32_t parent, Fn&& fn) {
  const int64_t t0 = NowNanos();
  fn();
  const int64_t t1 = NowNanos();
  log.Add(name, request, t0, t1, parent);
  return MillisBetween(t0, t1);
}

}  // namespace

RefreshReplay ReplayRefresh(ServingSystem& sys, const std::string& replay_dir,
                            size_t reps, SpanLog& log, Tally& tally) {
  RefreshReplay out;
  const newsdiff::EngineOptions& options = sys.engine->options();
  const serve::ServingOptions serving = options.ServingView();
  index::IndexStore persisted(newsdiff::DefaultFileIo(), replay_dir, 2);
  for (size_t rep = 0; rep < reps; ++rep) {
    const int64_t wait_start = NowNanos();
    std::lock_guard<std::mutex> lock(sys.db_mu);
    const int64_t locked = NowNanos();
    log.Add("store.lock_wait", rep, wait_start, locked);

    const uint32_t build_span = log.Open("core.build_index", rep);
    StatusOr<newsdiff::BuildIndexReport> built = sys.engine->BuildIndex(sys.db);
    log.Close(build_span);
    const int64_t built_at = NowNanos();
    tally.Add(built.ok(), built.ok() ? "" : "BuildIndex: " +
                                                built.status().ToString());
    out.build_ms.push_back(MillisBetween(locked, built_at));
    out.hold_ms.push_back(MillisBetween(locked, built_at));

    const uint32_t replay = log.Open("core.refresh_replay", rep);
    StatusOr<std::vector<core::NewsRecord>> news =
        newsdiff::Status::Internal("unread");
    StatusOr<std::vector<core::TweetRecord>> tweets =
        newsdiff::Status::Internal("unread");
    const double read = TimedMs(log, "store.read", rep, replay, [&] {
      news = core::LoadNews(sys.db);
      tweets = core::LoadTweets(sys.db);
    });
    if (!news.ok() || !tweets.ok()) {
      log.Close(replay);
      tally.Add(false, "replay: store read failed");
      continue;
    }
    Corpora corpora;
    const double tokenize =
        TimedMs(log, "text.corpus_tokenize", rep, replay, [&] {
          corpora.news = core::BuildNewsED(*news);
          corpora.tweets = core::BuildTwitterED(*tweets);
        });
    std::vector<double> labels;
    labels.reserve(tweets->size());
    for (const core::TweetRecord& t : *tweets) {
      labels.push_back(
          static_cast<double>(newsdiff::datagen::EncodeCountClass(t.likes)));
    }
    std::map<std::string, index::InvertedIndex> indexes;
    bool ok = true;
    const double invert = TimedMs(log, "index.invert", rep, replay, [&] {
      StatusOr<index::InvertedIndex> n =
          index::InvertedIndex::Build(corpora.news, options.index);
      StatusOr<index::InvertedIndex> t =
          index::InvertedIndex::Build(corpora.tweets, options.index, labels);
      ok = n.ok() && t.ok();
      if (ok) {
        indexes.emplace("news", std::move(*n));
        indexes.emplace("tweets", std::move(*t));
      }
    });
    la::Matrix features;
    const double featurize = TimedMs(log, "serve.featurize", rep, replay, [&] {
      features = serve::HashedFeaturizer(serving.model.feature_dim)
                     .FeaturizeCorpus(corpora.tweets);
    });
    const double train = TimedMs(log, "serve.train", rep, replay, [&] {
      const int max_class = static_cast<int>(serving.model.num_classes) - 1;
      std::vector<int> classes;
      classes.reserve(labels.size());
      for (double l : labels) {
        classes.push_back(std::clamp(static_cast<int>(l), 0, max_class));
      }
      ok = serve::TrainInterestModel(features, classes, serving.model).ok() && ok;
    });
    const double persist = TimedMs(log, "index.persist", rep, replay, [&] {
      ok = persisted.Save(indexes).ok() && ok;
    });
    log.Close(replay);
    tally.Add(ok, "replayed refresh stage failed");

    out.read_ms.push_back(read);
    out.tokenize_ms.push_back(tokenize);
    out.invert_ms.push_back(invert);
    out.featurize_ms.push_back(featurize);
    out.train_ms.push_back(train);
    out.persist_ms.push_back(persist);
    out.residual_ms.push_back(out.build_ms.back() -
                              (read + tokenize + invert + featurize + train +
                               persist));
    out.corpora = std::move(corpora);
    out.tweet_features = std::move(features);
  }
  return out;
}

QueryReplay ReplayQueries(ServingSystem& sys, const RefreshReplay& fresh,
                          const std::vector<std::string>& drafts, size_t k,
                          const std::vector<std::string>& trending,
                          SpanLog& log, Tally& tally) {
  QueryReplay out;
  serve::InferenceServer* server = sys.engine->inference_server();
  const la::Matrix& features = fresh.tweet_features;
  uint64_t request = 0;
  for (const std::string& draft : drafts) {
    ++request;
    // The whole call.
    StatusOr<newsdiff::InterestPrediction> whole =
        newsdiff::Status::Internal("not run");
    double whole_us = 0.0;
    auto run_whole = [&] {
      const int64_t t0 = NowNanos();
      whole = sys.engine->PredictInterest(draft, k);
      const int64_t t1 = NowNanos();
      log.Add("core.predict_interest", request, t0, t1);
      whole_us = Micros(t0, t1);
    };

    // Its replay, stage by stage.
    const uint32_t root = Span::kNoParent;
    std::vector<index::SearchResult> hits;
    index::QueryStats stats;
    double tokenize_us = 0.0, topk_us = 0.0, gather_us = 0.0,
           predict_us = 0.0, direct_us = 0.0;
    bool replay_ok = true;
    auto run_replay = [&] {
      std::vector<std::string> terms;
      tokenize_us = 1e3 * TimedMs(log, "text.query_tokenize", request, root, [&] {
        terms = newsdiff::text::PreprocessNewsED(draft);
      });
      out.query_terms.push_back(static_cast<double>(terms.size()));
      std::shared_ptr<const newsdiff::Engine::IndexMap> snapshot =
          sys.engine->IndexSnapshot();
      auto it = snapshot->find("tweets");
      if (it == snapshot->end()) {
        replay_ok = false;
        return;
      }
      topk_us = 1e3 * TimedMs(log, "index.tweets_topk", request, root, [&] {
        hits = it->second.TopK(terms, k, &stats);
      });
      if (hits.empty() || server == nullptr) return;
      la::Matrix rows;
      gather_us = 1e3 * TimedMs(log, "serve.gather", request, root, [&] {
        rows.Resize(hits.size(), features.cols());
        for (size_t i = 0; i < hits.size(); ++i) {
          if (hits[i].doc >= features.rows()) {
            replay_ok = false;
            return;
          }
          const double* src = features.RowPtr(hits[i].doc);
          std::copy(src, src + features.cols(), rows.RowPtr(i));
        }
      });
      if (!replay_ok) return;
      serve::InferenceServer::Result coalesced = newsdiff::Status::Internal("");
      serve::InferenceServer::Result direct = newsdiff::Status::Internal("");
      predict_us = 1e3 * TimedMs(log, "serve.predict", request, root,
                                 [&] { coalesced = server->Predict(rows); });
      direct_us = 1e3 * TimedMs(log, "serve.predict_direct", request, root,
                                [&] { direct = server->PredictDirect(rows); });
      replay_ok = coalesced.ok() && direct.ok() &&
                  coalesced->data() == direct->data();
    };
    if (request % 2 == 0) {
      run_whole();
      run_replay();
    } else {
      run_replay();
      run_whole();
    }

    // Checks: the replayed top-k is the Engine's neighbor set, and the
    // coalesced and direct model paths agree bit for bit.
    bool same = replay_ok;
    if (whole.ok()) {
      std::vector<std::pair<uint32_t, double>> a, b;
      for (const newsdiff::QueryHit& h : whole->neighbors) {
        a.emplace_back(h.doc, h.score);
      }
      for (const index::SearchResult& r : hits) b.emplace_back(r.doc, r.score);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      same = same && a == b && whole->model_reranked &&
             whole->model_version != 0;
    } else {
      same = same && whole.status().code() == newsdiff::StatusCode::kNotFound &&
             hits.empty();
    }
    tally.Add(same, "replayed query differs from PredictInterest for '" +
                        draft + "'");
    if (hits.empty()) continue;
    out.predict_interest_us.push_back(whole_us);
    out.tokenize_us.push_back(tokenize_us);
    out.tweets_topk_us.push_back(topk_us);
    out.gather_us.push_back(gather_us);
    out.predict_us.push_back(predict_us);
    out.direct_us.push_back(direct_us);
    out.residual_us.push_back(whole_us -
                              (tokenize_us + topk_us + gather_us + predict_us));
    out.candidates += stats.candidates;
    out.docs_scored += stats.docs_scored;
    out.blocks_decoded += stats.blocks_decoded;
  }

  for (const std::string& q : trending) {
    ++request;
    const std::vector<std::string> terms = newsdiff::text::PreprocessNewsED(q);
    std::shared_ptr<const newsdiff::Engine::IndexMap> snapshot =
        sys.engine->IndexSnapshot();
    auto it = snapshot->find("news");
    if (it == snapshot->end()) {
      tally.Add(false, "no news index");
      continue;
    }
    out.news_topk_us.push_back(
        1e3 * TimedMs(log, "index.news_topk", request, Span::kNoParent,
                      [&] { (void)it->second.TopK(terms, kOpenLoopK); }));
  }
  return out;
}

}  // namespace perfbench
