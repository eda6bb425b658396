#include "offline.h"

#include <cstring>

#include "core/embedding_cache.h"
#include "core/features.h"
#include "core/pipeline.h"
#include "core/predictor.h"
#include "datagen/world.h"

namespace perfbench {

using newsdiff::Status;
using newsdiff::StatusOr;
namespace core = newsdiff::core;

namespace {

class Fnv {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

uint64_t Digest(const core::PipelineResult& r, double a1, double a2) {
  Fnv h;
  for (const auto& t : r.topics) {
    for (const std::string& w : t.keywords) h.Str(w);
    for (double w : t.weights) h.F64(w);
  }
  for (const auto* events : {&r.news_events, &r.twitter_events}) {
    h.U64(events->size());
    for (const auto& e : *events) {
      h.Str(e.main_word);
      for (const std::string& w : e.related_words) h.Str(w);
      for (double w : e.related_weights) h.F64(w);
      h.U64(e.start_slice);
      h.U64(e.end_slice);
    }
  }
  for (const auto& t : r.trending) {
    h.U64(t.topic_id);
    h.U64(t.news_event);
    h.F64(t.similarity);
  }
  for (const auto& c : r.correlations) {
    h.U64(c.trending);
    h.U64(c.twitter_event);
    h.F64(c.similarity);
  }
  for (const auto& a : r.assignments) {
    h.U64(a.twitter_event);
    for (size_t i : a.tweet_indices) h.U64(i);
  }
  h.F64(a1);
  h.F64(a2);
  return h.value();
}

/// The predictor regime the paper-table benches use (bench/harness.cc).
core::PredictorOptions PaperPredictorOptions() {
  core::PredictorOptions o;
  o.max_epochs = 100;
  o.batch_size = 128;
  o.early_stopping = {true, 1e-4, 5};
  o.seed = 99;
  return o;
}

}  // namespace

Status PrepareEmbeddings(const std::string& path) {
  return core::LoadOrTrainPretrained(path).status();
}

std::unique_ptr<PipelineSystem> SetUpPipeline(const std::string& embeddings,
                                              Tally& tally) {
  auto sys = std::make_unique<PipelineSystem>();
  newsdiff::datagen::WorldOptions options;
  options.num_articles = 3000;
  options.num_tweets = 9000;
  newsdiff::datagen::GenerateWorld(options).LoadInto(sys->db);
  StatusOr<newsdiff::embed::PretrainedStore> loaded =
      core::LoadOrTrainPretrained(embeddings);
  tally.Add(loaded.ok(), loaded.ok() ? "" : "embedding store: " +
                                                loaded.status().ToString());
  if (loaded.ok()) sys->embeddings.emplace(std::move(loaded).value());
  return sys;
}

PipelinePass::PipelinePass(PipelineSystem& sys, uint64_t pass, SpanLog& log,
                           Tally& tally)
    : sys_(sys),
      pass_(pass),
      log_(log),
      tally_(tally),
      pipeline_(core::PipelineOptions{}) {
  if (!sys_.embeddings.has_value()) {
    tally_.Add(false, "pipeline: no embedding store");
    next_ = kStages;
  }
}

void PipelinePass::Step() {
  if (done()) return;
  const newsdiff::embed::PretrainedStore& embeddings = *sys_.embeddings;
  const size_t stage = next_++;
  // A1 (text) in stages 7-8, A2 (text + metadata) in stages 9-10.
  const size_t variant = stage < 9 ? 0 : 1;
  const char* name = "";
  double* ms = nullptr;
  const int64_t t0 = NowNanos();
  Status status;
  switch (stage) {
    case 0:
      name = "core.load_inputs";
      ms = &run_.load_inputs_ms;
      status = pipeline_.LoadInputs(sys_.db, &result_);
      break;
    case 1:
      name = "topic.nmf";
      ms = &run_.nmf_ms;
      status = pipeline_.RunTopics(&result_);
      break;
    case 2:
      name = "event.news_mabed";
      ms = &run_.news_mabed_ms;
      status = pipeline_.RunNewsEvents(&result_);
      break;
    case 3:
      name = "event.twitter_mabed";
      ms = &run_.twitter_mabed_ms;
      status = pipeline_.RunTwitterEvents(&result_);
      break;
    case 4:
      name = "embed.trending";
      ms = &run_.trending_ms;
      status = pipeline_.RunTrending(embeddings, &result_);
      break;
    case 5:
      name = "embed.correlation";
      ms = &run_.correlation_ms;
      status = pipeline_.RunCorrelations(embeddings, &result_);
      break;
    case 6:
      name = "core.assign";
      ms = &run_.assign_ms;
      status = pipeline_.RunAssignments(&result_);
      break;
    case 7:
    case 9:
      name = "core.dataset";
      ms = &run_.dataset_ms;
      dataset_ = core::BuildDataset(
          variant == 0 ? core::DatasetVariant::kA1 : core::DatasetVariant::kA2,
          result_.assignments, result_.twitter_events, result_.twitter_ed,
          result_.tweets, embeddings);
      if (dataset_.x.rows() == 0) {
        status = Status::FailedPrecondition("empty dataset");
      }
      break;
    default: {
      name = "nn.train";
      ms = &run_.train_ms;
      StatusOr<core::EvalOutcome> outcome = core::TrainAndEvaluate(
          dataset_.x, dataset_.likes, core::NetworkKind::kMlp1,
          PaperPredictorOptions());
      if (outcome.ok()) {
        (variant == 0 ? run_.accuracy_a1 : run_.accuracy_a2) = outcome->accuracy;
        run_.epochs += outcome->history.epochs_run;
      } else {
        status = outcome.status();
      }
      break;
    }
  }
  const int64_t t1 = NowNanos();
  log_.Add(name, pass_, t0, t1);
  *ms += MillisBetween(t0, t1);
  run_.total_ms += MillisBetween(t0, t1);
  tally_.Add(status.ok(), std::string(name) + ": " + status.ToString());
  if (!status.ok()) {
    ok_ = false;
    next_ = kStages;  // later stages need this one's output
  }
  if (done()) {
    // The paper's headline shape: metadata features (A2) beat text alone.
    tally_.Add(ok_ && run_.accuracy_a2 > run_.accuracy_a1,
               "pipeline: A2 accuracy does not beat A1");
    run_.digest = Digest(result_, run_.accuracy_a1, run_.accuracy_a2);
  }
}

}  // namespace perfbench
