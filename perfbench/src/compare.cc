#include "compare.h"

#include <cstdio>

#include "store/json.h"
#include "store/value.h"

namespace perfbench {

using newsdiff::Status;
using newsdiff::StatusOr;
namespace store = newsdiff::store;

namespace {

StatusOr<store::Value> ParseObject(const std::string& json) {
  StatusOr<store::Value> v = store::ParseJson(json);
  if (!v.ok()) return v.status();
  if (!v->is_object()) return Status::ParseError("expected a JSON object");
  return v;
}

}  // namespace

StatusOr<std::vector<MetricSpec>> ParseMetricSpecs(
    const std::string& benchmark_json) {
  StatusOr<store::Value> root = ParseObject(benchmark_json);
  if (!root.ok()) return root.status();
  const store::Value* list = root->Find("end_to_end");
  if (list == nullptr || !list->is_array()) {
    return Status::ParseError("BENCHMARK.json: no end_to_end list");
  }
  std::vector<MetricSpec> specs;
  for (const store::Value& m : list->array()) {
    const store::Value* name = m.Find("name");
    const store::Value* better = m.Find("better");
    const store::Value* bound = m.Find("bound");
    if (name == nullptr || better == nullptr || bound == nullptr) {
      return Status::ParseError("BENCHMARK.json: incomplete metric");
    }
    MetricSpec spec;
    spec.name = name->AsString();
    if (const store::Value* unit = m.Find("unit")) spec.unit = unit->AsString();
    spec.lower_is_better = better->AsString() == "lower";
    spec.bound = bound->AsDouble();
    specs.push_back(spec);
  }
  return specs;
}

StatusOr<RunReport> ParseRunReport(const std::string& json) {
  StatusOr<store::Value> root = ParseObject(json);
  if (!root.ok()) return root.status();
  const store::Value* fp = root->Find("fingerprint");
  const store::Value* metrics = root->Find("metrics");
  if (fp == nullptr || !fp->is_object() || metrics == nullptr ||
      !metrics->is_object()) {
    return Status::ParseError("report: missing fingerprint or metrics");
  }
  RunReport report;
  if (const store::Value* w = root->Find("workload")) {
    report.workload = w->AsString();
  }
  if (const store::Value* s = root->Find("seed")) {
    report.seed = static_cast<uint64_t>(s->AsInt());
  }
  auto field = [&](const char* key) -> const store::Value* {
    return fp->Find(key);
  };
  if (const store::Value* v = field("cores")) {
    report.fingerprint.cores = static_cast<unsigned>(v->AsInt());
  }
  if (const store::Value* v = field("isa")) report.fingerprint.isa = v->AsString();
  if (const store::Value* v = field("compiler")) {
    report.fingerprint.compiler = v->AsString();
  }
  if (const store::Value* v = field("build_type")) {
    report.fingerprint.build_type = v->AsString();
  }
  for (const auto& [name, entry] : metrics->object()) {
    const store::Value* value = entry.Find("value");
    if (value != nullptr && value->is_number()) {
      report.metrics[name] = value->AsDouble();
    }
  }
  return report;
}

std::string RunReportJson(const RunReport& report) {
  store::Object metrics;
  for (const auto& [name, value] : report.metrics) {
    metrics.emplace_back(name, store::MakeObject({{"value", value}}));
  }
  const Fingerprint& fp = report.fingerprint;
  return store::ToJson(store::MakeObject({
      {"workload", report.workload},
      {"seed", static_cast<int64_t>(report.seed)},
      {"fingerprint",
       store::MakeObject({{"cores", static_cast<int64_t>(fp.cores)},
                          {"isa", fp.isa},
                          {"compiler", fp.compiler},
                          {"build_type", fp.build_type}})},
      {"metrics", store::Value(std::move(metrics))},
  }));
}

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kPass:
      return "pass";
    case Verdict::kRegressed:
      return "regressed";
    case Verdict::kReportOnly:
      return "report-only";
  }
  return "?";
}

Comparison Compare(const std::vector<MetricSpec>& specs, const RunReport& base,
                   const RunReport& current) {
  Comparison out;
  bool judged = true;
  if (!(base.fingerprint == current.fingerprint)) {
    judged = false;
    out.reason = "fingerprints differ: base [" + Describe(base.fingerprint) +
                 "] vs current [" + Describe(current.fingerprint) + "]";
  } else if (base.workload != current.workload) {
    judged = false;
    out.reason = "workloads differ: " + base.workload + " vs " +
                 current.workload;
  }
  bool regressed = false;
  for (const MetricSpec& spec : specs) {
    auto b = base.metrics.find(spec.name);
    auto c = current.metrics.find(spec.name);
    if (b == base.metrics.end() || c == current.metrics.end()) continue;
    MetricDelta d;
    d.name = spec.name;
    d.base = b->second;
    d.current = c->second;
    if (d.base != 0.0) {
      const double change = (d.current - d.base) / d.base;
      d.worsening = spec.lower_is_better ? change : -change;
    }
    d.beyond_bound = d.worsening > spec.bound;
    regressed = regressed || d.beyond_bound;
    out.deltas.push_back(d);
  }
  if (!judged) {
    out.verdict = Verdict::kReportOnly;
  } else {
    out.verdict = regressed ? Verdict::kRegressed : Verdict::kPass;
  }
  return out;
}

}  // namespace perfbench
