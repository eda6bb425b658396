#include "trace.h"

#include <cstdio>

namespace perfbench {

uint32_t SpanLog::Open(const char* name, uint64_t request, uint32_t parent) {
  if (!enabled_) return Span::kNoParent;
  const int64_t now = NowNanos();
  return Add(name, request, now, now, parent);
}

void SpanLog::Close(uint32_t index) {
  if (!enabled_ || index >= spans_.size()) return;
  spans_[index].end_ns = NowNanos();
}

uint32_t SpanLog::Add(const char* name, uint64_t request, int64_t start_ns,
                      int64_t end_ns, uint32_t parent) {
  if (!enabled_) return Span::kNoParent;
  Span s;
  s.name = name;
  s.request = request;
  s.parent = parent;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
  return static_cast<uint32_t>(spans_.size() - 1);
}

void SpanLog::Merge(const SpanLog& other) {
  const uint32_t base = static_cast<uint32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent != Span::kNoParent) s.parent += base;
    spans_.push_back(s);
  }
}

std::vector<double> SpanLog::Micros(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.micros());
  }
  return out;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"request\": %llu, \"parent\": %lld, "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 s.name, static_cast<unsigned long long>(s.request),
                 s.parent == Span::kNoParent ? -1LL
                                             : static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
