#include "driver/spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

// Innermost open span (and its root) on this thread.
thread_local int64_t tls_current = 0;
thread_local int64_t tls_trace = 0;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* layer,
                           std::string name, int64_t explicit_parent) {
  if (recorder == nullptr || !recorder->enabled()) return;
  recorder_ = recorder;
  {
    std::lock_guard<std::mutex> lock(recorder->mutex_);
    span_.id = recorder->next_id_++;
  }
  span_.layer = layer;
  span_.name = std::move(name);
  saved_parent_ = tls_current;
  saved_trace_ = tls_trace;
  if (explicit_parent != 0) {
    span_.parent = explicit_parent;
    span_.trace = explicit_parent;
  } else {
    span_.parent = tls_current;
    span_.trace = tls_current == 0 ? span_.id : tls_trace;
  }
  tls_current = span_.id;
  tls_trace = span_.trace;
  span_.start_s = recorder->Now();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  span_.end_s = recorder_->Now();
  tls_current = saved_parent_;
  tls_trace = saved_trace_;
  std::lock_guard<std::mutex> lock(recorder_->mutex_);
  recorder_->spans_.push_back(std::move(span_));
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> SpanRecorder::SelfSeconds() const {
  const std::vector<Span> all = spans();
  std::unordered_map<int64_t, std::vector<const Span*>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self;
  for (const Span& s : all) {
    // Union of the children's intervals, clipped to the parent's; children
    // on other threads may overlap each other.
    std::vector<std::pair<double, double>> covered;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const double a = std::max(c->start_s, s.start_s);
        const double b = std::min(c->end_s, s.end_s);
        if (b > a) covered.emplace_back(a, b);
      }
    }
    std::sort(covered.begin(), covered.end());
    double covered_s = 0;
    double run_start = 0;
    double run_end = -1;
    for (const auto& [a, b] : covered) {
      if (a > run_end) {
        if (run_end > run_start) covered_s += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end > run_start) covered_s += run_end - run_start;
    self[s.layer] += std::max(0.0, (s.end_s - s.start_s) - covered_s);
  }
  return self;
}

bool SpanRecorder::WriteJson(
    const std::string& path,
    const std::map<std::string, std::string>& fields) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  for (const auto& [key, value] : fields) {
    std::fprintf(f, "  %s: %s,\n", JsonString(key).c_str(), value.c_str());
  }
  std::fprintf(f, "  \"spans\": [");
  bool first = true;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "%s\n    {\"id\": %lld, \"parent\": %lld, \"trace\": %lld, "
                 "\"layer\": %s, \"name\": %s, \"start_s\": %.9f, "
                 "\"end_s\": %.9f}",
                 first ? "" : ",", static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.trace), JsonString(s.layer).c_str(),
                 JsonString(s.name).c_str(), s.start_s, s.end_s);
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
