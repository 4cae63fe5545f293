#include "trace.h"

#include <chrono>

namespace muvebench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string LayerOf(const std::string& span_name) {
  const size_t dot = span_name.find('.');
  return dot == std::string::npos ? "bench" : span_name.substr(0, dot);
}

Trace::Scope::Scope(Trace* trace, const char* name) : trace_(trace) {
  if (trace_ == nullptr || !trace_->enabled_) return;
  Span span;
  span.name = name;
  span.parent = trace_->open_.empty() ? -1 : trace_->open_.back();
  span.request_id = trace_->request_id_;
  index_ = static_cast<int>(trace_->spans_.size());
  trace_->spans_.push_back(std::move(span));
  trace_->open_.push_back(index_);
  trace_->spans_[index_].start_ns = NowNs();
}

Trace::Scope::~Scope() {
  if (index_ < 0) return;
  trace_->spans_[index_].end_ns = NowNs();
  trace_->open_.pop_back();
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& span : spans) {
    if (span.parent >= 0) self[span.parent] -= span.end_ns - span.start_ns;
  }
  return self;
}

void WriteSpans(const std::vector<Span>& spans, std::ostream& out) {
  for (const Span& span : spans) {
    out << "{\"request\":" << span.request_id << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"parent\":" << span.parent << "}\n";
  }
}

}  // namespace muvebench
