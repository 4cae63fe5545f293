// Request tracing for the benchmark's in-process replay.
//
// Each replayed request owns one Trace.  Scopes opened on it record a
// span at a layer boundary: name ("<layer>.<what>"), start, end, the
// span that was open when it started (its parent) and the request id
// shared by every span of the request.  Spans stay in memory and are
// written out when the benchmark ends.  A disabled Trace records
// nothing and reads no clock, so the untraced replay pays no tracing
// cost at all.

#ifndef MUVEBENCH_TRACE_H_
#define MUVEBENCH_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace muvebench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the same request's spans; -1 = root
  int64_t request_id = 0;
};

// Monotonic clock in nanoseconds.
int64_t NowNs();

// The layer a span belongs to: the name up to its first '.', or "bench"
// for names without one (the replay's own request glue).
std::string LayerOf(const std::string& span_name);

class Trace {
 public:
  Trace(int64_t request_id, bool enabled)
      : request_id_(request_id), enabled_(enabled) {}

  // Closes its span when destroyed.
  class Scope {
   public:
    Scope(Trace* trace, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* trace_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t request_id_;
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indexes
};

// Self time of each span: its duration minus the part of it that its
// child spans cover.  Children of one span never overlap (a request's
// spans come from one thread).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

// One JSON object per line per span.
void WriteSpans(const std::vector<Span>& spans, std::ostream& out);

}  // namespace muvebench

#endif  // MUVEBENCH_TRACE_H_
