// The benchmark's own self-tests; run.py runs them before every run.
//
//   * one seed yields byte-identical request frames, another seed
//     different ones;
//   * the tail-percentile rule (at least ten samples beyond, never below
//     the median);
//   * span self-time arithmetic.
//
// Prints each failure and exits 1 if any check fails.

#include <iostream>
#include <string>
#include <vector>

#include "stats.h"
#include "streams.h"
#include "trace.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::cout << "FAIL: " << what << "\n";
    ++failures;
  }
}

std::string Frames(muvebench::WorkloadKind kind, uint64_t seed, int session,
                   int sessions, int count) {
  muvebench::SessionStream stream(kind, seed, session, sessions);
  std::string bytes;
  for (int i = 0; i < count; ++i) bytes += stream.Next().body.Write() + "\n";
  return bytes;
}

void StreamsAreDeterministic() {
  using muvebench::WorkloadKind;
  for (WorkloadKind kind : {WorkloadKind::kPaperExplore,
                            WorkloadKind::kScaleChurn,
                            WorkloadKind::kScaleIngest}) {
    for (int session = 0; session < 2; ++session) {
      const std::string a = Frames(kind, 7, session, 4, 24);
      Check(a == Frames(kind, 7, session, 4, 24),
            "seed 7 frames differ between two generations");
      if (!(kind == WorkloadKind::kScaleIngest && session == 0)) {
        // The ingest writer's stream is fixed by design.
        Check(a != Frames(kind, 8, session, 4, 24),
              "seeds 7 and 8 generate identical frames");
      }
    }
  }
  // Churn sessions never send the same predicate.
  const std::string s0 = Frames(WorkloadKind::kScaleChurn, 3, 0, 2, 1);
  const std::string s1 = Frames(WorkloadKind::kScaleChurn, 3, 1, 2, 1);
  Check(s0 != s1, "churn sessions share a predicate");
}

void TailRule() {
  auto series = [](size_t n) {
    std::vector<double> v;
    for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
    return v;
  };
  muvebench::Tail t = muvebench::TailOf(series(1000));
  Check(t.value == 990.0 && t.percentile == 99.0 && t.beyond == 10,
        "1000 samples: p99 with 10 beyond");
  t = muvebench::TailOf(series(100));
  Check(t.value == 90.0 && t.percentile == 90.0 && t.beyond == 10,
        "100 samples: p90 with 10 beyond");
  t = muvebench::TailOf(series(137));
  Check(t.value == 127.0 && t.beyond == 10, "137 samples: 10 beyond");
  t = muvebench::TailOf(series(21));
  Check(t.value == 11.0 && t.beyond == 10, "21 samples: the median");
  t = muvebench::TailOf(series(14));
  Check(t.value == 8.0 && t.value >= muvebench::Median(series(14)),
        "14 samples: not below the median");
  t = muvebench::TailOf(series(1));
  Check(t.value == 1.0 && t.beyond == 0, "1 sample");
  Check(muvebench::Median({3.0, 1.0, 2.0, 4.0}) == 2.5, "even-count median");
}

void SelfTimes() {
  using muvebench::Span;
  // root [0,100] > a [10,30], b [40,90] > c [50,60]
  std::vector<Span> spans = {{"request", 0, 100, -1, 1},
                             {"server.a", 10, 30, 0, 1},
                             {"core.b", 40, 90, 0, 1},
                             {"storage.c", 50, 60, 2, 1}};
  const std::vector<int64_t> self = muvebench::SelfTimesNs(spans);
  Check(self == std::vector<int64_t>({30, 20, 40, 10}),
        "self time = duration minus children");
  Check(muvebench::LayerOf("storage.filter") == "storage" &&
            muvebench::LayerOf("request") == "bench",
        "layer names");
  // Scopes nest by open order and record the parent.
  muvebench::Trace trace(9, true);
  {
    muvebench::Trace::Scope root(&trace, "request");
    { muvebench::Trace::Scope child(&trace, "sql.parse"); }
  }
  Check(trace.spans().size() == 2 && trace.spans()[1].parent == 0 &&
            trace.spans()[1].request_id == 9 &&
            trace.spans()[0].end_ns >= trace.spans()[1].end_ns,
        "scopes record parent and request id");
  muvebench::Trace off(1, false);
  { muvebench::Trace::Scope root(&off, "request"); }
  Check(off.spans().empty(), "a disabled trace records nothing");
}

}  // namespace

int main() {
  StreamsAreDeterministic();
  TailRule();
  SelfTimes();
  std::cout << (failures == 0 ? "muvebench self-tests passed\n"
                              : "muvebench self-tests FAILED\n");
  return failures == 0 ? 0 : 1;
}
