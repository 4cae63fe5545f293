// An in-process model of muved, used twice:
//
//   * as the answer check: every recommend a run sent is answered again
//     by Recommender::Recommend in this process, over the table version
//     the server read, and its top-k must equal the served one;
//   * as the traced replay: the same answers, with a span around each
//     call into a layer's public functions, in the order muved makes
//     them (JSON parse, SQL parse + canonical key, filter through the
//     selection cache, Recommender::Create, the fused base build,
//     Recommend, JSON write; CSV parse, Catalog::Append and
//     ApplyAppendDeltas for appends).
//
// The model mirrors muved's registry (32 entries, oldest evicted), its
// per-predicate base-histogram stores, the selection cache and the
// 256-entry result cache, so a cold key builds and a warm key reuses
// just as on the server.  The one deliberate difference: the fused
// base build that Recommend would run as its prewarm is called first,
// through BaseHistogramCache::FusedBuild, so that it gets a span of its
// own.  Recommend then finds every base cached.

#ifndef MUVEBENCH_MIRROR_H_
#define MUVEBENCH_MIRROR_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/exec_stats.h"
#include "core/recommender.h"
#include "server/json.h"
#include "storage/aggregate.h"
#include "storage/base_histogram_cache.h"
#include "storage/catalog.h"
#include "storage/selection_cache.h"
#include "trace.h"
#include "wire.h"

namespace muvebench {

// What answering one event in-process did.
struct Answer {
  muve::common::Status status;
  bool computed = false;  // the result cache missed and the search ran
  JsonValue views;        // the top-k as muved serializes it
  muve::core::ExecStats exec;
  // Fused base builds for this request: sides (target, comparison)
  // looked at, sides found fully cached, and rows the builds scanned.
  int64_t sides = 0;
  int64_t sides_cached = 0;
  int64_t build_rows = 0;
  int64_t filter_chunks_skipped = 0;
  // Appends.
  int64_t rows_appended = 0;
  int64_t ingest_rows = 0;
  double total_ms = 0.0;
  std::vector<Span> spans;  // empty unless traced
};

class Mirror {
 public:
  Mirror();
  Mirror(const Mirror&) = delete;
  Mirror& operator=(const Mirror&) = delete;

  // Applies setup frames (create / append), untraced.
  muve::common::Status Load(const std::vector<JsonValue>& frames);

  // Answers one logged event (recommend or append).
  Answer Apply(const Event& event, int64_t request_id, bool traced);

  muve::storage::SelectionCache::Stats selection_stats() const {
    return selection_.TotalStats();
  }

 private:
  struct Spec {
    std::vector<std::string> dimensions;
    std::vector<std::string> measures;
    std::vector<muve::storage::AggregateFunction> functions;
    std::vector<std::string> categorical;
    std::string default_predicate;
  };
  struct Entry {
    std::string key;
    std::string dataset;
    std::shared_ptr<const muve::core::Recommender> recommender;
    std::shared_ptr<muve::storage::BaseHistogramCache> bases;
  };
  struct SharedBases {
    std::shared_ptr<muve::storage::BaseHistogramCache> cache;
    std::string dataset;
    std::string predicate_sql;
  };

  muve::common::Status Create(const JsonValue& request);
  void Recommend(const JsonValue& request, Trace* trace, Answer* answer);
  void Append(const JsonValue& request, Trace* trace, Answer* answer);
  muve::common::Result<Entry> GetRecommender(const std::string& dataset,
                                             const std::string& predicate,
                                             Trace* trace, Answer* answer);
  void BuildBases(const Entry& entry, int threads, Answer* answer);
  void Purge(const std::string& dataset);

  muve::storage::Catalog catalog_;
  muve::storage::SelectionCache selection_;
  std::mutex mu_;  // guards everything below
  std::unordered_map<std::string, Spec> specs_;
  std::vector<Entry> registry_;  // oldest first
  std::unordered_map<std::string, SharedBases> bases_;
  std::list<std::string> results_lru_;  // front = most recent
  std::unordered_map<std::string, JsonValue> results_;
};

// Replays a run's events through a fresh Mirror, one table version at a
// time (appends between versions, recommends of a version on `workers`
// threads), and checks each served top-k against the in-process one on
// the versions the server may have read.  Answers are indexed like
// `events` (first attempt only).
struct Replay {
  std::vector<Answer> answers;
  std::vector<std::string> mismatches;
  muve::storage::SelectionCache::Stats selection;
};
muve::common::Result<Replay> ReplayEvents(
    const std::vector<JsonValue>& load_frames, const std::vector<Event>& events,
    int workers, bool traced);

// The scale workloads' end check: the last served default recommend on
// the grown scale table equals a cold in-process reload of the same rows
// (MakeScaleTable, fresh caches).
muve::common::Status CheckColdReload(const std::vector<Event>& events);

}  // namespace muvebench

#endif  // MUVEBENCH_MIRROR_H_
