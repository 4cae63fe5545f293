#include "mirror.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/search_options.h"
#include "data/diab.h"
#include "data/nba.h"
#include "data/scale.h"
#include "server/protocol.h"
#include "sql/parser.h"
#include "storage/csv.h"
#include "storage/ingest.h"
#include "storage/predicate.h"
#include "streams.h"

namespace muvebench {

namespace {

using muve::common::Result;
using muve::common::Status;
using muve::server::ParseJson;
namespace core = muve::core;
namespace storage = muve::storage;

constexpr size_t kRegistryEntries = 32;  // muved's max_recommenders
constexpr size_t kResultEntries = 256;   // muved's result_cache_entries

std::string StringField(const JsonValue& request, const char* name) {
  const JsonValue* field = request.Find(name);
  return field != nullptr && field->is_string() ? field->string_value() : "";
}

int64_t IntField(const JsonValue& request, const char* name, int64_t value) {
  const JsonValue* field = request.Find(name);
  return field != nullptr && field->is_int() ? field->int_value() : value;
}

Result<core::SearchOptions> OptionsFor(const JsonValue& request) {
  core::SearchOptions options;
  const std::string scheme = muve::common::ToLower(
      request.Find("scheme") != nullptr ? StringField(request, "scheme")
                                        : "muve-muve");
  if (scheme == "linear-linear") {
    options.horizontal = core::HorizontalStrategy::kLinear;
    options.vertical = core::VerticalStrategy::kLinear;
  } else if (scheme == "hc-linear") {
    options.horizontal = core::HorizontalStrategy::kHillClimbing;
    options.vertical = core::VerticalStrategy::kLinear;
  } else if (scheme == "muve-linear") {
    options.horizontal = core::HorizontalStrategy::kMuve;
    options.vertical = core::VerticalStrategy::kLinear;
  } else if (scheme == "muve-muve") {
    options.horizontal = core::HorizontalStrategy::kMuve;
    options.vertical = core::VerticalStrategy::kMuve;
  } else {
    return Status::InvalidArgument("unknown scheme " + scheme);
  }
  options.weights = core::Weights::PaperDefault();
  if (const JsonValue* w = request.Find("weights"); w != nullptr) {
    const auto& a = w->array();
    options.weights = core::Weights{a[0].number_value(), a[1].number_value(),
                                    a[2].number_value()};
  }
  options.k = static_cast<int>(IntField(request, "k", 5));
  options.num_threads = static_cast<int>(IntField(request, "threads", 1));
  return options;
}

// muved's canonical result-cache key (server/muved_server.cc).
std::string ResultKey(const std::string& entry_key,
                      const core::SearchOptions& options, int64_t threads) {
  char weights[128];
  std::snprintf(weights, sizeof(weights), "%.17g,%.17g,%.17g",
                options.weights.deviation, options.weights.accuracy,
                options.weights.usability);
  return entry_key + '\x01' + options.SchemeName() + '\x01' +
         std::to_string(options.k) + '\x01' + weights + '\x01' +
         std::to_string(static_cast<int>(options.distance)) + '\x01' +
         std::to_string(static_cast<int>(options.probe_order)) + '\x01' +
         std::to_string(threads);
}

// The `views` array exactly as muved serializes it.
JsonValue SerializeViews(const std::vector<core::ScoredView>& views) {
  JsonValue array = JsonValue::Array();
  for (const core::ScoredView& sv : views) {
    JsonValue v = JsonValue::Object();
    v.Set("dimension", JsonValue::String(sv.view.dimension));
    v.Set("measure", JsonValue::String(sv.view.measure));
    v.Set("function",
          JsonValue::String(storage::AggregateName(sv.view.function)));
    v.Set("bins", JsonValue::Int(sv.bins));
    v.Set("utility", JsonValue::Double(sv.utility));
    v.Set("deviation", JsonValue::Double(sv.deviation));
    v.Set("accuracy", JsonValue::Double(sv.accuracy));
    v.Set("usability", JsonValue::Double(sv.usability));
    array.Append(std::move(v));
  }
  return array;
}

JsonValue RecommendResponse(const std::string& dataset,
                            const core::Recommendation& rec, int64_t k) {
  const core::ExecStats& s = rec.stats;
  JsonValue stats = JsonValue::Object();
  for (const auto& [name, value] :
       {std::pair<const char*, int64_t>{"rows_scanned", s.rows_scanned},
        {"build_rows_scanned", s.build_rows_scanned},
        {"probe_rows_scanned", s.probe_rows_scanned},
        {"base_builds", s.base_builds},
        {"base_cache_hits", s.base_cache_hits},
        {"fused_builds", s.fused_builds},
        {"fused_coalesced", s.fused_coalesced},
        {"chunks_skipped", s.chunks_skipped},
        {"candidates_considered", s.candidates_considered},
        {"fully_probed", s.fully_probed},
        {"views_searched", s.views_searched},
        {"num_workers", s.num_workers}}) {
    stats.Set(name, JsonValue::Int(value));
  }
  JsonValue completeness = JsonValue::Object();
  completeness.Set("status", JsonValue::String(muve::common::StatusCodeName(
                                 s.completeness.status)));
  completeness.Set("views_fully_searched",
                   JsonValue::Int(s.completeness.views_fully_searched));
  completeness.Set("bins_pruned",
                   JsonValue::Int(s.completeness.bins_pruned_by_deadline));
  JsonValue response = muve::server::OkResponse("recommend");
  response.Set("dataset", JsonValue::String(dataset));
  response.Set("scheme", JsonValue::String(rec.scheme));
  response.Set("k", JsonValue::Int(k));
  response.Set("degraded", JsonValue::Bool(s.completeness.degraded));
  response.Set("completeness", std::move(completeness));
  response.Set("views", SerializeViews(rec.views));
  response.Set("stats", std::move(stats));
  return response;
}

}  // namespace

Mirror::Mirror() {
  // The built-in paper tables, registered like muved registers them.
  for (auto [name, ds] : {std::pair{"nba", muve::data::MakeNbaDataset()},
                          std::pair{"diab", muve::data::MakeDiabDataset()}}) {
    Spec spec{ds.dimensions, ds.measures, ds.functions,
              ds.categorical_dimensions, ds.query_predicate_sql};
    const Status st = catalog_.Create(name, ds.table->Clone());
    if (st.ok()) specs_[name] = std::move(spec);
  }
}

Status Mirror::Load(const std::vector<JsonValue>& frames) {
  for (const JsonValue& frame : frames) {
    const std::string op = StringField(frame, "op");
    if (op == "create") {
      MUVE_RETURN_IF_ERROR(Create(frame));
    } else {
      Answer answer;
      Append(frame, nullptr, &answer);
      MUVE_RETURN_IF_ERROR(answer.status);
    }
  }
  return Status::OK();
}

Status Mirror::Create(const JsonValue& request) {
  Spec spec;
  for (const JsonValue& d : request.Find("dims")->array()) {
    spec.dimensions.push_back(d.string_value());
  }
  for (const JsonValue& m : request.Find("measures")->array()) {
    spec.measures.push_back(m.string_value());
  }
  spec.functions = {storage::AggregateFunction::kSum,
                    storage::AggregateFunction::kAvg};
  spec.default_predicate = StringField(request, "predicate");
  MUVE_ASSIGN_OR_RETURN(storage::Table table,
                        storage::ReadCsvString(StringField(request, "csv")));
  const std::string name = StringField(request, "table");
  MUVE_RETURN_IF_ERROR(catalog_.Create(name, std::move(table)));
  std::lock_guard<std::mutex> lock(mu_);
  specs_[name] = std::move(spec);
  return Status::OK();
}

Answer Mirror::Apply(const Event& event, int64_t request_id, bool traced) {
  Answer answer;
  Trace trace(request_id, traced);
  const int64_t start = NowNs();
  {
    Trace::Scope root(&trace, "request");
    JsonValue request;
    {
      Trace::Scope span(&trace, "server.json_parse");
      auto parsed = ParseJson(event.frame);
      if (!parsed.ok()) {
        answer.status = parsed.status();
        return answer;
      }
      request = *std::move(parsed);
    }
    if (event.is_append) {
      Append(request, &trace, &answer);
    } else {
      Recommend(request, &trace, &answer);
    }
  }
  answer.total_ms = (NowNs() - start) / 1e6;
  answer.spans = trace.spans();
  return answer;
}

Result<Mirror::Entry> Mirror::GetRecommender(const std::string& dataset,
                                             const std::string& predicate,
                                             Trace* trace, Answer* answer) {
  MUVE_ASSIGN_OR_RETURN(const storage::Catalog::Snapshot snap,
                        catalog_.Get(dataset));
  Spec spec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spec = specs_.at(dataset);
  }
  std::string canonical;
  muve::sql::SelectStatement stmt;
  if (!predicate.empty()) {
    Trace::Scope span(trace, "sql.parse");
    MUVE_ASSIGN_OR_RETURN(
        stmt, muve::sql::ParseSelect("SELECT * FROM t WHERE " + predicate));
    canonical = storage::CanonicalPredicateKey(*stmt.where);
  }
  const std::string key = dataset + '\x01' + std::to_string(snap.data_epoch) +
                          '\x01' + canonical;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& entry : registry_) {
      if (entry.key == key) return entry;
    }
  }
  const std::string effective =
      predicate.empty() ? spec.default_predicate : predicate;
  if (predicate.empty()) {
    Trace::Scope span(trace, "sql.parse");
    MUVE_ASSIGN_OR_RETURN(
        stmt, muve::sql::ParseSelect("SELECT * FROM t WHERE " + effective));
  }
  muve::data::Dataset base;
  base.name = dataset;
  base.table = snap.table;
  base.dimensions = spec.dimensions;
  base.measures = spec.measures;
  base.functions = spec.functions;
  base.categorical_dimensions = spec.categorical;
  base.query_predicate_sql = effective;
  {
    Trace::Scope span(trace, "storage.filter");
    std::shared_ptr<const storage::RowSet> cached = selection_.Get(key);
    if (cached != nullptr) {
      base.target_rows = *cached;
    } else {
      storage::FilterStats filter_stats;
      MUVE_ASSIGN_OR_RETURN(base.target_rows,
                            storage::Filter(*base.table, stmt.where.get(),
                                            nullptr, &filter_stats));
      base.chunks_skipped = filter_stats.chunks_skipped;
      answer->filter_chunks_skipped = filter_stats.chunks_skipped;
      if (!base.target_rows.empty()) {
        selection_.Put(key, std::make_shared<const storage::RowSet>(
                                base.target_rows));
      }
    }
    if (base.target_rows.empty()) {
      return Status::InvalidArgument("predicate selects no rows");
    }
    base.all_rows = storage::AllRows(base.table->num_rows());
    base.predicate_rows_filtered =
        static_cast<int64_t>(base.table->num_rows() - base.target_rows.size());
  }
  if (!predicate.empty()) base.name += " WHERE " + predicate;
  Entry entry;
  {
    Trace::Scope span(trace, "core.create");
    MUVE_ASSIGN_OR_RETURN(core::Recommender built,
                          core::Recommender::Create(std::move(base)));
    entry.recommender =
        std::make_shared<const core::Recommender>(std::move(built));
  }
  entry.key = key;
  entry.dataset = dataset;
  std::lock_guard<std::mutex> lock(mu_);
  const std::string base_key =
      dataset + '\x01' + std::to_string(snap.base_epoch) + '\x01' + canonical;
  SharedBases& shared = bases_[base_key];
  if (shared.cache == nullptr) {
    shared.cache = std::make_shared<storage::BaseHistogramCache>();
    shared.dataset = dataset;
    shared.predicate_sql = effective;
  }
  entry.bases = shared.cache;
  for (const Entry& existing : registry_) {
    if (existing.key == key) return existing;
  }
  registry_.push_back(entry);
  if (registry_.size() > kRegistryEntries) registry_.erase(registry_.begin());
  return entry;
}

void Mirror::BuildBases(const Entry& entry, int threads, Answer* answer) {
  const core::Recommender& rec = *entry.recommender;
  const muve::data::Dataset& ds = rec.dataset();
  muve::common::ThreadPool pool(static_cast<size_t>(threads));
  for (const bool target : {true, false}) {
    const storage::RowSet& rows = target ? ds.target_rows : ds.all_rows;
    storage::BaseHistogramCache::FusedHistogramBuildRequest request;
    request.rows = &rows;
    request.pool = &pool;
    request.coalesce = true;
    std::vector<std::string> seen;
    for (const core::View& view : rec.space().views()) {
      // ViewEvaluator::CacheEligible: numeric dimension, moment-servable
      // function, non-string measure.
      if (rec.space().dimension_info(view.dimension).categorical) continue;
      if (!storage::BaseServableFunction(view.function)) continue;
      auto measure = ds.table->ColumnByName(view.measure);
      if (!measure.ok() ||
          (*measure)->type() == storage::ValueType::kString) {
        continue;
      }
      std::string key =
          (target ? "t|" : "c|") + view.dimension + "|" + view.measure;
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      seen.push_back(key);
      if (entry.bases->Contains(key, static_cast<int64_t>(rows.size()))) {
        continue;
      }
      request.pairs.push_back({std::move(key), view.dimension, view.measure});
    }
    ++answer->sides;
    if (request.pairs.empty()) {
      ++answer->sides_cached;
      continue;
    }
    storage::BaseHistogramCache::FusedBuildOutcome outcome;
    if (entry.bases->FusedBuild(*ds.table, request, &outcome).ok()) {
      answer->build_rows += outcome.rows_scanned;
    }
  }
}

void Mirror::Recommend(const JsonValue& request, Trace* trace,
                       Answer* answer) {
  const std::string dataset = StringField(request, "dataset");
  auto options = OptionsFor(request);
  if (!options.ok()) {
    answer->status = options.status();
    return;
  }
  const int64_t threads = options->num_threads;
  auto entry =
      GetRecommender(dataset, StringField(request, "predicate"), trace, answer);
  if (!entry.ok()) {
    answer->status = entry.status();
    return;
  }
  const std::string result_key = ResultKey(entry->key, *options, threads);
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto hit = results_.find(result_key);
    if (hit != results_.end()) {
      results_lru_.remove(result_key);
      results_lru_.push_front(result_key);
      const JsonValue cached = hit->second;
      lock.unlock();
      Trace::Scope span(trace, "server.json_write");
      (void)cached.Write();
      answer->views = *cached.Find("views");
      return;
    }
  }
  answer->computed = true;
  options->shared_base_cache = entry->bases;
  {
    Trace::Scope span(trace, "storage.fused_build");
    BuildBases(*entry, static_cast<int>(threads), answer);
  }
  Result<core::Recommendation> rec = Status::Internal("not run");
  {
    Trace::Scope span(trace, "core.recommend");
    rec = entry->recommender->Recommend(*options);
  }
  if (!rec.ok()) {
    answer->status = rec.status();
    return;
  }
  answer->exec = rec->stats;
  JsonValue response;
  {
    Trace::Scope span(trace, "server.json_write");
    response = RecommendResponse(dataset, *rec, options->k);
    (void)response.Write();
  }
  answer->views = *response.Find("views");
  std::lock_guard<std::mutex> lock(mu_);
  if (results_.emplace(result_key, std::move(response)).second) {
    results_lru_.push_front(result_key);
    while (results_.size() > kResultEntries) {
      results_.erase(results_lru_.back());
      results_lru_.pop_back();
    }
  }
}

void Mirror::Purge(const std::string& dataset) {
  const std::string prefix = dataset + '\x01';
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(registry_,
                [&](const Entry& entry) { return entry.dataset == dataset; });
  for (auto it = results_lru_.begin(); it != results_lru_.end();) {
    if (it->compare(0, prefix.size(), prefix) == 0) {
      results_.erase(*it);
      it = results_lru_.erase(it);
    } else {
      ++it;
    }
  }
}

void Mirror::Append(const JsonValue& request, Trace* trace, Answer* answer) {
  const std::string table = StringField(request, "table");
  auto snap = catalog_.Get(table);
  if (!snap.ok()) {
    answer->status = snap.status();
    return;
  }
  Result<storage::Table> rows = Status::Internal("not parsed");
  {
    Trace::Scope span(trace, "storage.csv_parse");
    storage::CsvOptions csv_options;
    csv_options.schema = snap->table->schema();
    rows = storage::ReadCsvString(StringField(request, "csv"), csv_options);
  }
  if (!rows.ok()) {
    answer->status = rows.status();
    return;
  }
  Result<storage::Catalog::AppendResult> result = Status::Internal("not run");
  {
    Trace::Scope span(trace, "storage.catalog_append");
    result = catalog_.Append(table, *rows);
  }
  if (!result.ok()) {
    answer->status = result.status();
    return;
  }
  answer->rows_appended = static_cast<int64_t>(result->rows_appended);
  Purge(table);
  Spec spec;
  std::vector<std::pair<std::string, SharedBases>> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spec = specs_.at(table);
    for (const auto& [key, shared] : bases_) {
      if (shared.dataset == table) targets.emplace_back(key, shared);
    }
  }
  storage::IngestDeltaStats ingest;
  for (const auto& [key, shared] : targets) {
    storage::IngestDeltaRequest delta;
    delta.table = result->snapshot.table.get();
    delta.rows_before = result->rows_before;
    delta.rows_appended = result->rows_appended;
    delta.dimensions = spec.dimensions;
    delta.measures = spec.measures;
    delta.cache = shared.cache.get();
    muve::sql::SelectStatement stmt;
    if (!shared.predicate_sql.empty()) {
      Trace::Scope span(trace, "sql.parse");
      auto parsed = muve::sql::ParseSelect("SELECT * FROM t WHERE " +
                                           shared.predicate_sql);
      if (!parsed.ok() ||
          !parsed->where->Bind(result->snapshot.table->schema()).ok()) {
        answer->status = Status::Internal("cannot rebind " + key);
        return;
      }
      stmt = std::move(*parsed);
      delta.target_predicate = stmt.where.get();
    }
    Trace::Scope span(trace, "storage.ingest_delta");
    if (!storage::ApplyAppendDeltas(delta, &ingest).ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      bases_.erase(key);
    }
  }
  answer->ingest_rows = ingest.rows_scanned;
  Trace::Scope span(trace, "server.json_write");
  JsonValue response = muve::server::OkResponse("append");
  response.Set("table", JsonValue::String(table));
  response.Set("rows_appended", JsonValue::Int(answer->rows_appended));
  response.Set("delta_merges", JsonValue::Int(ingest.delta_merges));
  response.Set("ingest_rows", JsonValue::Int(ingest.rows_scanned));
  (void)response.Write();
}

Result<Replay> ReplayEvents(const std::vector<JsonValue>& load_frames,
                            const std::vector<Event>& events, int workers,
                            bool traced) {
  Mirror mirror;
  MUVE_RETURN_IF_ERROR(mirror.Load(load_frames));
  Replay replay;
  replay.answers.resize(events.size());
  std::vector<char> attempted(events.size(), 0);
  std::vector<char> matched(events.size(), 0);
  std::vector<size_t> appends;  // event index per version step
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].is_append && events[i].ok) appends.push_back(i);
  }
  for (size_t version = 0; version <= appends.size(); ++version) {
    std::vector<size_t> batch;
    for (size_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      if (!e.is_append && e.ok && !matched[i] &&
          e.version_min <= static_cast<int>(version) &&
          static_cast<int>(version) <= e.version_max) {
        batch.push_back(i);
      }
    }
    std::atomic<size_t> next{0};
    auto work = [&] {
      for (size_t b = next++; b < batch.size(); b = next++) {
        const size_t i = batch[b];
        const bool first = !attempted[i];
        Answer answer =
            mirror.Apply(events[i], static_cast<int64_t>(i), traced && first);
        const JsonValue* served = events[i].response.Find("views");
        if (answer.status.ok() && served != nullptr &&
            served->Write() == answer.views.Write()) {
          matched[i] = 1;
        }
        if (first) {
          attempted[i] = 1;
          replay.answers[i] = std::move(answer);
        }
      }
    };
    std::vector<std::thread> pool;
    for (int w = 1; w < workers; ++w) pool.emplace_back(work);
    work();
    for (std::thread& thread : pool) thread.join();
    for (size_t i : batch) {
      if (!matched[i] && events[i].version_max == static_cast<int>(version)) {
        const Answer& a = replay.answers[i];
        replay.mismatches.push_back(
            events[i].frame.substr(0, 300) + "\n  table versions " +
            std::to_string(events[i].version_min) + ".." +
            std::to_string(events[i].version_max) + "\n  served:    " +
            events[i].response.Find("views")->Write().substr(0, 300) +
            "\n  in-process: " +
            (a.status.ok() ? a.views.Write().substr(0, 300)
                           : a.status.ToString()));
      }
    }
    if (version < appends.size()) {
      const size_t i = appends[version];
      replay.answers[i] = mirror.Apply(events[i], static_cast<int64_t>(i),
                                       traced);
      if (!replay.answers[i].status.ok()) {
        replay.mismatches.push_back("append failed in-process: " +
                                    replay.answers[i].status.ToString());
      }
    }
  }
  replay.selection = mirror.selection_stats();
  return replay;
}

Status CheckColdReload(const std::vector<Event>& events) {
  const Event* last = nullptr;
  size_t rows = kScaleRows;
  for (const Event& e : events) {
    if (!e.ok || (StringField(e.request, "table") != kScaleTable &&
                  StringField(e.request, "dataset") != kScaleTable)) {
      continue;
    }
    if (e.is_append) {
      rows = static_cast<size_t>(IntField(e.response, "rows_total", 0));
    }
    if (e.fresh) last = &e;
  }
  if (last == nullptr) return Status::OK();
  muve::data::ScaleSpec spec;
  spec.rows = kScaleRows;
  muve::data::Dataset ds;
  ds.name = kScaleTable;
  ds.table = muve::data::MakeScaleTable(spec, 0, rows);
  ds.dimensions = {"x", "y"};
  ds.measures = {"m1", "m2"};
  ds.functions = {storage::AggregateFunction::kSum,
                  storage::AggregateFunction::kAvg};
  ds.query_predicate_sql = muve::data::ScalePredicateSql(spec);
  const std::string sql = "SELECT * FROM t WHERE " + ds.query_predicate_sql;
  MUVE_ASSIGN_OR_RETURN(muve::sql::SelectStatement stmt,
                        muve::sql::ParseSelect(sql));
  MUVE_ASSIGN_OR_RETURN(ds.target_rows,
                        storage::Filter(*ds.table, stmt.where.get()));
  ds.all_rows = storage::AllRows(ds.table->num_rows());
  MUVE_ASSIGN_OR_RETURN(core::Recommender rec,
                        core::Recommender::Create(std::move(ds)));
  MUVE_ASSIGN_OR_RETURN(core::SearchOptions options, OptionsFor(last->request));
  MUVE_ASSIGN_OR_RETURN(core::Recommendation cold, rec.Recommend(options));
  const std::string expected = SerializeViews(cold.views).Write();
  const std::string served = last->response.Find("views")->Write();
  if (served != expected) {
    return Status::Internal("served top-k at " + std::to_string(rows) +
                            " rows differs from a cold reload:\n  "
                            "served: " + served + "\n  reload: " + expected);
  }
  return Status::OK();
}

}  // namespace muvebench
