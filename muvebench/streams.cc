#include "streams.h"

#include <algorithm>
#include <sstream>

#include "data/nba.h"
#include "data/scale.h"
#include "storage/csv.h"

namespace muvebench {

namespace {

using muve::common::Result;
using muve::common::Status;

const char* const kSchemes[] = {"muve-muve", "muve-linear", "hc-linear",
                                "linear-linear"};

// Paper workload cards per cycle: scheme index by share (MuVE-MuVE,
// MuVE-Linear and HC-Linear 3 in 10 each, Linear-Linear 1 in 10), times
// the two paper tables.
constexpr int kSchemeShare[] = {3, 3, 3, 1};
const char* const kPaperTables[] = {"nba", "diab"};

// Predicate pools; "" is the table's built-in analyst predicate.
const std::vector<std::string>& PaperPredicates(int table) {
  static const std::vector<std::string> kNba = {"", "Team = 'LAL'",
                                                "Team = 'BOS'"};
  static const std::vector<std::string> kDiab = {"", "Outcome = 0",
                                                 "Outcome = 1 AND Age >= 30"};
  return table == 0 ? kNba : kDiab;
}

// One predicate per reader.  Appended rows all have day >= 64, so each
// predicate selects either all or none of every append (see
// ScaleAppendBegin for why that matters).  Readers do not share a
// predicate: on the seed, two readers of one predicate on different
// table versions evict each other's base histograms on every probe, and
// a recommend that spans appends then takes seconds (see NOTES.md).
const std::vector<std::string>& IngestReaderPredicates() {
  static const std::vector<std::string> kPool = {"day >= 56", "day >= 32",
                                                 "day <= 40"};
  return kPool;
}

muve::data::ScaleSpec ScaleTableSpec() {
  muve::data::ScaleSpec spec;
  spec.rows = kScaleRows;
  return spec;
}

std::string ScaleCsv(size_t begin, size_t end) {
  const muve::data::ScaleSpec spec = ScaleTableSpec();
  std::ostringstream out;
  if (begin > 0) muve::data::WriteScaleCsv(out, spec, 0, 0);  // header
  muve::data::WriteScaleCsv(out, spec, begin, end);
  return out.str();
}

JsonValue Strings(const std::vector<std::string>& items) {
  JsonValue array = JsonValue::Array();
  for (const std::string& item : items) array.Append(JsonValue::String(item));
  return array;
}

// A shuffled deck holding `copies[i]` cards of value i.
std::vector<int> Deck(muve::common::Rng* rng, const std::vector<int>& copies) {
  std::vector<int> deck;
  for (size_t i = 0; i < copies.size(); ++i) {
    deck.insert(deck.end(), static_cast<size_t>(copies[i]),
                static_cast<int>(i));
  }
  rng->Shuffle(&deck);
  return deck;
}

}  // namespace

Result<WorkloadPlan> PlanFor(const std::string& workload, int seconds) {
  // Whole stratification cycles covering `rate` requests per second per
  // session (about the seed's rate on a 4-core machine).
  auto cycles = [seconds](int rate) {
    constexpr int kCycle = 20;
    return kCycle * ((seconds * rate + kCycle - 1) / kCycle);
  };
  WorkloadPlan plan;
  plan.name = workload;
  if (workload == "paper-explore") {
    plan.kind = WorkloadKind::kPaperExplore;
    plan.sessions = 4;
    plan.requests = cycles(4);
    plan.preload = "nba,diab";
    plan.setups = 5;
    plan.fresh_cycles = 20;
    plan.probe_table = "nba";
  } else if (workload == "scale-churn") {
    plan.kind = WorkloadKind::kScaleChurn;
    plan.sessions = 2;
    plan.requests = cycles(3);
    plan.scale_table = true;
    plan.setups = 3;
    plan.hit_repeats = 8;
    plan.fresh_cycles = 16;
    plan.probe_table = kScaleTable;
  } else if (workload == "scale-ingest") {
    plan.kind = WorkloadKind::kScaleIngest;
    plan.sessions = 4;  // one writer, three readers
    plan.appends = 4 * seconds;
    plan.scale_table = true;
    plan.setups = 3;
    plan.hit_repeats = 8;
  } else {
    return Status::InvalidArgument("unknown workload \"" + workload +
                                   "\" (paper-explore, scale-churn, "
                                   "scale-ingest)");
  }
  return plan;
}

size_t ScaleAppendBegin(size_t i) {
  // Sizes 5000 + 13 j for j < i.
  return kScaleRows + 5'000 * i + (i == 0 ? 0 : 13 * (i * (i - 1) / 2));
}

std::vector<JsonValue> ScaleLoadFrames() {
  std::vector<JsonValue> frames;
  for (size_t begin = 0; begin < kScaleRows; begin += kScaleLoadBatch) {
    const size_t end = std::min(kScaleRows, begin + kScaleLoadBatch);
    if (begin == 0) {
      JsonValue create = JsonValue::Object();
      create.Set("op", JsonValue::String("create"));
      create.Set("table", JsonValue::String(kScaleTable));
      create.Set("csv", JsonValue::String(ScaleCsv(begin, end)));
      create.Set("dims", Strings({"x", "y"}));
      create.Set("measures", Strings({"m1", "m2"}));
      create.Set("predicate", JsonValue::String(muve::data::ScalePredicateSql(
                                  ScaleTableSpec())));
      frames.push_back(std::move(create));
    } else {
      frames.push_back(ScaleAppendFrame(begin, end));
    }
  }
  return frames;
}

JsonValue ScaleAppendFrame(size_t begin, size_t end) {
  JsonValue append = JsonValue::Object();
  append.Set("op", JsonValue::String("append"));
  append.Set("table", JsonValue::String(kScaleTable));
  append.Set("csv", JsonValue::String(ScaleCsv(begin, end)));
  return append;
}

JsonValue NbaAppendFrame(int cycle) {
  static const std::vector<std::string> kLines = [] {
    std::vector<std::string> lines;
    std::istringstream in(
        muve::storage::WriteCsvString(*muve::data::MakeNbaDataset().table));
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  }();
  constexpr int kRowsPerAppend = 8;
  const size_t rows = kLines.size() - 1;
  std::string csv = kLines[0] + "\n";
  for (int i = 0; i < kRowsPerAppend; ++i) {
    csv += kLines[1 + (static_cast<size_t>(cycle) * kRowsPerAppend + i) % rows];
    csv += "\n";
  }
  JsonValue append = JsonValue::Object();
  append.Set("op", JsonValue::String("append"));
  append.Set("table", JsonValue::String("nba"));
  append.Set("csv", JsonValue::String(std::move(csv)));
  return append;
}

JsonValue DefaultRecommend(const std::string& table) {
  JsonValue body = JsonValue::Object();
  body.Set("op", JsonValue::String("recommend"));
  body.Set("dataset", JsonValue::String(table));
  return body;
}

SessionStream::SessionStream(WorkloadKind kind, uint64_t seed, int session,
                             int sessions)
    : kind_(kind),
      session_(session),
      sessions_(sessions),
      rng_(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(session) + 1) {}

void SessionStream::Refill() {
  position_ = 0;
  std::vector<int> strata(kCycle);
  for (size_t i = 0; i < kCycle; ++i) strata[i] = static_cast<int>(i);
  u_.assign(kCycle, 0.0);
  v_.assign(kCycle, 0.0);
  for (std::vector<double>* coords : {&u_, &v_}) {
    rng_.Shuffle(&strata);
    for (size_t i = 0; i < kCycle; ++i) {
      (*coords)[i] = (strata[i] + rng_.NextDouble()) / kCycle;
    }
  }
  k_deck_ = Deck(&rng_, {5, 5, 5, 5});  // k in {1, 3, 5, 10}
  if (kind_ == WorkloadKind::kPaperExplore) {
    std::vector<int> copies;
    for (int table = 0; table < 2; ++table) {
      for (int share : kSchemeShare) copies.push_back(share);
    }
    deck_ = Deck(&rng_, copies);
    predicate_deck_ = Deck(&rng_, {10, 5, 5});
    repeat_deck_ = Deck(&rng_, {16, 4});  // 1 request in 5 repeats
  } else if (kind_ == WorkloadKind::kScaleChurn) {
    deck_ = Deck(&rng_, std::vector<int>(20, 1));  // 4 lengths x 5 regions
  }
}

void SessionStream::AddSearchParams(JsonValue* body) {
  static constexpr int kK[] = {1, 3, 5, 10};
  // A uniform point on the simplex from two stratified coordinates.
  const double a = std::min(u_[position_], v_[position_]);
  const double b = std::max(u_[position_], v_[position_]);
  JsonValue weights = JsonValue::Array();
  weights.Append(JsonValue::Double(a));        // deviation
  weights.Append(JsonValue::Double(b - a));    // accuracy
  weights.Append(JsonValue::Double(1.0 - b));  // usability
  body->Set("k", JsonValue::Int(kK[k_deck_[position_]]));
  body->Set("weights", std::move(weights));
}

Request SessionStream::Next() {
  switch (kind_) {
    case WorkloadKind::kPaperExplore:
      return NextPaper();
    case WorkloadKind::kScaleChurn:
      return NextChurn();
    case WorkloadKind::kScaleIngest:
      return session_ == 0 ? NextIngestWriter() : NextIngestReader();
  }
  return Request();
}

Request SessionStream::NextPaper() {
  if (position_ == 0 || position_ >= kCycle) Refill();
  Request request;
  if (repeat_deck_[position_] == 1 && !history_.empty()) {
    // Exact repeat of one of the last 8 computed requests: recent enough
    // that the server's 256-entry result cache still holds it.
    const size_t window = std::min<size_t>(8, history_.size());
    const size_t pick = history_.size() - 1 -
                        static_cast<size_t>(rng_.UniformInt(
                            0, static_cast<int64_t>(window) - 1));
    request.body = history_[pick];
    request.repeat = true;
  } else {
    const int card = deck_[position_];
    const int table = card / 4;
    const int scheme = card % 4;
    const std::vector<std::string>& pool = PaperPredicates(table);
    const std::string& predicate = pool[predicate_deck_[position_]];
    JsonValue body = JsonValue::Object();
    body.Set("op", JsonValue::String("recommend"));
    body.Set("dataset", JsonValue::String(kPaperTables[table]));
    if (!predicate.empty()) body.Set("predicate", JsonValue::String(predicate));
    body.Set("scheme", JsonValue::String(kSchemes[scheme]));
    AddSearchParams(&body);
    history_.push_back(body);
    request.body = std::move(body);
  }
  ++position_;
  return request;
}

Request SessionStream::NextChurn() {
  if (position_ == 0 || position_ >= kCycle) Refill();
  // Every cycle of 20 covers each (day-range length, region) pair once,
  // so target sizes are balanced however many requests a run completes.
  static constexpr int kLengths[] = {6, 16, 32, 48};
  static const char* const kRegions[] = {"", "north", "south", "east", "west"};
  const int card = deck_[position_];
  const char* region = kRegions[card % 5];
  std::string predicate;
  for (int length = kLengths[card / 5];; ++length) {
    // Unused starts of this session's residue class, in a seeded order.
    std::vector<int> starts;
    for (int lo = session_; lo + length <= 64; lo += sessions_) {
      starts.push_back(lo);
    }
    rng_.Shuffle(&starts);
    for (int lo : starts) {
      std::string p = "day >= " + std::to_string(lo) + " AND day <= " +
                      std::to_string(lo + length - 1);
      if (*region != '\0') p += std::string(" AND region = '") + region + "'";
      if (churn_used_.insert(p).second) {
        predicate = std::move(p);
        break;
      }
    }
    if (!predicate.empty() || length >= 64) break;
  }
  JsonValue body = JsonValue::Object();
  body.Set("op", JsonValue::String("recommend"));
  body.Set("dataset", JsonValue::String(kScaleTable));
  body.Set("predicate", JsonValue::String(predicate));
  AddSearchParams(&body);
  body.Set("threads", JsonValue::Int(2));
  ++position_;
  Request request;
  request.body = std::move(body);
  return request;
}

Request SessionStream::NextIngestWriter() {
  Request request;
  const size_t cycle = writer_ops_ / 2;
  if (writer_ops_ % 2 == 0) {
    request.body =
        ScaleAppendFrame(ScaleAppendBegin(cycle), ScaleAppendBegin(cycle + 1));
    request.is_append = true;
  } else {
    request.body = DefaultRecommend(kScaleTable);
    request.fresh = true;
  }
  ++writer_ops_;
  return request;
}

Request SessionStream::NextIngestReader() {
  if (position_ == 0 || position_ >= kCycle) Refill();
  JsonValue body = JsonValue::Object();
  body.Set("op", JsonValue::String("recommend"));
  body.Set("dataset", JsonValue::String(kScaleTable));
  body.Set("predicate", JsonValue::String(
                            IngestReaderPredicates()[(session_ - 1) % 3]));
  AddSearchParams(&body);
  ++position_;
  Request request;
  request.body = std::move(body);
  return request;
}

}  // namespace muvebench
