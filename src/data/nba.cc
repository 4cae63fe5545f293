#include "data/nba.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"

namespace muve::data {

namespace {

using storage::Field;
using storage::FieldRole;
using storage::Schema;
using storage::Table;
using storage::Value;
using storage::ValueType;

constexpr std::array<const char*, 30> kTeams = {
    "GSW", "CLE", "ATL", "HOU", "LAC", "MEM", "SAS", "CHI", "DAL", "POR",
    "TOR", "WAS", "NOP", "OKC", "PHO", "BOS", "MIL", "BRK", "IND", "UTA",
    "MIA", "CHO", "DET", "DEN", "SAC", "ORL", "LAL", "PHI", "NYK", "MIN"};

int64_t ClampInt(double v, int64_t lo, int64_t hi) {
  const int64_t r = static_cast<int64_t>(std::llround(v));
  return std::clamp(r, lo, hi);
}

}  // namespace

Dataset MakeNbaDataset(uint64_t seed) {
  common::Stopwatch setup_timer;
  // 28 attributes matching the shape of basketball-reference's advanced
  // player table: identity (Player, Team, Pos), dimensions (Age, G, MP),
  // and 22 observation measures.
  Schema schema({
      Field("Player", ValueType::kString, FieldRole::kNone),
      Field("Team", ValueType::kString, FieldRole::kNone),
      Field("Pos", ValueType::kString, FieldRole::kCategoricalDimension),
      Field("Age", ValueType::kInt64, FieldRole::kDimension),
      Field("G", ValueType::kInt64, FieldRole::kDimension),
      Field("MP", ValueType::kInt64, FieldRole::kDimension),
      Field("PER", ValueType::kDouble, FieldRole::kMeasure),
      Field("TS_pct", ValueType::kDouble, FieldRole::kMeasure),
      Field("3PAr", ValueType::kDouble, FieldRole::kMeasure),
      Field("FTr", ValueType::kDouble, FieldRole::kMeasure),
      Field("ORB_pct", ValueType::kDouble, FieldRole::kMeasure),
      Field("DRB_pct", ValueType::kDouble, FieldRole::kMeasure),
      Field("TRB_pct", ValueType::kDouble, FieldRole::kMeasure),
      Field("AST_pct", ValueType::kDouble, FieldRole::kMeasure),
      Field("STL_pct", ValueType::kDouble, FieldRole::kMeasure),
      Field("BLK_pct", ValueType::kDouble, FieldRole::kMeasure),
      Field("TOV_pct", ValueType::kDouble, FieldRole::kMeasure),
      Field("USG_pct", ValueType::kDouble, FieldRole::kMeasure),
      Field("OWS", ValueType::kDouble, FieldRole::kMeasure),
      Field("DWS", ValueType::kDouble, FieldRole::kMeasure),
      Field("WS", ValueType::kDouble, FieldRole::kMeasure),
      Field("WS_48", ValueType::kDouble, FieldRole::kMeasure),
      Field("OBPM", ValueType::kDouble, FieldRole::kMeasure),
      Field("DBPM", ValueType::kDouble, FieldRole::kMeasure),
      Field("BPM", ValueType::kDouble, FieldRole::kMeasure),
      Field("VORP", ValueType::kDouble, FieldRole::kMeasure),
      Field("FG", ValueType::kInt64, FieldRole::kMeasure),
      Field("PTS", ValueType::kInt64, FieldRole::kMeasure),
  });

  common::Rng rng(seed);
  auto table = std::make_shared<Table>(schema);

  for (size_t i = 0; i < kNbaRows; ++i) {
    const std::string team(kTeams[i % kTeams.size()]);
    const bool gsw = team == "GSW";

    // Minutes played: league-wide skewed towards the low end (bench
    // players); the championship GSW roster skews towards high minutes,
    // which is what lets the Example-1 pattern show up in the normalized
    // distributions (Figure 3: GSW mass sits in the high-MP bins).
    double u = rng.NextDouble();
    int64_t mp = ClampInt(1440.0 * std::pow(u, gsw ? 0.45 : 1.4), 0, 1440);
    int64_t g = ClampInt(static_cast<double>(mp) / 17.5 + rng.Normal(0, 6.0),
                         0, 82);
    int64_t age = ClampInt(rng.Normal(26.5, 4.0), 19, 39);

    // Pin dimension endpoints (deterministic ranges -> deterministic
    // view-space size of 27,756).
    if (i == 0) mp = 0;
    if (i == 1) mp = 1440;
    if (i == 2) g = 0;
    if (i == 3) g = 82;
    if (i == 4) age = 19;
    if (i == 5) age = 39;

    const double mp_frac = static_cast<double>(mp) / 1440.0;

    // Example-1 pattern: league 3PAr declines with minutes; GSW stays high.
    double par3;
    if (gsw) {
      par3 = rng.ClampedNormal(0.52, 0.06, 0.0, 0.95);
    } else {
      par3 = rng.ClampedNormal(0.40 - 0.28 * mp_frac, 0.05, 0.0, 0.95);
    }

    const double per = rng.ClampedNormal(12.0 + 6.0 * mp_frac, 4.5, 0.0, 35.0);
    const double ts = rng.ClampedNormal(0.52 + (gsw ? 0.03 : 0.0), 0.05, 0.30,
                                        0.75);
    const double ftr = rng.ClampedNormal(0.28, 0.10, 0.0, 0.9);
    const double orb = rng.ClampedNormal(5.5, 3.0, 0.0, 20.0);
    const double drb = rng.ClampedNormal(14.0, 5.0, 0.0, 40.0);
    const double trb = (orb + drb) / 2.0;
    const double ast = rng.ClampedNormal(13.0, 8.0, 0.0, 50.0);
    const double stl = rng.ClampedNormal(1.5, 0.7, 0.0, 5.0);
    const double blk = rng.ClampedNormal(1.6, 1.2, 0.0, 10.0);
    const double tov = rng.ClampedNormal(13.0, 4.0, 2.0, 30.0);
    const double usg = rng.ClampedNormal(18.5, 5.0, 5.0, 40.0);
    const double ows = rng.ClampedNormal(2.2 * mp_frac, 1.0, -2.0, 12.0);
    const double dws = rng.ClampedNormal(1.6 * mp_frac, 0.7, -1.0, 6.0);
    const double ws = ows + dws;
    const double ws48 =
        mp > 0 ? ws * 48.0 / static_cast<double>(mp) : 0.0;
    const double obpm = rng.ClampedNormal(4.0 * mp_frac - 2.0, 2.2, -10.0, 10.0);
    const double dbpm = rng.ClampedNormal(0.0, 1.8, -6.0, 6.0);
    const double bpm = obpm + dbpm;
    const double vorp =
        std::max(-1.5, (bpm + 2.0) * mp_frac * 2.4 + rng.Normal(0.0, 0.3));
    const int64_t fg =
        ClampInt(4.5 * static_cast<double>(g) * (0.5 + mp_frac), 0, 900);
    const int64_t pts = ClampInt(
        static_cast<double>(fg) * rng.Uniform(2.2, 2.7), 0, 2600);

    const common::Status st = table->AppendRow({
        Value("Player_" + std::to_string(i)),
        Value(team),
        Value(i % 5 == 0   ? "C"
              : i % 5 == 1 ? "PF"
              : i % 5 == 2 ? "SF"
              : i % 5 == 3 ? "SG"
                           : "PG"),
        Value(age),
        Value(g),
        Value(mp),
        Value(per),
        Value(ts),
        Value(par3),
        Value(ftr),
        Value(orb),
        Value(drb),
        Value(trb),
        Value(ast),
        Value(stl),
        Value(blk),
        Value(tov),
        Value(usg),
        Value(ows),
        Value(dws),
        Value(ws),
        Value(ws48),
        Value(obpm),
        Value(dbpm),
        Value(bpm),
        Value(vorp),
        Value(fg),
        Value(pts),
    });
    MUVE_CHECK(st.ok()) << st.ToString();
  }

  Workload workload;
  workload.dimensions = {"MP", "G", "Age"};
  // First three are the default workload; the full list supports the
  // paper's 3..13-measure scalability sweep (Figure 8).
  workload.measures = {"3PAr",    "PER",     "TS_pct",  "FTr",
                       "TRB_pct", "AST_pct", "STL_pct", "BLK_pct",
                       "TOV_pct", "USG_pct", "WS",      "DWS",
                       "OWS"};
  workload.functions = {storage::AggregateFunction::kSum,
                        storage::AggregateFunction::kAvg,
                        storage::AggregateFunction::kCount};
  workload.default_predicate = "Team = 'GSW'";
  auto out = Bind("NBA", std::move(table), workload,
                  workload.default_predicate);
  MUVE_CHECK(out.ok()) << out.status().ToString();
  out->setup_time_ms = setup_timer.ElapsedMillis();
  return *std::move(out);
}

}  // namespace muve::data
