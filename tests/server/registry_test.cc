// The registry (server/registry.h): muved's cross-request state under
// concurrency, and a cold build racing an invalidate.
//
// Labeled faults+tsan: the churn test is the registry's TSan coverage,
// and the race test needs the registry.build failpoint
// (-DMUVE_FAILPOINTS=ON; it skips otherwise).

#include "server/registry.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/search_options.h"
#include "gtest/gtest.h"
#include "server/json.h"
#include "server/muved_server.h"
#include "server/protocol.h"
#include "storage/csv.h"

namespace muve::server {
namespace {

using common::StatusCode;

// Rows [begin, end) of a small clustered table: day, x in 0..6, m.
std::string SmallCsv(int begin, int end) {
  std::string csv = "day,x,m\n";
  for (int i = begin; i < end; ++i) {
    csv += std::to_string(i / 10) + "," + std::to_string(i % 7) + "," +
           std::to_string(3 * i + 1) + "\n";
  }
  return csv;
}

data::Workload SmallWorkload() {
  data::Workload workload;
  workload.dimensions = {"x"};
  workload.measures = {"m"};
  workload.functions = {storage::AggregateFunction::kSum,
                        storage::AggregateFunction::kAvg};
  workload.default_predicate = "day >= 1";
  return workload;
}

common::Status CreateSmall(Registry* registry) {
  MUVE_ASSIGN_OR_RETURN(storage::Table table,
                        storage::ReadCsvString(SmallCsv(0, 40)));
  return registry->Create("t", std::move(table), SmallWorkload());
}

void ExpectConsistent(const Registry::Stats& stats,
                      const Registry::Options& options) {
  EXPECT_LE(stats.entries, options.max_recommenders);
  EXPECT_LE(stats.results, options.result_cache_entries);
  EXPECT_EQ(stats.base_cache.hits + stats.base_cache.misses,
            stats.base_cache.lookups);
}

TEST(RegistryTest, ConcurrentChurnStaysBounded) {
  Registry::Options options;
  options.max_recommenders = 4;
  options.result_cache_entries = 8;
  Registry registry(options);
  ASSERT_TRUE(CreateSmall(&registry).ok());

  // Readers resolve 14 distinct predicates (more than the registry
  // holds), recommend through the shared store and use the result
  // cache, while a writer cycles append, invalidate, drop and re-create
  // and a third party polls stats.
  std::atomic<int> readers_left{3};
  std::atomic<int64_t> recommends{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 60; ++i) {
        const std::string predicate = (i % 2 == 0 ? "x >= " : "x <= ") +
                                      std::to_string((i / 2 + t) % 7);
        auto entry = registry.Resolve("t", predicate);
        if (!entry.ok()) {
          // Only the window between a drop and its re-create refuses.
          EXPECT_EQ(entry.status().code(), StatusCode::kNotFound)
              << entry.status().ToString();
          continue;
        }
        core::SearchOptions search;
        search.k = 2;
        search.shared_base_cache = entry->base_cache;
        auto rec = entry->recommender->Recommend(search);
        if (!rec.ok()) {
          ADD_FAILURE() << rec.status().ToString();
          continue;
        }
        ++recommends;
        const std::string key = Registry::ResultKey(*entry, search, 2, 1);
        JsonValue cached;
        if (!registry.LookupResult(key, &cached)) {
          registry.StoreResult(
              key, JsonValue::Int(static_cast<int64_t>(rec->views.size())));
        }
      }
      --readers_left;
    });
  }
  threads.emplace_back([&] {
    int next_row = 40;
    for (int round = 0; readers_left.load() > 0; ++round) {
      switch (round % 4) {
        case 0: {
          auto appended =
              registry.Append("t", SmallCsv(next_row, next_row + 5));
          ASSERT_TRUE(appended.ok()) << appended.status().ToString();
          next_row += 5;
          break;
        }
        case 1:
          ASSERT_TRUE(registry.Invalidate("t").ok());
          break;
        case 2:
          ASSERT_TRUE(registry.Drop("t").ok());
          break;
        default:
          ASSERT_TRUE(CreateSmall(&registry).ok());
          next_row = 40;
          break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  threads.emplace_back([&] {
    while (readers_left.load() > 0) {
      ExpectConsistent(registry.stats(), options);
      std::this_thread::yield();
    }
  });
  for (std::thread& thread : threads) thread.join();
  EXPECT_GT(recommends.load(), 0);
  ExpectConsistent(registry.stats(), options);
}

// Predicate churn cannot grow memory: 1,000 distinct predicates through
// a store with room for a handful of bases.  The store stays under its
// budget, and a predicate's record goes once the LRU has evicted its
// target bases, so the records stay bounded too.
TEST(RegistryTest, PredicateChurnStaysUnderTheStoreBudget) {
  Registry::Options options;
  options.max_recommenders = 4;
  options.base_cache_bytes = 8 << 10;
  Registry registry(options);
  ASSERT_TRUE(CreateSmall(&registry).ok());

  int next_row = 40;
  size_t most_predicates = 0;
  for (int i = 0; i < 1000; ++i) {
    // m = 3 * row + 1, so every range of width >= 3 in [1, 118] selects
    // at least one row.
    const int lo = 1 + i % 100;
    const std::string predicate = "m >= " + std::to_string(lo) +
                                  " AND m <= " +
                                  std::to_string(lo + 3 + i / 100);
    auto entry = registry.Resolve("t", predicate);
    ASSERT_TRUE(entry.ok()) << predicate << ": "
                            << entry.status().ToString();
    core::SearchOptions search;
    search.k = 1;
    search.shared_base_cache = entry->base_cache;
    ASSERT_TRUE(entry->recommender->Recommend(search).ok()) << predicate;
    if (i % 100 == 99) {
      ASSERT_TRUE(registry.Append("t", SmallCsv(next_row, next_row + 5)).ok());
      next_row += 5;
    }
    const Registry::Stats stats = registry.stats();
    ASSERT_LE(stats.base_cache.bytes,
              static_cast<int64_t>(options.base_cache_bytes));
    most_predicates = std::max(most_predicates, stats.predicates);
  }
  const Registry::Stats stats = registry.stats();
  EXPECT_GT(stats.base_cache.evictions, 0);
  // Every record left either has target bases in the store or belongs
  // to a resident entry; sweeps run at twice what the last one left.
  EXPECT_LT(most_predicates, 128u);
  EXPECT_EQ(stats.base_cache.target.bytes + stats.base_cache.comparison.bytes,
            stats.base_cache.bytes);
}

// Wire helpers for the race test.
JsonValue Op(const char* op) {
  JsonValue r = JsonValue::Object();
  r.Set("op", JsonValue::String(op));
  return r;
}

JsonValue Call(int fd, const JsonValue& request) {
  auto response = RoundTrip(fd, request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  if (!response.ok()) return JsonValue::Object();
  const JsonValue* ok = response->Find("ok");
  EXPECT_TRUE(ok != nullptr && ok->bool_value()) << response->Write();
  return *response;
}

// base_cache.predicates from the stats op, or -1 when the field is
// missing.
int64_t PredicatesHeld(int fd) {
  const JsonValue stats = Call(fd, Op("stats"));
  const JsonValue* base = stats.Find("base_cache");
  const JsonValue* held = base != nullptr ? base->Find("predicates") : nullptr;
  return held != nullptr ? held->int_value() : -1;
}

TEST(RegistryTest, ColdBuildRacingInvalidateLeavesNoOrphanStore) {
  if (!common::FailpointsCompiledIn()) {
    GTEST_SKIP() << "requires -DMUVE_FAILPOINTS=ON";
  }
  ServerOptions options;
  MuvedServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto held_fd = DialLocal(server.port());
  auto fd = DialLocal(server.port());
  ASSERT_TRUE(held_fd.ok() && fd.ok());

  JsonValue create = Op("create");
  create.Set("table", JsonValue::String("t"));
  create.Set("csv", JsonValue::String(SmallCsv(0, 40)));
  JsonValue dims = JsonValue::Array();
  dims.Append(JsonValue::String("x"));
  create.Set("dims", dims);
  JsonValue measures = JsonValue::Array();
  measures.Append(JsonValue::String("m"));
  create.Set("measures", measures);
  create.Set("predicate", JsonValue::String("day >= 1"));
  Call(*fd, create);
  JsonValue recommend = Op("recommend");
  recommend.Set("dataset", JsonValue::String("t"));
  recommend.Set("k", JsonValue::Int(2));
  auto append = [&](int begin, int end) {
    JsonValue r = Op("append");
    r.Set("table", JsonValue::String("t"));
    r.Set("csv", JsonValue::String(SmallCsv(begin, end)));
    return Call(*fd, r);
  };

  // One session's cold build stalls after reading the table snapshot;
  // meanwhile the other session invalidates the table.
  ASSERT_TRUE(common::SetFailpoint("registry.build", "delay(600ms)").ok());
  std::thread held([&] { Call(*held_fd, recommend); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  JsonValue invalidate = Op("invalidate");
  invalidate.Set("dataset", JsonValue::String("t"));
  Call(*fd, invalidate);
  held.join();
  common::ClearFailpoints();

  // The stalled build read a retired base_epoch: it built into a private
  // store, so nothing is left for the append to patch.
  EXPECT_EQ(append(40, 50).Find("delta_merges")->int_value(), 0);
  EXPECT_EQ(PredicatesHeld(*fd), 0);

  // A recommend under the current epoch leaves the bases the next
  // append patches.
  Call(*fd, recommend);
  EXPECT_GT(append(50, 60).Find("delta_merges")->int_value(), 0);
  EXPECT_EQ(PredicatesHeld(*fd), 1);

  ::close(*held_fd);
  ::close(*fd);
  server.Stop();
}

}  // namespace
}  // namespace muve::server
