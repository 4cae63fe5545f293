// Pinned table versions under concurrent appends.
//
// A writer publishes table versions, each with the image it had when it
// was built (TableImage: every cell, validity word, zone map and
// dictionary as read through the raw chunk arrays), while reader threads
// pin versions and re-read them.  Versions of one open tail chunk share
// its row store, and the writer appends in place past rows the readers
// hold, so a pinned version that ever reads differently from its image
// means an append leaked into it.  Run under -DMUVE_SANITIZE=thread (the
// `tsan` label) this also catches any unsynchronized access to the
// shared stores.
//
// The batches add NULLs mid-word, new distinct strings, push a numeric
// chunk past kMaxNumericDictSize (the high-cardinality transition) and
// cross chunk boundaries.

#ifndef MUVE_TESTS_PINNED_VERSIONS_H_
#define MUVE_TESTS_PINNED_VERSIONS_H_

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "storage/table.h"
#include "table_equality.h"

namespace muve::testutil {

// Rows per chunk: above kMaxNumericDictSize, so one chunk's `wide`
// dictionary overflows.
inline constexpr size_t kPinnedChunkRows = 8192;

inline storage::Schema MixedSchema() {
  using storage::ValueType;
  return storage::Schema({{"id", ValueType::kInt64},
                          {"s", ValueType::kString},
                          {"wide", ValueType::kInt64},
                          {"d", ValueType::kDouble}});
}

// Rows [begin, end): `s` gains a distinct string every third row, `wide`
// is distinct on every row, `d` is NULL on every fifth.
inline storage::Table MixedRows(size_t begin, size_t end) {
  using storage::Value;
  storage::Table rows(MixedSchema(), kPinnedChunkRows);
  for (size_t i = begin; i < end; ++i) {
    const auto id = static_cast<int64_t>(i);
    EXPECT_TRUE(rows.AppendRow({Value(id), Value("s" + std::to_string(i / 3)),
                                Value(id * 7),
                                i % 5 == 0 ? Value::Null()
                                           : Value(static_cast<double>(i % 13) /
                                                   4)})
                    .ok());
  }
  return rows;
}

// Publishes `batches` versions through `append(begin, end)`, which
// appends MixedRows(begin, end) to the latest version and returns the
// new one, while three readers pin versions and check them against
// their images.  `initial` is the version the first batch grows.
inline void RunPinnedReaders(
    std::shared_ptr<const storage::Table> initial, int batches,
    const std::function<std::shared_ptr<const storage::Table>(
        size_t begin, size_t end)>& append) {
  struct Published {
    std::shared_ptr<const storage::Table> table;
    TableImage image;
  };
  std::mutex mu;
  std::vector<Published> published = {{initial, ImageOf(*initial)}};
  std::atomic<bool> done{false};

  std::thread writer([&] {
    size_t next = initial->num_rows();
    for (int b = 0; b < batches; ++b) {
      // Sizes off every word and chunk multiple.
      const size_t end = next + 700 + (static_cast<size_t>(b) * 389) % 1100;
      std::shared_ptr<const storage::Table> table = append(next, end);
      ASSERT_EQ(table->num_rows(), end);
      Published version{table, ImageOf(*table)};
      std::lock_guard<std::mutex> lock(mu);
      published.push_back(std::move(version));
      next = end;
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::vector<Published> pinned;
      while (!done.load()) {
        {
          std::lock_guard<std::mutex> lock(mu);
          pinned.push_back(published.back());
        }
        for (const Published& p : pinned) {
          ASSERT_EQ(ImageOf(*p.table), p.image)
              << "a version of " << p.table->num_rows() << " rows changed";
        }
        if (pinned.size() > 4) pinned.erase(pinned.begin());
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  for (const Published& p : published) {
    ASSERT_EQ(ImageOf(*p.table), p.image)
        << "a version of " << p.table->num_rows() << " rows changed";
  }
  // Every batch landed, in order.
  const storage::Table& last = *published.back().table;
  for (size_t i = 0; i < last.num_rows(); ++i) {
    ASSERT_EQ(last.column(0).Int64At(i), static_cast<int64_t>(i));
  }
}

}  // namespace muve::testutil

#endif  // MUVE_TESTS_PINNED_VERSIONS_H_
