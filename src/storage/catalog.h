// Catalog: named tables with create / drop / append under MVCC snapshots.
//
// The catalog owns one entry per table name.  Every entry publishes an
// immutable snapshot — a shared_ptr<const Table> whose chunks never
// mutate — so an in-flight Recommend pins the exact chunk list it
// started with and is never perturbed by concurrent ingest.  Appends
// build the NEXT version out of the current one: every sealed chunk is
// shared by pointer and only the open tail chunk is copied before
// growing (Table::Clone + Column copy-on-write), then the batch is
// appended column to column (Table::AppendRows).  An append costs
// O(new rows + one tail chunk), and row ids are stable across versions
// (append-only).  The tail term is not small: a chunk holds up to 2^20
// rows by default, so below that size the tail chunk is the whole table
// and each append copies it.
//
// Concurrency: a per-entry readers-vs-ingest lock (std::shared_mutex).
// Readers take it shared just long enough to copy the snapshot pointer;
// an append holds it exclusive across build-next-version + publish, so
// appends to one table serialize while appends to different tables and
// all snapshot reads proceed concurrently.
//
// Epochs, the contract the caches build on:
//   * `data_epoch` bumps on EVERY mutation (append).  Anything derived
//     from specific row contents at specific positions — selection
//     vectors, cached recommendation results — keys on it and therefore
//     invalidates on append.
//   * `base_epoch` bumps only when history is not preserved: create and
//     drop (a recreated name must never alias the old one's derived
//     state).  Base histograms are ADDITIVE over appended rows, so
//     entries keyed under base_epoch survive appends and are patched by
//     delta merge (BaseHistogramCache::MergeDelta) instead of rebuilt.

#ifndef MUVE_STORAGE_CATALOG_H_
#define MUVE_STORAGE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace muve::storage {

class Catalog {
 public:
  // One immutable table version plus the epochs it was read under.
  struct Snapshot {
    std::shared_ptr<const Table> table;
    uint64_t data_epoch = 0;
    uint64_t base_epoch = 0;
  };

  struct AppendResult {
    Snapshot snapshot;  // the post-append version
    size_t rows_before = 0;
    size_t rows_appended = 0;
  };

  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // Registers `table` under `name`.  AlreadyExists when the name is
  // taken.  The initial data_epoch is 1; base_epoch is drawn from a
  // process-wide counter so a name recreated after a drop can never
  // alias derived state of its predecessor.
  common::Status Create(const std::string& name, Table table);

  // Removes `name`.  Outstanding snapshots stay valid (shared_ptr);
  // NotFound when absent.
  common::Status Drop(const std::string& name);

  // Current snapshot of `name`; NotFound when absent.
  common::Result<Snapshot> Get(const std::string& name) const;

  // Appends every row of `rows` (matching arity; per-cell type rules of
  // Column::AppendValue) as the next version of `name`, column by column.
  // All-or-nothing: the new version publishes only when every cell fits
  // — a type error anywhere in the batch (reported for the first such
  // cell in row-major order) leaves the current version untouched.
  // Bumps data_epoch, preserves base_epoch.
  common::Result<AppendResult> Append(const std::string& name,
                                      const Table& rows);

  // Administrative full invalidation of `name`: bumps data_epoch AND
  // assigns a fresh base_epoch, so every derived cache entry — including
  // the append-surviving base histograms — becomes unreachable.  The
  // table itself is untouched.  Returns the post-bump snapshot.
  common::Result<Snapshot> Invalidate(const std::string& name);

  // Sorted table names.
  std::vector<std::string> List() const;

  bool Contains(const std::string& name) const;

 private:
  struct Entry {
    mutable std::shared_mutex mu;  // readers-vs-ingest
    std::shared_ptr<const Table> table;
    uint64_t data_epoch = 1;
    uint64_t base_epoch = 0;
  };

  std::shared_ptr<Entry> FindEntry(const std::string& name) const;

  mutable std::mutex map_mu_;
  std::map<std::string, std::shared_ptr<Entry>> entries_;

  static std::atomic<uint64_t> next_base_epoch_;
};

}  // namespace muve::storage

#endif  // MUVE_STORAGE_CATALOG_H_
