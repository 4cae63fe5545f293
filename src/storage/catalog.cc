#include "storage/catalog.h"

#include <utility>

namespace muve::storage {

std::atomic<uint64_t> Catalog::next_base_epoch_{1};

common::Status Catalog::Create(const std::string& name, Table table) {
  auto entry = std::make_shared<Entry>();
  entry->table = std::make_shared<const Table>(std::move(table));
  entry->data_epoch = 1;
  entry->base_epoch =
      next_base_epoch_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(map_mu_);
  const auto [it, inserted] = entries_.emplace(name, std::move(entry));
  (void)it;
  if (!inserted) {
    return common::Status::AlreadyExists("table '" + name +
                                         "' already exists");
  }
  return common::Status::OK();
}

common::Status Catalog::Drop(const std::string& name) {
  std::lock_guard<std::mutex> lock(map_mu_);
  if (entries_.erase(name) == 0) {
    return common::Status::NotFound("no table named '" + name + "'");
  }
  return common::Status::OK();
}

std::shared_ptr<Catalog::Entry> Catalog::FindEntry(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(map_mu_);
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

common::Result<Catalog::Snapshot> Catalog::Get(const std::string& name) const {
  const std::shared_ptr<Entry> entry = FindEntry(name);
  if (entry == nullptr) {
    return common::Status::NotFound("no table named '" + name + "'");
  }
  std::shared_lock<std::shared_mutex> lock(entry->mu);
  Snapshot snap;
  snap.table = entry->table;
  snap.data_epoch = entry->data_epoch;
  snap.base_epoch = entry->base_epoch;
  return snap;
}

common::Result<Catalog::AppendResult> Catalog::Append(const std::string& name,
                                                      const Table& rows) {
  const std::shared_ptr<Entry> entry = FindEntry(name);
  if (entry == nullptr) {
    return common::Status::NotFound("no table named '" + name + "'");
  }
  // Exclusive: appends to one table serialize; snapshot readers queue
  // only for the pointer swap below, never for the column appends — the
  // build happens on a private clone.
  std::unique_lock<std::shared_mutex> lock(entry->mu);
  const Table& current = *entry->table;
  if (rows.num_columns() != current.num_columns()) {
    return common::Status::InvalidArgument(
        "append arity " + std::to_string(rows.num_columns()) +
        " != table arity " + std::to_string(current.num_columns()));
  }
  // Clone shares every chunk; the column appends below copy-on-write
  // only the open tail chunk of each column.  A failed batch discards the
  // private clone — the published version is untouched, making the batch
  // all-or-nothing.
  Table next = current.Clone();
  MUVE_RETURN_IF_ERROR(next.AppendRows(rows));
  AppendResult result;
  result.rows_before = current.num_rows();
  result.rows_appended = rows.num_rows();
  entry->table = std::make_shared<const Table>(std::move(next));
  ++entry->data_epoch;
  result.snapshot.table = entry->table;
  result.snapshot.data_epoch = entry->data_epoch;
  result.snapshot.base_epoch = entry->base_epoch;
  return result;
}

common::Result<Catalog::Snapshot> Catalog::Invalidate(
    const std::string& name) {
  const std::shared_ptr<Entry> entry = FindEntry(name);
  if (entry == nullptr) {
    return common::Status::NotFound("no table named '" + name + "'");
  }
  std::unique_lock<std::shared_mutex> lock(entry->mu);
  ++entry->data_epoch;
  entry->base_epoch = next_base_epoch_.fetch_add(1, std::memory_order_relaxed);
  Snapshot snap;
  snap.table = entry->table;
  snap.data_epoch = entry->data_epoch;
  snap.base_epoch = entry->base_epoch;
  return snap;
}

std::vector<std::string> Catalog::List() const {
  std::lock_guard<std::mutex> lock(map_mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

bool Catalog::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(map_mu_);
  return entries_.find(name) != entries_.end();
}

}  // namespace muve::storage
