#include "storage/chunk.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace muve::storage {

namespace {

// Index hash of a dictionary key: the bits of v + 0.0 (the addition turns
// -0.0 into 0.0, so the two keys that compare equal hash alike),
// Fibonacci-multiplied.  Callers take the top bits, which every input
// bit reaches (integral doubles differ only in their high bits).
uint64_t KeyHash(double v) {
  const double canonical = v + 0.0;
  uint64_t bits = 0;
  std::memcpy(&bits, &canonical, sizeof bits);
  return bits * 0x9E3779B97F4A7C15ULL;
}

// Top-bits shift for an index of `slots` (a power of two) entries.
int SlotShift(size_t slots) { return std::countl_zero(slots) + 1; }

// Smallest index that keeps `entries` values plus the next new one at
// most a quarter full (a full dictionary takes no new value).
size_t SlotsFor(size_t entries) {
  const size_t keys =
      std::min(entries + 1, ColumnChunk::kMaxNumericDictSize);
  return std::max<size_t>(16, std::bit_ceil(4 * keys));
}

// Uninitialized: the OS backs only the pages appends touch.
template <typename T>
std::unique_ptr<T[]> Buffer(size_t n) {
  return std::make_unique_for_overwrite<T[]>(n);
}

template <typename T>
void CopyPrefix(const std::unique_ptr<T[]>& from, size_t n,
                const std::unique_ptr<T[]>& to) {
  if (n > 0) std::memcpy(to.get(), from.get(), n * sizeof(T));
}

}  // namespace

ColumnChunk::Store::Store(ValueType type, size_t capacity, bool coded)
    : words(Buffer<uint64_t>(capacity / 64)) {
  switch (type) {
    case ValueType::kInt64:
      ints = Buffer<int64_t>(capacity);
      break;
    case ValueType::kDouble:
      doubles = Buffer<double>(capacity);
      break;
    case ValueType::kString:
      codes = Buffer<uint32_t>(capacity);
      break;
    case ValueType::kNull:
      break;
  }
  if (coded) {
    num_codes = Buffer<uint16_t>(capacity);
    num_dict = Buffer<double>(std::min(capacity, kMaxNumericDictSize));
  }
}

size_t ColumnChunk::Claim(size_t n) {
  MUVE_DCHECK(n > 0 && size_ + n <= capacity_);
  if (store_ != nullptr && store_->Claim(size_, size_ + n)) return 0;
  auto next = std::make_shared<Store>(type_, capacity_, HasNumericDict());
  if (store_ != nullptr) {
    CopyPrefix(store_->ints, type_ == ValueType::kInt64 ? size_ : 0,
               next->ints);
    CopyPrefix(store_->doubles, type_ == ValueType::kDouble ? size_ : 0,
               next->doubles);
    CopyPrefix(store_->codes, type_ == ValueType::kString ? size_ : 0,
               next->codes);
    if (HasNumericDict()) {
      CopyPrefix(store_->num_codes, size_, next->num_codes);
      CopyPrefix(store_->num_dict, num_dict_size_, next->num_dict);
    }
    CopyPrefix(store_->words, size_ / 64, next->words);
  }
  next->committed.store(size_ + n, std::memory_order_relaxed);
  store_ = std::move(next);
  return size_;
}

void ColumnChunk::Commit(bool valid) {
  if (valid) last_word_ |= uint64_t{1} << (size_ & 63);
  ++size_;
  if ((size_ & 63) == 0) {
    store_->words[(size_ >> 6) - 1] = last_word_;
    last_word_ = 0;
  }
  // A full chunk never codes another value.
  if (full() && !store_->num_slots.empty()) {
    std::vector<uint16_t>().swap(store_->num_slots);
  }
}

void ColumnChunk::AppendString(std::string_view v) {
  MUVE_DCHECK(type_ == ValueType::kString && Claimed());
  if (dict_ == nullptr) dict_ = std::make_shared<StringDict>();
  auto it = dict_->index.find(v);
  if (it == dict_->index.end()) {
    // Another version still reads this dictionary: add to a copy.
    if (dict_.use_count() > 1) {
      dict_ = std::make_shared<StringDict>(*dict_);
    }
    std::vector<std::string>& entries = dict_->entries;
    entries.emplace_back(v);
    it = dict_->index
             .emplace(entries.back(), static_cast<uint32_t>(entries.size() - 1))
             .first;
  }
  store_->codes[size_] = it->second;
  Commit(true);
}

void ColumnChunk::AppendNull() {
  MUVE_DCHECK(Claimed());
  switch (type_) {
    case ValueType::kInt64:
      store_->ints[size_] = 0;
      break;
    case ValueType::kDouble:
      store_->doubles[size_] = 0.0;
      break;
    case ValueType::kString:
      store_->codes[size_] = kNoCode;
      break;
    case ValueType::kNull:
      break;
  }
  if (HasNumericDict()) store_->num_codes[size_] = 0;
  ++null_count_;
  Commit(false);
}

void ColumnChunk::CodeNumeric(double v) {
  if (high_cardinality_) return;
  if (std::isnan(v)) {
    DropNumericDict();
    return;
  }
  std::vector<uint16_t>& slots = store_->num_slots;
  if (slots.empty()) BuildIndex(SlotsFor(num_dict_size_));
  const double* dict = store_->num_dict.get();
  const size_t mask = slots.size() - 1;
  for (size_t s = KeyHash(v) >> SlotShift(slots.size());;
       s = (s + 1) & mask) {
    const uint16_t slot = slots[s];
    if (slot != 0) {
      if (dict[slot - 1] == v) {
        store_->num_codes[size_] = static_cast<uint16_t>(slot - 1);
        return;
      }
      continue;
    }
    if (num_dict_size_ == kMaxNumericDictSize) {
      DropNumericDict();
      return;
    }
    store_->num_dict[num_dict_size_] = v;
    ++num_dict_size_;
    slots[s] = static_cast<uint16_t>(num_dict_size_);
    store_->num_codes[size_] = static_cast<uint16_t>(num_dict_size_ - 1);
    // Keep the index at most a quarter full, counting the next new value:
    // every probe sequence ends at an empty slot, and a short one.
    if (SlotsFor(num_dict_size_) > slots.size()) {
      BuildIndex(SlotsFor(num_dict_size_));
    }
    return;
  }
}

void ColumnChunk::BuildIndex(size_t slots) {
  std::vector<uint16_t>& index = store_->num_slots;
  index.assign(slots, 0);
  const size_t mask = slots - 1;
  for (size_t code = 0; code < num_dict_size_; ++code) {
    size_t s = KeyHash(store_->num_dict[code]) >> SlotShift(slots);
    while (index[s] != 0) s = (s + 1) & mask;
    index[s] = static_cast<uint16_t>(code + 1);
  }
}

void ColumnChunk::DropNumericDict() {
  high_cardinality_ = true;
  num_dict_size_ = 0;
  // The dictionary stays in the store for the versions that still read
  // it; only the writer's index goes.
  std::vector<uint16_t>().swap(store_->num_slots);
}

void ColumnChunk::ObserveNumeric(double v) {
  CodeNumeric(v);
  if (std::isnan(v)) {
    has_nan_ = true;
    return;
  }
  if (!has_range_) {
    min_ = max_ = v;
    has_range_ = true;
    return;
  }
  if (v < min_) min_ = v;
  if (v > max_) max_ = v;
}

size_t ColumnChunk::ApproxBytes() const {
  size_t row_bytes = 0;
  switch (type_) {
    case ValueType::kInt64:
      row_bytes = sizeof(int64_t);
      break;
    case ValueType::kDouble:
      row_bytes = sizeof(double);
      break;
    case ValueType::kString:
      row_bytes = sizeof(uint32_t);
      break;
    case ValueType::kNull:
      break;
  }
  if (HasNumericDict()) row_bytes += sizeof(uint16_t);
  size_t bytes = sizeof(ColumnChunk) + size_ * row_bytes + size_ / 8 +
                 num_dict_size_ * sizeof(double);
  if (dict_ != nullptr) {
    // Entries plus a rough hash-map model of the CodeOf index (buckets
    // and one node per entry; the point is order-of-magnitude memory
    // observability).
    for (const std::string& s : dict_->entries) {
      bytes += 2 * (sizeof(std::string) + s.capacity());
    }
    bytes += dict_->index.bucket_count() * sizeof(void*);
    bytes += dict_->index.size() * (2 * sizeof(void*) + sizeof(uint32_t));
  }
  return bytes;
}

}  // namespace muve::storage
