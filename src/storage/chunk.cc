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

}  // namespace

void ColumnChunk::AppendString(std::string_view v) {
  MUVE_DCHECK(type_ == ValueType::kString && !full());
  auto it = dict_index_.find(v);
  if (it == dict_index_.end()) {
    dict_.emplace_back(v);
    it = dict_index_
             .emplace(dict_.back(), static_cast<uint32_t>(dict_.size() - 1))
             .first;
  }
  codes_.push_back(it->second);
  valid_.PushBack(true);
}

void ColumnChunk::AppendNull() {
  MUVE_DCHECK(!full());
  switch (type_) {
    case ValueType::kInt64:
      ints_.push_back(0);
      break;
    case ValueType::kDouble:
      doubles_.push_back(0.0);
      break;
    case ValueType::kString:
      codes_.push_back(kNoCode);
      break;
    case ValueType::kNull:
      break;
  }
  if (HasNumericDict()) num_codes_.push_back(0);
  valid_.PushBack(false);
  ++null_count_;
  ReleaseIndexIfFull();
}

void ColumnChunk::CodeNumeric(double v) {
  if (high_cardinality_) return;
  if (std::isnan(v)) {
    DropNumericDict();
    return;
  }
  if (num_slots_.empty()) GrowIndex();
  const size_t mask = num_slots_.size() - 1;
  for (size_t s = KeyHash(v) >> SlotShift(num_slots_.size());;
       s = (s + 1) & mask) {
    const uint16_t slot = num_slots_[s];
    if (slot != 0) {
      if (num_dict_[slot - 1] == v) {
        num_codes_.push_back(static_cast<uint16_t>(slot - 1));
        return;
      }
      continue;
    }
    if (num_dict_.size() == kMaxNumericDictSize) {
      DropNumericDict();
      return;
    }
    num_dict_.push_back(v);
    num_slots_[s] = static_cast<uint16_t>(num_dict_.size());
    num_codes_.push_back(static_cast<uint16_t>(num_dict_.size() - 1));
    // Keep the index at most a quarter full, counting the next new value:
    // every probe sequence ends at an empty slot, and a short one.
    if (4 * (num_dict_.size() + 1) > num_slots_.size() &&
        num_dict_.size() < kMaxNumericDictSize) {
      GrowIndex();
    }
    return;
  }
}

void ColumnChunk::GrowIndex() {
  num_slots_.assign(std::max<size_t>(16, 2 * num_slots_.size()), 0);
  const size_t mask = num_slots_.size() - 1;
  for (size_t code = 0; code < num_dict_.size(); ++code) {
    size_t s = KeyHash(num_dict_[code]) >> SlotShift(num_slots_.size());
    while (num_slots_[s] != 0) s = (s + 1) & mask;
    num_slots_[s] = static_cast<uint16_t>(code + 1);
  }
}

void ColumnChunk::DropNumericDict() {
  high_cardinality_ = true;
  std::vector<double>().swap(num_dict_);
  std::vector<uint16_t>().swap(num_codes_);
  std::vector<uint16_t>().swap(num_slots_);
}

void ColumnChunk::ReleaseIndexIfFull() {
  if (full() && !num_slots_.empty()) std::vector<uint16_t>().swap(num_slots_);
}

void ColumnChunk::ObserveNumeric(double v) {
  CodeNumeric(v);
  ReleaseIndexIfFull();
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
  size_t bytes = sizeof(ColumnChunk);
  bytes += ints_.capacity() * sizeof(int64_t);
  bytes += doubles_.capacity() * sizeof(double);
  bytes += codes_.capacity() * sizeof(uint32_t);
  bytes += num_dict_.capacity() * sizeof(double);
  bytes += (num_codes_.capacity() + num_slots_.capacity()) * sizeof(uint16_t);
  bytes += (valid_.num_words()) * sizeof(uint64_t);
  for (const std::string& s : dict_) {
    bytes += sizeof(std::string) + s.capacity();
  }
  // Dictionary index: buckets plus one node per entry (rough hash-map
  // model; the point is order-of-magnitude memory observability).
  bytes += dict_index_.bucket_count() * sizeof(void*);
  bytes += dict_index_.size() * (sizeof(std::string) + 2 * sizeof(void*) +
                                 sizeof(uint32_t));
  return bytes;
}

}  // namespace muve::storage
