#include "core/score_memo.h"

#include <algorithm>
#include <bit>

namespace muve::core {

namespace {

// The accuracy plus one deviation per DistanceKind (kJensenShannon is
// the last).
constexpr size_t kKinds =
    2 + static_cast<size_t>(DistanceKind::kJensenShannon);

// Slots per block: small enough that a search touching a few bin counts
// per view allocates little, large enough that block tables stay small.
constexpr size_t kMaxBlockSlots = 128;

// An empty slot: a NaN payload no probe produces (x86 and the C library
// return the default NaNs).  A value with these bits is not stored.
constexpr uint64_t kEmpty = 0xFFF8'0000'DEAD'BEEFull;

}  // namespace

ScoreMemo::ScoreMemo(const ViewSpace& space) {
  offsets_.reserve(space.views().size() + 1);
  offsets_.push_back(0);
  for (const View& view : space.views()) {
    offsets_.push_back(offsets_.back() +
                       space.dimensions()[view.dimension_index].max_bins);
  }
  const size_t slots = static_cast<size_t>(offsets_.back());
  block_slots_ = std::max<size_t>(1, std::min(slots, kMaxBlockSlots));
  blocks_per_kind_ = (slots + block_slots_ - 1) / block_slots_;
  const size_t tables = kKinds * blocks_per_kind_;
  blocks_ = std::make_unique<std::atomic<Slot*>[]>(tables);
  for (size_t i = 0; i < tables; ++i) {
    blocks_[i].store(nullptr, std::memory_order_relaxed);
  }
  bytes_.store(tables * sizeof(std::atomic<Slot*>) +
                   offsets_.size() * sizeof(int64_t),
               std::memory_order_relaxed);
}

ScoreMemo::~ScoreMemo() {
  for (size_t i = 0; i < kKinds * blocks_per_kind_; ++i) {
    delete[] blocks_[i].load(std::memory_order_relaxed);
  }
}

bool ScoreMemo::Fits(const ViewSpace& space) const {
  if (offsets_.size() != space.views().size() + 1) return false;
  for (size_t i = 0; i < space.views().size(); ++i) {
    const View& view = space.views()[i];
    if (offsets_[i + 1] - offsets_[i] !=
        space.dimensions()[view.dimension_index].max_bins) {
      return false;
    }
  }
  return true;
}

int64_t ScoreMemo::SlotIndex(int view_index, int bins) const {
  if (view_index < 0 ||
      static_cast<size_t>(view_index) + 1 >= offsets_.size() || bins < 1 ||
      bins > offsets_[view_index + 1] - offsets_[view_index]) {
    return -1;
  }
  return offsets_[view_index] + bins - 1;
}

std::atomic<ScoreMemo::Slot*>& ScoreMemo::BlockOf(int kind,
                                                  int64_t slot) const {
  return blocks_[static_cast<size_t>(kind) * blocks_per_kind_ +
                 static_cast<size_t>(slot) / block_slots_];
}

std::optional<double> ScoreMemo::Get(int kind, int view_index,
                                     int bins) const {
  const int64_t slot = SlotIndex(view_index, bins);
  if (slot < 0) return std::nullopt;
  const Slot* block = BlockOf(kind, slot).load(std::memory_order_acquire);
  if (block == nullptr) return std::nullopt;
  const uint64_t bits = block[static_cast<size_t>(slot) % block_slots_].load(
      std::memory_order_acquire);
  if (bits == kEmpty) return std::nullopt;
  return std::bit_cast<double>(bits);
}

bool ScoreMemo::Put(int kind, int view_index, int bins, double value) {
  const int64_t slot = SlotIndex(view_index, bins);
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  if (slot < 0 || bits == kEmpty) return false;
  std::atomic<Slot*>& table = BlockOf(kind, slot);
  Slot* block = table.load(std::memory_order_acquire);
  if (block == nullptr) {
    std::unique_ptr<Slot[]> fresh(new Slot[block_slots_]);
    for (size_t i = 0; i < block_slots_; ++i) {
      fresh[i].store(kEmpty, std::memory_order_relaxed);
    }
    if (table.compare_exchange_strong(block, fresh.get(),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      block = fresh.release();
      bytes_.fetch_add(block_slots_ * sizeof(Slot),
                       std::memory_order_relaxed);
    }
    // Otherwise `block` is the racer's, and `fresh` goes.
  }
  uint64_t expected = kEmpty;
  return block[static_cast<size_t>(slot) % block_slots_]
      .compare_exchange_strong(expected, bits, std::memory_order_release,
                               std::memory_order_relaxed);
}

}  // namespace muve::core
