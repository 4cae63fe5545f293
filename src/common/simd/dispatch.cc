// Dispatch-table selection: best supported level at first use,
// MUVE_SIMD env override, SetActiveLevel() test hook.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/simd/internal.h"
#include "common/simd/simd.h"

namespace muve::common::simd {

namespace {

// Case-insensitive ASCII compare (env values are short level names).
bool IEquals(const char* a, const char* b) {
  for (; *a != '\0' && *b != '\0'; ++a, ++b) {
    const char ca = (*a >= 'A' && *a <= 'Z') ? *a - 'A' + 'a' : *a;
    const char cb = (*b >= 'A' && *b <= 'Z') ? *b - 'A' + 'a' : *b;
    if (ca != cb) return false;
  }
  return *a == '\0' && *b == '\0';
}

const KernelTable* ResolveInitialTable() {
  const KernelTable* best = KernelsFor(BestSupportedLevel());
  const char* env = std::getenv("MUVE_SIMD");
  if (env == nullptr || *env == '\0' || IEquals(env, "native")) {
    return best;
  }
  const KernelTable* forced = nullptr;
  if (IEquals(env, "scalar")) {
    forced = &ScalarKernels();
  } else if (IEquals(env, "avx2")) {
    forced = KernelsFor(DispatchLevel::kAvx2);
  } else {
    std::fprintf(stderr,
                 "[muve] warning: MUVE_SIMD='%s' is not a known level "
                 "(scalar|avx2|native); using '%s'\n",
                 env, best->name);
    return best;
  }
  if (forced == nullptr) {
    std::fprintf(stderr,
                 "[muve] warning: MUVE_SIMD='%s' is not supported by this "
                 "binary/CPU; using '%s'\n",
                 env, best->name);
    return best;
  }
  return forced;
}

std::atomic<const KernelTable*>& ActiveTableSlot() {
  static std::atomic<const KernelTable*> slot{nullptr};
  return slot;
}

const KernelTable* ActiveTable() {
  auto& slot = ActiveTableSlot();
  const KernelTable* t = slot.load(std::memory_order_acquire);
  if (t != nullptr) return t;
  const KernelTable* resolved = ResolveInitialTable();
  // First resolver wins; racers resolve to the same table anyway
  // (ResolveInitialTable is deterministic per process).
  const KernelTable* expected = nullptr;
  if (slot.compare_exchange_strong(expected, resolved,
                                   std::memory_order_acq_rel)) {
    return resolved;
  }
  return expected;
}

}  // namespace

const char* DispatchLevelName(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return "scalar";
    case DispatchLevel::kAvx2:
      return "avx2";
  }
  return "?";
}

const KernelTable* KernelsFor(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return &ScalarKernels();
    case DispatchLevel::kAvx2:
#if defined(MUVE_SIMD_AVX2)
      return Avx2SupportedAtRuntime() ? &Avx2KernelsImpl() : nullptr;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

DispatchLevel BestSupportedLevel() {
#if defined(MUVE_SIMD_AVX2)
  if (Avx2SupportedAtRuntime()) return DispatchLevel::kAvx2;
#endif
  return DispatchLevel::kScalar;
}

const KernelTable& ActiveKernels() { return *ActiveTable(); }

DispatchLevel ActiveLevel() { return ActiveTable()->level; }

const char* ActiveLevelName() { return ActiveTable()->name; }

bool SetActiveLevel(DispatchLevel level) {
  const KernelTable* table = KernelsFor(level);
  if (table == nullptr) return false;
  ActiveTableSlot().store(table, std::memory_order_release);
  return true;
}

}  // namespace muve::common::simd
