// Read view of one chunk version's validity bits.
//
// The layout is the conventional columnar one (Arrow-style): bit i of
// word i/64 is 1 when cell i is valid (non-NULL), with bit index i%64
// counted from the least-significant bit.
//
// A chunk's complete words live in its shared tail store
// (storage/chunk.h) and never change once written; the partial last
// word is private to each version, so a writer appending to the same
// store never touches a word a reader of an older version can see.  The
// view stitches the two together: Word(w) reads the store for complete
// words and the version's own copy for the last one, whose bits at
// positions >= size() are 0.

#ifndef MUVE_STORAGE_VALIDITY_BITMAP_H_
#define MUVE_STORAGE_VALIDITY_BITMAP_H_

#include <cstddef>
#include <cstdint>

#include "common/logging.h"

namespace muve::storage {

class ValidityBitmap {
 public:
  // `words` holds at least size / 64 complete words; `last_word` holds
  // the bits of rows [64 * (size / 64), size).
  ValidityBitmap(const uint64_t* words, uint64_t last_word, size_t size)
      : words_(words), last_word_(last_word), size_(size) {}

  size_t size() const { return size_; }
  size_t num_words() const { return (size_ + 63) >> 6; }

  // True when cell `i` is valid (non-NULL).
  bool Get(size_t i) const {
    MUVE_DCHECK(i < size_);
    return (Word(i >> 6) >> (i & 63)) & 1u;
  }

  // Bits of cells [64 w, 64 w + 64) for word-at-a-time kernels.
  uint64_t Word(size_t w) const {
    MUVE_DCHECK(w < num_words());
    return w < (size_ >> 6) ? words_[w] : last_word_;
  }

 private:
  const uint64_t* words_;
  uint64_t last_word_;
  size_t size_;
};

}  // namespace muve::storage

#endif  // MUVE_STORAGE_VALIDITY_BITMAP_H_
