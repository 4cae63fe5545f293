// Shared helpers for the MuVE test suite.

#ifndef MUVE_TESTS_TEST_UTIL_H_
#define MUVE_TESTS_TEST_UTIL_H_

#include <string>

#include "common/logging.h"
#include "core/view.h"
#include "data/dataset.h"
#include "data/toy.h"

namespace muve::testutil {

// The small deterministic exploration dataset the suites share; now owned
// by the library (src/data/toy) so the CLI's `--dataset=toy` and the
// golden-file regression test build the exact same workload.
inline data::Dataset MakeToyDataset() { return data::MakeToyDataset(); }

// The view (dimension, measure, function) of `space`: evaluators probe
// only views their space resolved.
inline const core::View& ViewOf(const core::ViewSpace& space,
                                const std::string& dimension,
                                const std::string& measure,
                                storage::AggregateFunction function) {
  for (const core::View& view : space.views()) {
    if (view.dimension == dimension && view.measure == measure &&
        view.function == function) {
      return view;
    }
  }
  MUVE_CHECK(false) << "no view " << dimension << "/" << measure;
  return space.views().front();
}

}  // namespace muve::testutil

#endif  // MUVE_TESTS_TEST_UTIL_H_
