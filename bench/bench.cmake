# Benchmark targets, included from the top-level CMakeLists (instead of
# add_subdirectory) so that build/bench/ contains ONLY the benchmark
# executables and `for b in build/bench/*; do $b; done` runs cleanly.

add_library(muve_bench_harness STATIC bench/harness.cc)
target_link_libraries(muve_bench_harness PUBLIC muve_core muve_data)
target_include_directories(muve_bench_harness PUBLIC ${PROJECT_SOURCE_DIR}/bench)
# Default --json-out artifacts land at the repo root as BENCH_<name>.json;
# the runtime git-sha lookup also runs from here.
target_compile_definitions(muve_bench_harness PUBLIC
  MUVE_BENCH_REPO_ROOT="${PROJECT_SOURCE_DIR}")

function(muve_add_bench name)
  add_executable(${name} bench/${name}.cpp)
  target_link_libraries(${name} muve_bench_harness ${ARGN})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

muve_add_bench(fig05_alpha_s_cost)
muve_add_bench(fig06_alpha_d_cost)
muve_add_bench(fig07_topk_cost)
muve_add_bench(fig08_scalability)
muve_add_bench(fig09_additive_cost)
muve_add_bench(fig10_additive_fidelity)
muve_add_bench(fig11_geometric_cost)
muve_add_bench(fig12_geometric_fidelity)
muve_add_bench(fig13_refine_skip)

muve_add_bench(ablate_probe_order)
muve_add_bench(ablate_pruning)
muve_add_bench(ablate_distance)
muve_add_bench(ablate_sharing)
# The no-sharing arm is the tests' direct-scan oracle (tests/direct_oracle.h).
target_include_directories(ablate_sharing PRIVATE ${PROJECT_SOURCE_DIR}/tests)
# Equi-width / equi-depth / V-optimal histograms (bench/histogram.h):
# used by this bench and tests/storage/histogram_test.cc only.
add_library(muve_bench_histogram STATIC bench/histogram.cc)
target_link_libraries(muve_bench_histogram PUBLIC muve_common)
target_include_directories(muve_bench_histogram PUBLIC
  ${PROJECT_SOURCE_DIR}/bench)
muve_add_bench(ablate_histogram muve_bench_histogram)
muve_add_bench(parallel_scaling)
muve_add_bench(ablate_sampling)
muve_add_bench(fused_scan_bench)
muve_add_bench(anytime_deadline)
# Cross-request shared execution: duplicate-heavy workload against an
# in-process muved, sharing on vs off (DESIGN.md §13).
muve_add_bench(ablate_cross_query muve_server)
# Incremental ingest at scale: cold/warm/append/reload cycle over the
# deterministic scale workload; asserts O(new rows) append cost and
# bit-identical top-k (DESIGN.md §15).
muve_add_bench(scale_ingest muve_sql)

add_executable(micro_engine bench/micro_engine.cpp)
target_link_libraries(micro_engine muve_bench_harness benchmark::benchmark)
set_target_properties(micro_engine PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Differential kernel bench: checks every compiled-in dispatch level
# bit-identical to scalar, then times ns/element per SIMD kernel per
# level.
muve_add_bench(kernel_bench)
