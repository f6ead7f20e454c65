// Runtime-dispatched word kernels for the vertical counting backends.
//
// Every vertical projection query bottoms out in four word-array shapes:
// find-first-set in a bit range, find-last-set, popcount over a range,
// and OR-ing several rows into a union row. This header exposes them as a
// function-pointer table (SimdKernels) resolved ONCE per process: if the
// binary was built with SPECMINE_ENABLE_AVX2 (the default on x86-64) and
// the CPU reports AVX2+BMI2+POPCNT, the AVX2 table is selected; otherwise
// the scalar table — which delegates to the bitrow word primitives of
// bitmap_index.h, the always-built fallback and the equivalence oracle of
// the kernel property tests.
//
// Overrides, in precedence order:
//   1. SetKernelsForTest(table) — tests and benchmarks pin a table.
//   2. SPECMINE_FORCE_SCALAR env var (set and not "0") — forces the
//      scalar table; the CI sanitize job runs the whole suite under it so
//      the fallback stays exercised on AVX2 machines.
//   3. cpuid detection.
//
// Bit-range conventions match bitmap_index.h exactly: ranges are
// half-open [from, limit) over global bit positions, and "no bit" is
// ~size_t{0} (kNoBit). Both tables are observationally identical —
// property-tested in tests/simd_kernels_test.cc over random words
// and the 63/64/65-bit boundary cases.

#ifndef SPECMINE_ITERMINE_SIMD_KERNELS_H_
#define SPECMINE_ITERMINE_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace specmine {

/// \brief One resolved set of word kernels. POD; instances are static.
struct SimdKernels {
  /// Dispatch level name for reports/metrics: "avx2" or "scalar".
  const char* level;

  /// First set bit in [from, limit), or ~size_t{0}.
  size_t (*first_set)(const uint64_t* row, size_t from, size_t limit);

  /// Last set bit in [lo, before), or ~size_t{0}.
  size_t (*last_set)(const uint64_t* row, size_t lo, size_t before);

  /// True iff any bit of [from, limit) is set (no position computed —
  /// the gap-freedom test wants the early-out, not the index).
  bool (*any_range)(const uint64_t* row, size_t from, size_t limit);

  /// Number of set bits in [from, limit).
  size_t (*count_range)(const uint64_t* row, size_t from, size_t limit);

  /// OR of \p n rows over the word range [wb, we), written (overwriting)
  /// into out[wb..we). n == 0 writes zeros.
  void (*union_rows)(const uint64_t* const* rows, size_t n, size_t wb,
                     size_t we, uint64_t* out);
};

namespace internal {
/// The active table. Constant-initialized to the scalar table, upgraded
/// to the resolved one (SPECMINE_FORCE_SCALAR + cpuid) by a dynamic
/// initializer in simd_kernels.cc, overwritten by SetKernelsForTest.
extern const SimdKernels* g_active_kernels;
}  // namespace internal

/// \brief The process-wide kernel table: test override if set, else the
/// table resolved once from SPECMINE_FORCE_SCALAR + cpuid. A plain
/// pointer load — this sits under every word-wise counting query.
inline const SimdKernels& Kernels() { return *internal::g_active_kernels; }

/// \brief The scalar table (always available; the dispatch fallback and
/// the property-test oracle).
const SimdKernels& ScalarKernels();

/// \brief The AVX2 table, or nullptr when the build disabled it
/// (SPECMINE_ENABLE_AVX2=OFF / non-x86) or the CPU lacks AVX2/BMI2/POPCNT.
const SimdKernels* Avx2KernelsOrNull();

/// \brief Kernels().level — the resolved dispatch level for `specmine
/// stats`, the --verbose timing line, and the server's simd_dispatch
/// info-gauge.
const char* SimdDispatchLevel();

/// \brief Test/bench hook: pin the table returned by Kernels() (nullptr
/// restores normal resolution). Not thread-safe against in-flight
/// queries; call between runs only.
void SetKernelsForTest(const SimdKernels* kernels);

}  // namespace specmine

#endif  // SPECMINE_ITERMINE_SIMD_KERNELS_H_
