#include "src/itermine/simd_kernels.h"

#include <atomic>
#include <cstdlib>

#include "src/itermine/bitmap_index.h"

namespace specmine {

namespace {

// The scalar kernels delegate to the bitrow word primitives
// (bitmap_index.h) — the one canonical scalar implementation, shared with
// direct callers.

size_t FirstSetScalar(const uint64_t* row, size_t from, size_t limit) {
  return bitrow::FirstSetAtOrAfter(row, from, limit);
}

size_t LastSetScalar(const uint64_t* row, size_t lo, size_t before) {
  return bitrow::LastSetBefore(row, lo, before);
}

bool AnyRangeScalar(const uint64_t* row, size_t from, size_t limit) {
  return bitrow::FirstSetAtOrAfter(row, from, limit) != kNoBit;
}

size_t CountRangeScalar(const uint64_t* row, size_t from, size_t limit) {
  return bitrow::CountInRange(row, from, limit);
}

void UnionRowsScalar(const uint64_t* const* rows, size_t n, size_t wb,
                     size_t we, uint64_t* out) {
  for (size_t w = wb; w < we; ++w) {
    uint64_t u = 0;
    for (size_t i = 0; i < n; ++i) u |= rows[i][w];
    out[w] = u;
  }
}

constexpr SimdKernels kScalarKernels = {
    "scalar",        FirstSetScalar,  LastSetScalar,
    AnyRangeScalar,  CountRangeScalar, UnionRowsScalar,
};

bool ForceScalarFromEnv() {
  const char* env = std::getenv("SPECMINE_FORCE_SCALAR");
  if (env == nullptr || env[0] == '\0') return false;
  return !(env[0] == '0' && env[1] == '\0');
}

const SimdKernels* ResolveOnce() {
  if (ForceScalarFromEnv()) return &kScalarKernels;
  const SimdKernels* avx2 = Avx2KernelsOrNull();
  return avx2 != nullptr ? avx2 : &kScalarKernels;
}

}  // namespace

namespace internal {
// Constant-initialized to the scalar table so any query issued during
// another TU's static initialization is already safe (just unoptimized);
// the dynamic initializer below upgrades it to the resolved table before
// main(). Kernels() is then a plain load — it sits under every word-wise
// query, so it must cost nothing beyond the indirect call itself.
const SimdKernels* g_active_kernels = &kScalarKernels;
}  // namespace internal

namespace {
const bool g_kernels_resolved = [] {
  internal::g_active_kernels = ResolveOnce();
  return true;
}();
}  // namespace

const SimdKernels& ScalarKernels() { return kScalarKernels; }

const char* SimdDispatchLevel() { return Kernels().level; }

void SetKernelsForTest(const SimdKernels* kernels) {
  internal::g_active_kernels = kernels != nullptr ? kernels : ResolveOnce();
}

}  // namespace specmine
