// The kernel-dispatch property: the AVX2 word kernels are observationally
// identical to the scalar table (which delegates to the bitrow word
// primitives of bitmap_index.h) on every range shape — random rows,
// all-zero and all-one rows, and the 63/64/65-bit word-boundary cases.
// Plus the dispatch
// plumbing itself: SetKernelsForTest pins the table Kernels() returns,
// and SimdDispatchLevel() tracks it.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/itermine/bitmap_index.h"
#include "src/itermine/simd_kernels.h"
#include "src/support/random.h"

namespace specmine {
namespace {

// Every (from, limit) pair is exercised on rows this many words long —
// big enough for the AVX2 kernels' 4-word inner loop to run full
// iterations AND hit every prologue/epilogue length.
constexpr size_t kWords = 8;
constexpr size_t kBits = kWords * 64;

void ExpectKernelsAgree(const SimdKernels& a, const SimdKernels& b,
                        const uint64_t* row, size_t from, size_t limit) {
  ASSERT_EQ(a.first_set(row, from, limit), b.first_set(row, from, limit))
      << "first_set [" << from << ", " << limit << ")";
  ASSERT_EQ(a.last_set(row, from, limit), b.last_set(row, from, limit))
      << "last_set [" << from << ", " << limit << ")";
  ASSERT_EQ(a.any_range(row, from, limit), b.any_range(row, from, limit))
      << "any_range [" << from << ", " << limit << ")";
  ASSERT_EQ(a.count_range(row, from, limit), b.count_range(row, from, limit))
      << "count_range [" << from << ", " << limit << ")";
}

// The interesting bit positions: word starts/ends and their neighbors.
std::vector<size_t> BoundaryPositions() {
  std::vector<size_t> out;
  for (size_t w = 0; w <= kWords; ++w) {
    for (int delta : {-2, -1, 0, 1, 2}) {
      int64_t pos = static_cast<int64_t>(w) * 64 + delta;
      if (pos >= 0 && pos <= static_cast<int64_t>(kBits)) {
        out.push_back(static_cast<size_t>(pos));
      }
    }
  }
  return out;
}

class SimdKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    avx2_ = Avx2KernelsOrNull();
    if (avx2_ == nullptr) {
      GTEST_SKIP() << "AVX2 kernels unavailable (build or CPU); the scalar "
                      "table is the only one and is its own oracle.";
    }
  }
  const SimdKernels* avx2_ = nullptr;
};

TEST_F(SimdKernelsTest, ScanKernelsAgreeOnBoundaryRows) {
  // Bits set at word boundaries and their neighbors (the shape of the
  // bitrow word-boundary test, widened to 8 words).
  std::vector<uint64_t> row(kWords, 0);
  for (size_t bit : {0u, 63u, 64u, 65u, 127u, 128u, 200u, 255u, 256u, 448u,
                     511u}) {
    row[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
  const std::vector<size_t> probes = BoundaryPositions();
  for (size_t from : probes) {
    for (size_t limit : probes) {
      if (from > limit) continue;
      ExpectKernelsAgree(*avx2_, ScalarKernels(), row.data(), from, limit);
    }
  }
}

TEST_F(SimdKernelsTest, ScanKernelsAgreeOnDegenerateRows) {
  const std::vector<uint64_t> zeros(kWords, 0);
  const std::vector<uint64_t> ones(kWords, ~uint64_t{0});
  const std::vector<size_t> probes = BoundaryPositions();
  for (const std::vector<uint64_t>& row : {zeros, ones}) {
    for (size_t from : probes) {
      for (size_t limit : probes) {
        if (from > limit) continue;
        ExpectKernelsAgree(*avx2_, ScalarKernels(), row.data(), from, limit);
      }
    }
  }
}

TEST_F(SimdKernelsTest, ScanKernelsAgreeOnRandomRows) {
  Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint64_t> row(kWords);
    // Mix densities: every 64-bit pattern, sparse rows, near-full rows.
    for (uint64_t& w : row) {
      w = rng.Next64();
      if (trial % 3 == 1) w &= rng.Next64() & rng.Next64();  // Sparse.
      if (trial % 3 == 2) w |= rng.Next64() | rng.Next64();  // Dense.
    }
    for (int probe = 0; probe < 32; ++probe) {
      size_t a = rng.Uniform(kBits + 1);
      size_t b = rng.Uniform(kBits + 1);
      if (a > b) std::swap(a, b);
      ExpectKernelsAgree(*avx2_, ScalarKernels(), row.data(), a, b);
    }
    // Also probe against the scalar oracle's own contract: kNoBit on empty.
    ExpectKernelsAgree(*avx2_, ScalarKernels(), row.data(), kBits, kBits);
  }
}

TEST_F(SimdKernelsTest, UnionKernelAgreesOnRandomRowSets) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = rng.Uniform(9);  // 0..8 rows, including the n==0 zeroing.
    std::vector<std::vector<uint64_t>> rows(n);
    std::vector<const uint64_t*> ptrs(n);
    for (size_t i = 0; i < n; ++i) {
      rows[i].resize(kWords);
      for (uint64_t& w : rows[i]) w = rng.Next64() & rng.Next64();
      ptrs[i] = rows[i].data();
    }
    size_t wb = rng.Uniform(kWords + 1);
    size_t we = rng.Uniform(kWords + 1);
    if (wb > we) std::swap(wb, we);
    // Poison both outputs so stale words would be caught.
    std::vector<uint64_t> got(kWords, 0xDEADBEEFCAFEF00Dull);
    std::vector<uint64_t> want = got;
    avx2_->union_rows(ptrs.data(), n, wb, we, got.data());
    ScalarKernels().union_rows(ptrs.data(), n, wb, we, want.data());
    ASSERT_EQ(got, want) << "n=" << n << " wb=" << wb << " we=" << we;
  }
}

TEST(SimdDispatchTest, TestOverridePinsTheTableAndTheLevel) {
  SetKernelsForTest(&ScalarKernels());
  EXPECT_EQ(&Kernels(), &ScalarKernels());
  EXPECT_STREQ(SimdDispatchLevel(), "scalar");
  if (const SimdKernels* avx2 = Avx2KernelsOrNull()) {
    SetKernelsForTest(avx2);
    EXPECT_EQ(&Kernels(), avx2);
    EXPECT_STREQ(SimdDispatchLevel(), "avx2");
  }
  SetKernelsForTest(nullptr);  // Restore normal resolution.
  const char* level = SimdDispatchLevel();
  EXPECT_TRUE(std::string(level) == "avx2" || std::string(level) == "scalar");
}

TEST(SimdDispatchTest, TableLevelsAreLabeled) {
  EXPECT_STREQ(ScalarKernels().level, "scalar");
  if (const SimdKernels* avx2 = Avx2KernelsOrNull()) {
    EXPECT_STREQ(avx2->level, "avx2");
  }
}

}  // namespace
}  // namespace specmine
