// The word-scan level of the vertical counting backends, for environment
// records (the end-to-end benchmark prints it). HybridIndex and the
// vertical projection queries call the portable bitrow primitives of
// bitmap_index.h directly, so there is exactly one level. Nothing in the
// library includes this header.

#ifndef SPECMINE_ITERMINE_SIMD_KERNELS_H_
#define SPECMINE_ITERMINE_SIMD_KERNELS_H_

namespace specmine {

/// \brief The word-scan level of the vertical backends: always "scalar".
inline const char* SimdDispatchLevel() { return "scalar"; }

}  // namespace specmine

#endif  // SPECMINE_ITERMINE_SIMD_KERNELS_H_
