// The per-tier kernel dispatch table.
//
// The portable row instantiates the shared template kernels with the
// plain-loop lane classes from cpu/simd_vec.hpp at the same 128-bit
// geometry as SSE2 (16 bytes / 8 words / 4 floats), so a forced portable
// run is bit-identical to the SSE2 run.  The native rows come from their
// ISA translation units.
#include "cpu/simd_backend/backend.hpp"

#include "cpu/simd_vec.hpp"
#include "util/error.hpp"

namespace finehmm::cpu::backend {

const TierKernels& tier_kernels(SimdTier tier) {
  static constexpr TierKernels kPortable =
      make_tier_row<U8x16, I16x8, F32x4>(SimdTier::kPortable);
  FH_REQUIRE(simd_tier_supported(tier),
             "SIMD tier not supported on this host");
  switch (tier) {
    case SimdTier::kPortable:
      return kPortable;
    case SimdTier::kSse2:
      return *sse2_row();
    case SimdTier::kAvx2:
      return *avx2_row();
    case SimdTier::kAvx512:
      return *avx512_row();
  }
  throw Error("unknown SIMD tier");
}

}  // namespace finehmm::cpu::backend
