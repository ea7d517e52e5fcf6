// SSV — Single-segment ungapped Viterbi (extension).
//
// The MSV model's J state lets an alignment chain several ungapped
// segments.  Dropping J yields the even simpler SSV heuristic (HMMER 3.1
// later shipped exactly this as its first pipeline stage): the score of
// the single best ungapped diagonal.  It shares the MSV byte-scoring
// system, so SSV <= MSV holds cell-wise and the same profile drives both.
//
// We provide the scalar reference and the striped SIMD filter; the warp
// kernel lives in gpu/ssv_kernel.  All three agree bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>

#include "cpu/filter_result.hpp"
#include "profile/msv_profile.hpp"

namespace finehmm::cpu {

/// Scalar reference SSV.
FilterResult ssv_scalar(const profile::MsvProfile& prof,
                        const std::uint8_t* seq, std::size_t L);

/// Striped SSV filter at the active SIMD tier (cpu::active_simd_tier).
/// Tiers wider than 16 byte lanes re-stripe the emission table on every
/// call; scans use MsvFilter::ssv, which stripes once.
FilterResult ssv_striped(const profile::MsvProfile& prof,
                         const std::uint8_t* seq, std::size_t L);

}  // namespace finehmm::cpu
