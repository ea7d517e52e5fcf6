// Generic (full-precision float) reference algorithms.
//
// These are the O(M*L) textbook dynamic programs over the configured
// search profile, used (a) as the semantic reference the quantized filters
// are validated against, (b) as the Forward stage of the hmmsearch
// pipeline, and (c) to verify Forward via the Forward/Backward identity.
//
// Model semantics (multihit local, uniform entry, free exit):
//   M(i,k) = msc(x_i,k) (+) { M/I/D(i-1,k-1) + t, B(i-1) + entry }
//   I(i,k) = { M(i-1,k)+tMI, I(i-1,k)+tII }          (emission score 0)
//   D(i,k) = { M(i,k-1)+tMD, D(i,k-1)+tDD }
//   E(i)   = (+)_k M(i,k)
//   J/C/N/B with the configured length model; total = C(L) + c_move.
// where (+) is max for Viterbi/MSV and log-sum for Forward.
#pragma once

#include <cstddef>
#include <cstdint>

#include "hmm/profile.hpp"

namespace finehmm::cpu {

/// Exact float MSV score (nats) with the real N/C/J loop costs.
float generic_msv(const hmm::SearchProfile& prof, const std::uint8_t* seq,
                  std::size_t L);

/// Float mirror of the *byte* MSV semantics: loop costs treated as free and
/// the constant -3 nat correction applied, exactly like the 8-bit filter.
/// The byte filter must approximate this to within quantization error.
float generic_msv_filtersim(const hmm::SearchProfile& prof,
                            const std::uint8_t* seq, std::size_t L);

/// Full Plan-7 Viterbi score (nats), E fed from match states.
float generic_viterbi(const hmm::SearchProfile& prof, const std::uint8_t* seq,
                      std::size_t L);

/// Forward score (nats).  exact=true uses exact log-sum (slow, tests);
/// false uses the shared lookup table like HMMER's p7_FLogsum.
float generic_forward(const hmm::SearchProfile& prof, const std::uint8_t* seq,
                      std::size_t L, bool exact = false);

/// Table-driven Forward scores (nats) of n sequences of one length L,
/// stored back to back (sequence j at seqs + j*L): out[j] is bitwise
/// generic_forward(prof, seqs + j*L, L).  Runs one sequence per float
/// lane of the active SIMD tier; the result does not depend on the tier.
void generic_forward_batch(const hmm::SearchProfile& prof,
                           const std::uint8_t* seqs, std::size_t n,
                           std::size_t L, float* out);

/// Backward score (nats); equals Forward up to log-sum rounding.
float generic_backward(const hmm::SearchProfile& prof, const std::uint8_t* seq,
                       std::size_t L, bool exact = false);

}  // namespace finehmm::cpu
