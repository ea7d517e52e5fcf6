// Viterbi traceback and alignment rendering (extension).
//
// The filters only need scores, but a usable search tool reports *where*
// the motif matched.  viterbi_trace runs the full Plan-7 Viterbi DP with
// backpointers and recovers the optimal state path; trace_alignments
// renders each pass through the core model (a B->...->E segment) as a
// three-line alignment block, hmmsearch-style:
//
//     model  kvLATGCEw          (consensus; lowercase = weak column)
//     match  k+LA GC w          (letter = exact, '+' = positive score)
//     seq    KILASGCRW
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/simd_backend/simd_tier.hpp"
#include "hmm/profile.hpp"
#include "util/aligned.hpp"

namespace finehmm::cpu {

namespace backend {
struct TierKernels;
}  // namespace backend
namespace simd_kernels {
struct TraceStripesView;
}  // namespace simd_kernels

enum class TraceState : std::uint8_t { kN, kB, kM, kI, kD, kE, kJ, kC };

struct TraceStep {
  TraceState state;
  int k = 0;          // model node (M/I/D states)
  std::size_t i = 0;  // 1-based sequence position for emitting steps, 0 else
};

struct ViterbiTrace {
  std::vector<TraceStep> steps;
  float score = 0.0f;  // the Viterbi score this path achieves (nats)
};

/// Full Viterbi with backpointers; O(M*L) time and space.  Plain scalar
/// code: the reference every other trace is tested against.
ViterbiTrace viterbi_trace(const hmm::SearchProfile& prof,
                           const std::uint8_t* seq, std::size_t L);

class TraceStripes;
class TraceWorkspace;

/// Scan-path variant of viterbi_trace: the striped Viterbi-with-
/// backpointers kernel at the stripes' SIMD tier
/// (simd_kernels::trace_kernel), with all DP and backpointer storage in a
/// caller-owned, grow-only workspace.  Identical states, scores and step
/// sequence to the reference above, bit for bit, at every tier.  Database
/// engines keep one workspace per worker, so tracing a survivor
/// allocates nothing once the workspace has grown to the largest (M, L)
/// seen.
ViterbiTrace viterbi_trace(const TraceStripes& stripes,
                           const std::uint8_t* seq, std::size_t L,
                           TraceWorkspace& ws);

/// Convenience form of the above: re-stripes `prof` for the active tier
/// on every call.  Callers tracing many sequences against one model
/// build a TraceStripes once instead.
ViterbiTrace viterbi_trace(const hmm::SearchProfile& prof,
                           const std::uint8_t* seq, std::size_t L,
                           TraceWorkspace& ws);

/// A SearchProfile's log-odds parameters striped for the trace kernel at
/// one tier's float width N: a residue-major match-emission table (29
/// rows) plus nine transition rows interleaved by stripe, Q = ceil(M/N)
/// stripes each — 38 floats, 152 bytes, per model position.  Keeps a reference to the
/// profile (for its length model), which must outlive it.  Build one per
/// model and keep it exactly as long as that model is in use, like a
/// FwdFilter; never cache one by profile address, since a later profile
/// can be built at the same address.
class TraceStripes {
 public:
  explicit TraceStripes(const hmm::SearchProfile& prof,
                        SimdTier tier = active_simd_tier());

  /// The tier the kernel runs at: the requested one clamped to the host.
  SimdTier tier() const noexcept;
  /// The raw-pointer view the trace kernel consumes.
  simd_kernels::TraceStripesView view() const;

 private:
  friend ViterbiTrace viterbi_trace(const TraceStripes&,
                                    const std::uint8_t*, std::size_t,
                                    TraceWorkspace&);

  const hmm::SearchProfile& prof_;
  const backend::TierKernels* ops_;
  int Q_;
  // kKp emission rows, then the interleaved transition stripes
  // (simd_kernels::TraceStripesView), Q * lanes floats per row.
  aligned_vector<float> params_;
};

/// Reusable storage for the workspace viterbi_trace overloads.  Buffers
/// only ever grow; a default-constructed workspace is valid and sizes
/// itself on first use.
class TraceWorkspace {
 public:
  TraceWorkspace() = default;

 private:
  friend ViterbiTrace viterbi_trace(const TraceStripes&,
                                    const std::uint8_t*, std::size_t,
                                    TraceWorkspace&);
  void reserve(std::size_t row_floats, std::size_t L);

  std::vector<float> rows_;  // the M, I and D rows, row_floats each
  /// (L+1) rows of row_floats/2 bytes: the core-state backpointers, one
  /// nibble per cell in striped order (simd_kernels::TraceScratch).
  std::vector<std::uint8_t> bp_;
  std::vector<int> be_;                     // best exit node per row
  std::vector<std::uint8_t> bj_, bc_, bb_;  // special-state backpointers
};

/// One aligned core-model segment of a trace.
struct Alignment {
  int k_start = 0, k_end = 0;          // model span
  std::size_t i_start = 0, i_end = 0;  // sequence span (1-based)
  std::string model_line;              // consensus with '.' for inserts
  std::string match_line;              // identity / '+' / ' '
  std::string seq_line;                // residues with '-' for deletes
};

/// Split a trace into its B->E segments and render them.
std::vector<Alignment> trace_alignments(const ViterbiTrace& trace,
                                        const hmm::SearchProfile& prof,
                                        const std::uint8_t* seq);

/// Recompute the score of a trace by summing its transition and emission
/// scores (used by tests to validate the traceback).
float trace_score(const ViterbiTrace& trace, const hmm::SearchProfile& prof,
                  const std::uint8_t* seq, std::size_t L);

}  // namespace finehmm::cpu
