// Allocation-free batched database scanning (the CPU engines' hot loop).
//
// A database scan calls the filter cascade millions of times; doing any
// heap allocation per sequence dominates short-sequence throughput and
// serializes threads in the allocator.  BatchScanner owns, per worker,
// every piece of mutable filter state the cascade needs — MSV/SSV byte
// rows, Viterbi word stripes, Forward float stripes and the checkpointed
// Backward workspace — sized once at construction (decode workspace grown
// monotonically), so scoring a sequence is allocation-free no matter
// which engine (serial, ThreadPool, or MultiSearch) drives it.
//
// The parameter stripes for the resolved tier's lane counts are built
// once and shared across all workers (cpu::MsvStripes / VitStripes /
// FwdStripes, on every tier): model parameters are immutable during a
// scan, only DP state is per-worker.  This mirrors the paper's GPU
// decomposition — one read-only model in constant/shared memory, one DP
// slice per warp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "bio/packed_seq.hpp"
#include "cpu/filter_result.hpp"
#include "cpu/fwd_filter.hpp"
#include "cpu/msv_filter.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "cpu/vit_filter.hpp"
#include "profile/fwd_profile.hpp"
#include "profile/msv_profile.hpp"
#include "profile/vit_profile.hpp"

namespace finehmm::pipeline {

class BatchScanner {
 public:
  /// State for `workers` concurrent scanners over one model's profiles.
  /// `fwd` may be nullptr when the caller never runs the Forward stage.
  /// All workers score through the same resolved SIMD tier, so results
  /// are identical regardless of which worker scored which sequence.
  BatchScanner(const profile::MsvProfile& msv, const profile::VitProfile& vit,
               const profile::FwdProfile* fwd = nullptr,
               std::size_t workers = 1,
               cpu::SimdTier tier = cpu::active_simd_tier());

  std::size_t workers() const noexcept { return workers_.size(); }
  /// The tier every worker scores with (requested clamped to supported).
  cpu::SimdTier tier() const noexcept { return tier_; }

  /// Each scorer runs on worker `w`'s private state; two calls with the
  /// same `w` must not overlap, calls with different `w` may.  Zero-length
  /// sequences are scored as a no-hit (-inf, no DP touched) rather than
  /// handed to the kernels, which require L >= 1.
  cpu::FilterResult ssv(std::size_t w, const std::uint8_t* seq,
                        std::size_t L);
  cpu::FilterResult msv(std::size_t w, const std::uint8_t* seq,
                        std::size_t L);
  cpu::FilterResult vit(std::size_t w, const std::uint8_t* seq,
                        std::size_t L);
  /// Forward score in nats; requires a FwdProfile at construction.
  float fwd(std::size_t w, const std::uint8_t* seq, std::size_t L);
  /// Checkpointed Forward + Backward: fills mocc (resized to L) with the
  /// per-residue model occupancy and returns the Forward score (equal to
  /// fwd()'s).  Requires a FwdProfile at construction; the caller reuses
  /// mocc across calls so the steady state allocates nothing.
  float decode(std::size_t w, const std::uint8_t* seq, std::size_t L,
               std::vector<float>& mocc);

  /// Zero-copy overloads for the byte-stage filters: the sequence is a
  /// packed 5-bit view (typically straight out of an mmap'd .fsqdb) and is
  /// consumed in place — no decode buffer, no copy, bit-identical scores.
  /// The word stages (vit/fwd) run only on rare survivors, which engines
  /// decode into per-worker scratch instead.
  cpu::FilterResult ssv(std::size_t w, bio::PackedResidues seq,
                        std::size_t L);
  cpu::FilterResult msv(std::size_t w, bio::PackedResidues seq,
                        std::size_t L);

  /// Per-worker scoring workload, counted unconditionally (two integer
  /// bumps per call — each worker only ever touches its own slot, so
  /// there is no contention and nothing to synchronize).  The obs
  /// telemetry layer reads these at drain to attribute work to threads.
  struct WorkerLoad {
    std::uint64_t ssv_calls = 0, msv_calls = 0, vit_calls = 0, fwd_calls = 0;
    std::uint64_t bwd_calls = 0;  // checkpointed decode() invocations
    std::uint64_t residues = 0;   // summed over every call, all stages
    std::uint64_t calls() const {
      return ssv_calls + msv_calls + vit_calls + fwd_calls + bwd_calls;
    }
  };
  const WorkerLoad& load(std::size_t w) const { return workers_[w].load; }

 private:
  struct Worker {
    cpu::MsvFilter msv;
    cpu::VitFilter vit;
    std::optional<cpu::FwdFilter> fwd;
    WorkerLoad load;
  };

  cpu::SimdTier tier_;
  std::vector<Worker> workers_;
};

}  // namespace finehmm::pipeline
