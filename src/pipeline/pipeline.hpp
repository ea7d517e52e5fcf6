// The HMMER 3.0 hmmsearch acceleration pipeline (paper Fig. 1).
//
//   100% of sequences -> MSV (P <= 0.02) -> ~2% -> P7Viterbi (P <= 0.001)
//   -> ~0.1% -> Forward -> reported hits with E-values.
//
// Each filter converts its raw score to a bit score against null1 and
// then to a P-value using the model's calibrated Gumbel (filters) or
// exponential-tail (Forward) statistics.  Sequences whose byte MSV
// overflowed pass unconditionally (their score is provably huge).
//
// Every engine shares identical semantics and thresholds:
//   * run_cpu — striped SIMD filters on one thread (the paper's baseline
//     and the reference the other engines are tested against)
//   * HmmSearch::scan — the threaded CPU core: one bucketed SSV/MSV sweep
//     for many models (fused groups or lone models), survivors rescored
//     by any idle worker from one global queue
//   * run_gpu* — the warp-synchronous SIMT kernels for MSV and P7Viterbi
//     (the Forward stage stays on the CPU, as in the paper).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bio/packing.hpp"
#include "bio/sequence.hpp"
#include "cpu/filter_result.hpp"
#include "cpu/fwd_filter.hpp"
#include "cpu/posterior.hpp"
#include "cpu/trace.hpp"
#include "gpu/placement_policy.hpp"
#include "gpu/search.hpp"
#include "hmm/model_group.hpp"
#include "hmm/plan7.hpp"
#include "hmm/profile.hpp"
#include "obs/telemetry.hpp"
#include "pipeline/scan_source.hpp"
#include "profile/fwd_profile.hpp"
#include "profile/msv_profile.hpp"
#include "profile/vit_profile.hpp"
#include "stats/calibrate.hpp"
#include "util/threadpool.hpp"

namespace finehmm::pipeline {

struct Thresholds {
  double msv_p = 0.02;    // HMMER's F1
  double vit_p = 0.001;   // HMMER's F2
  double report_evalue = 10.0;
  /// Enable the SSV pre-filter ahead of MSV (extension; the design
  /// HMMER 3.1 adopted).  SSV is cheaper per cell — no J bookkeeping and
  /// one reduction per sequence — but blind to multi-segment hits, so it
  /// runs at a looser threshold.
  bool use_ssv_prefilter = false;
  double ssv_p = 0.06;
  /// Run the Viterbi traceback on every reported hit (costs one extra
  /// O(M*L) pass per hit; hits are rare so this is cheap).
  bool compute_alignments = false;
  /// Apply the null2 composition-bias correction to Forward scores
  /// (HMMER does; see pipeline/null2.hpp).
  bool null2_correction = true;
  /// Run posterior decoding on reported hits and attach per-domain
  /// envelopes, scores and alignments (hmmsearch's domain table).
  bool define_domains = false;
  /// Effective database size Z for E-values; 0 = the scanned database's
  /// own sequence count.  A cluster shard holding 1/Nth of a sharded
  /// database scores with the cluster-total Z here so its E-values (and
  /// the e <= report_evalue filter) are bit-identical to an unsharded
  /// scan of the whole database (docs/cluster.md).
  std::uint64_t z_override = 0;
};

struct Hit {
  std::size_t seq_index = 0;
  std::string name;
  /// MSV bit score; the overflow lower bound when the byte score saturated.
  float msv_bits = 0.0f;
  float vit_bits = 0.0f;
  float fwd_bits = 0.0f;   // after the null2 correction, when enabled
  float bias_bits = 0.0f;  // the null2 correction itself (hmmsearch "bias")
  double pvalue = 1.0;
  double evalue = 1e9;
  /// Viterbi alignments of the hit (one per matched segment), filled when
  /// Thresholds::compute_alignments is set.
  std::vector<cpu::Alignment> alignments;
  /// Posterior-decoded domain envelopes, filled when
  /// Thresholds::define_domains is set.
  std::vector<cpu::Domain> domains;
};

struct StageStats {
  std::size_t n_in = 0;       // sequences entering the stage
  std::size_t n_passed = 0;   // sequences surviving
  double cells = 0.0;         // DP cells evaluated
  /// Measured host time of this stage.  For run_cpu and the GPU engines
  /// this is the stage's wall clock.  For the threaded scan core (where
  /// stages overlap and have no wall-clock identity) it is the per-worker
  /// busy time, accumulated into per-thread slots during the scan and
  /// merged serially at drain — never written concurrently.  One sweep
  /// serves every model of a batch, so each model of a multi-model scan
  /// reports the whole batch's merged busy time, not a share of it.
  double seconds = 0.0;
  double pass_rate() const {
    return n_in ? static_cast<double>(n_passed) / n_in : 0.0;
  }
};

struct SearchResult {
  std::vector<Hit> hits;            // sorted by E-value
  StageStats ssv;  // only populated when the SSV pre-filter is enabled
  StageStats msv, vit, fwd;
  /// Checkpointed Backward + posterior decode over reported hits; only
  /// populated when Thresholds::define_domains is set.  `cells` counts
  /// the backward matrix (L*M per decode); the decode also replays the
  /// checkpointed Forward internally, so its time is banked here, not
  /// under fwd.
  StageStats bwd;
  /// GPU runs also expose the per-stage counters and launch plans.
  std::optional<gpu::StageResult> gpu_msv;
  std::optional<gpu::StageResult> gpu_vit;
  /// Unified performance snapshot (docs/observability.md), filled when a
  /// recorder is attached to the HmmSearch (set_recorder); every engine
  /// reports through the same schema.
  std::optional<obs::ScanTelemetry> telemetry;
};

struct ScanSchedule;  // pipeline/workload.hpp

/// A configured, calibrated search: one query model, ready to scan
/// databases with either engine.
class HmmSearch {
 public:
  HmmSearch(const hmm::Plan7Hmm& model, Thresholds thresholds = {},
            stats::CalibrateOptions calib = {});

  /// Construct with precomputed calibration (e.g. STATS lines read from a
  /// .hmm file), skipping the random-sequence simulation.
  HmmSearch(const hmm::Plan7Hmm& model, const stats::ModelStats& model_stats,
            Thresholds thresholds = {});

  /// Attach a telemetry recorder: subsequent runs trace spans into it
  /// and attach a ScanTelemetry snapshot to their SearchResult.  Null
  /// (the default) or a disabled recorder reduces every instrumentation
  /// site to one pointer test.  The recorder must outlive the runs and
  /// must not be shared by concurrent scans.
  void set_recorder(obs::Recorder* rec) noexcept { recorder_ = rec; }
  obs::Recorder* recorder() const noexcept { return recorder_; }

  const hmm::SearchProfile& profile() const noexcept { return prof_; }
  const profile::MsvProfile& msv_profile() const noexcept { return msv_; }
  const profile::VitProfile& vit_profile() const noexcept { return vit_; }
  const stats::ModelStats& model_stats() const noexcept { return stats_; }
  const Thresholds& thresholds() const noexcept { return thr_; }

  /// Scan with the striped CPU filters (single thread).  This is the
  /// straight-line reference every other engine is tested against.  All
  /// CPU engines take a ScanSource, so they accept a heap
  /// SequenceDatabase or a zero-copy MappedSeqDb interchangeably and
  /// report identical hits.
  SearchResult run_cpu(ScanSource src) const;

  /// The threaded CPU scan core: many models against one database in a
  /// single pass, the paper's third parallelism tier (one global work
  /// queue) combined with CUDAMPF++'s many-models-per-pass packing.
  ///
  /// Workers sweep the database in length-bucketed order
  /// (pipeline/workload.hpp), scoring every "unit" against each sequence
  /// while it is hot in cache: a unit is a fused group of short models
  /// lane-packed into one shared table (cpu::FusedMsvGroup, chosen by
  /// `plan`) or a lone model's own BatchScanner; `plan == nullptr` makes
  /// every model a lone unit.  (model, sequence) pairs that pass SSV/MSV
  /// go onto one bounded queue, and whichever worker is idle rescores
  /// them (Viterbi -> Forward -> null2 -> alignments / domains); a
  /// producer facing a full queue rescores one item itself (help-first
  /// backpressure).  Results land in sparse per-survivor records, and one
  /// serial replay per model rebuilds its StageStats and sorted hit list,
  /// so hits and stage counts/cells for model i are bit-identical to
  /// `searches[i]->run_cpu(src)`.
  ///
  /// `schedule` may pass a precomputed length-bucketed order for `src`
  /// (the daemon caches one per resident database); null builds it on
  /// the fly.  `rec` attaches span tracing.  The batch telemetry snapshot
  /// carries `engine` as its label, aggregated stage totals, the queue,
  /// bucket and per-thread rows, `batch.queries` / `batch.sweeps`
  /// counters on the msv stage, and — with a plan — `fuse.groups` /
  /// `fuse.fused_models` / `fuse.models_per_group` /
  /// `fuse.lane_occupancy` (docs/multi_model.md).
  struct CoalescedScan {
    /// Index-aligned with `searches`.
    std::vector<SearchResult> per_model;
    obs::ScanTelemetry telemetry;
  };
  static CoalescedScan scan(const std::vector<const HmmSearch*>& searches,
                            ScanSource src, ThreadPool& pool,
                            const hmm::FusePlan* plan,
                            const ScanSchedule* schedule, obs::Recorder* rec,
                            const char* engine);

  /// The fused-scan group plan for `searches`: hmm::plan_model_groups
  /// over their model lengths at the active SIMD tier's byte lane width,
  /// under the FINEHMM_FUSE policy.
  static hmm::FusePlan fuse_plan(
      const std::vector<const HmmSearch*>& searches);

  /// The scan core with this model alone, on a pool of `threads` workers
  /// (0 = hardware concurrency) or a caller-owned pool (so repeated scans
  /// reuse the worker threads).  The two names select the same engine
  /// and differ only in their telemetry label ("cpu_parallel" /
  /// "cpu_overlapped"), attached when a recorder is set.
  SearchResult run_cpu_parallel(ScanSource src, std::size_t threads = 0) const;
  SearchResult run_cpu_parallel(ScanSource src, ThreadPool& pool) const;
  SearchResult run_cpu_overlapped(ScanSource src,
                                  std::size_t threads = 0) const;
  SearchResult run_cpu_overlapped(ScanSource src, ThreadPool& pool) const;

  /// The scan core with every model a lone unit (label "cpu_coalesced"):
  /// N queries cost one database pass instead of N.  This is the search
  /// daemon's SEARCH batching primitive (docs/server.md).
  static CoalescedScan run_cpu_coalesced(
      const std::vector<const HmmSearch*>& searches, ScanSource src,
      ThreadPool& pool, const ScanSchedule* schedule = nullptr,
      obs::Recorder* rec = nullptr);

  /// The scan core with short models lane-packed into fused groups
  /// (label "cpu_fused"), the hmmscan dual of run_cpu_coalesced.  `plan`
  /// may pass a pregrouped shape (the daemon caches one per resident
  /// library); null plans with fuse_plan(searches).
  static CoalescedScan run_cpu_fused(
      const std::vector<const HmmSearch*>& searches, ScanSource src,
      ThreadPool& pool, const hmm::FusePlan* plan = nullptr,
      obs::Recorder* rec = nullptr);

  /// Scan with the SIMT kernels for MSV and P7Viterbi on `dev`; the
  /// Forward stage runs on the CPU.  `placement` applies to both kernels.
  SearchResult run_gpu(const simt::DeviceSpec& dev,
                       const bio::SequenceDatabase& db,
                       const bio::PackedDatabase& packed,
                       gpu::ParamPlacement placement) const;

  /// As run_gpu, but each stage's parameter placement is chosen by the
  /// occupancy-driven policy (the "optimal strategy" of Fig. 9).
  SearchResult run_gpu_auto(const simt::DeviceSpec& dev,
                            const bio::SequenceDatabase& db,
                            const bio::PackedDatabase& packed) const;

  /// Multi-GPU scan: the database is partitioned across the devices for
  /// the MSV stage and the survivors re-partitioned for P7Viterbi, as in
  /// the paper's Fig. 11 setup.  Scores are identical to a single-device
  /// run; the per-device counters land in SearchResult::gpu_* of the
  /// per-device results vector.
  struct MultiGpuResult {
    SearchResult combined;
    std::vector<gpu::StageResult> msv_per_device;
    std::vector<gpu::StageResult> vit_per_device;
  };
  MultiGpuResult run_gpu_multi(const std::vector<simt::DeviceSpec>& devs,
                               const bio::SequenceDatabase& db,
                               const bio::PackedDatabase& packed,
                               gpu::ParamPlacement placement) const;

 private:
  SearchResult run_gpu_impl(const simt::DeviceSpec& dev,
                            const bio::SequenceDatabase& db,
                            const bio::PackedDatabase& packed,
                            gpu::ParamPlacement msv_placement,
                            gpu::ParamPlacement vit_placement) const;

  /// The byte-filter gates every engine applies.  `bits` receives the
  /// filter's bit score (the overflow lower bound when the byte score
  /// saturated); overflowed sequences always pass.
  bool ssv_gate(cpu::FilterResult r, std::size_t L) const;
  bool msv_gate(cpu::FilterResult r, std::size_t L, float& bits) const;
  bool vit_gate(float score_nats, std::size_t L, float& bits) const;

  /// Per-worker buffers for the word stages, allocated once per scan.
  struct Scratch;

  /// The Forward stage for one Viterbi survivor, on a filter and trace
  /// stripes built from this model's profiles: null2-corrected Forward
  /// bits, P- and E-value (against `db_size` sequences), and — when the
  /// hit clears report_evalue — alignments and domains.  Fills `h`'s
  /// scores and returns whether it is reported; decode time is banked in
  /// `scratch.bwd_seconds`.
  bool score_forward(cpu::FwdFilter& fwd, const cpu::TraceStripes& trace,
                     const std::uint8_t* codes, std::size_t L,
                     std::size_t db_size, Scratch& scratch, Hit& h) const;

  /// Shared post-filter logic for run_cpu and the GPU engines: Viterbi
  /// survivors (seq_index, msv_bits and vit_bits set) -> Forward -> hits.
  void forward_stage(ScanSource src, std::vector<Hit> survivors,
                     SearchResult& out) const;

  /// run_cpu_parallel / run_cpu_overlapped: the core with one lone model.
  SearchResult scan_one(ScanSource src, ThreadPool& pool,
                        const char* engine) const;

  obs::Recorder* recorder_ = nullptr;
  hmm::Plan7Hmm model_;
  hmm::SearchProfile prof_;
  profile::MsvProfile msv_;
  profile::VitProfile vit_;
  profile::FwdProfile fwd_;
  stats::ModelStats stats_;
  Thresholds thr_;
};

}  // namespace finehmm::pipeline
