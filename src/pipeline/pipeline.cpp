#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>

#include "cpu/fwd_filter.hpp"
#include "cpu/msv_filter.hpp"
#include "cpu/msv_group.hpp"
#include "obs/recorder.hpp"
#include "pipeline/batch_scanner.hpp"
#include "pipeline/null2.hpp"
#include "pipeline/workload.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/mpmc_queue.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace finehmm::pipeline {

HmmSearch::HmmSearch(const hmm::Plan7Hmm& model, Thresholds thresholds,
                     stats::CalibrateOptions calib)
    : prof_(model, hmm::AlignMode::kLocalMultihit, 400),
      msv_(prof_),
      vit_(prof_),
      fwd_(prof_),
      thr_(thresholds) {
  stats_ = stats::calibrate(prof_, msv_, vit_, calib);
}

HmmSearch::HmmSearch(const hmm::Plan7Hmm& model,
                     const stats::ModelStats& model_stats,
                     Thresholds thresholds)
    : prof_(model, hmm::AlignMode::kLocalMultihit, 400),
      msv_(prof_),
      vit_(prof_),
      fwd_(prof_),
      stats_(model_stats),
      thr_(thresholds) {}

struct HmmSearch::Scratch {
  std::vector<std::uint8_t> codes;  // survivors of a mapped db decode here
  std::vector<float> mocc;  // decode occupancy track, reused across hits
  double bwd_seconds = 0.0;
};

namespace {

// The byte filters consume either representation without a decode: the
// packed overloads instantiate the identical kernel loop, so the branch
// here cannot change a score.
cpu::FilterResult ssv_score(BatchScanner& scanner, std::size_t w,
                            ScanSource src, std::size_t s, std::size_t L) {
  return src.zero_copy() ? scanner.ssv(w, src.packed(s), L)
                         : scanner.ssv(w, src.codes(s), L);
}

cpu::FilterResult msv_score(BatchScanner& scanner, std::size_t w,
                            ScanSource src, std::size_t s, std::size_t L) {
  return src.zero_copy() ? scanner.msv(w, src.packed(s), L)
                         : scanner.msv(w, src.codes(s), L);
}

/// (evalue, seq_index) is a total order, so the hit list is a pure
/// function of the hit set — a cluster coordinator merging shard hits
/// re-sorts by the same key and reproduces this order byte-for-byte.
void sort_hits(std::vector<Hit>& hits) {
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    return a.evalue != b.evalue ? a.evalue < b.evalue
                                : a.seq_index < b.seq_index;
  });
}

int byte_lane_width() {
  return cpu::backend::tier_kernels(
             cpu::resolve_simd_tier(cpu::active_simd_tier()))
      .u8_lanes;
}

// --- Telemetry plumbing -------------------------------------------------
//
// Stage busy time is accumulated into per-worker slots (cacheline-sized,
// written only by the owning worker, merged serially after the crew
// joins) whether or not a recorder is attached: the scan core's
// StageStats::seconds are exactly this merge, so they must not depend on
// observability being switched on.  The recorder only adds trace spans
// and the ScanTelemetry snapshot on top.

struct alignas(64) WorkerClock {
  double stage_s[obs::kStageCount] = {};
  std::uint64_t rescues = 0;        // help-first rescores (full ring)
  std::uint64_t decoded_bytes = 0;  // residues unpacked for word stages
  std::uint64_t fwd_calls = 0, bwd_calls = 0;  // outside the scanners
};

std::uint64_t packed_stream_bytes(const ScanSource& src) {
  std::uint64_t bytes = 0;
  for (std::size_t s = 0; s < src.size(); ++s)
    bytes += (src.length(s) + bio::kResiduesPerWord - 1) /
             bio::kResiduesPerWord * sizeof(std::uint32_t);
  return bytes;
}

void fill_stage(obs::ScanTelemetry& t, const char* name,
                const StageStats& s) {
  obs::StageTelemetry st;
  st.stage = name;
  st.n_in = s.n_in;
  st.n_passed = s.n_passed;
  st.cells = s.cells;
  st.wall_seconds = s.seconds;
  st.busy_seconds = s.seconds;
  t.stages.push_back(std::move(st));
}

/// The shared snapshot skeleton: database shape, byte accounting, and
/// one StageTelemetry per active stage (wall == busy == StageStats
/// seconds; the scan core zeroes the walls afterwards).
obs::ScanTelemetry make_telemetry(const char* engine, const ScanSource& src,
                                  std::size_t threads,
                                  const SearchResult& out, double wall_s,
                                  bool use_ssv, bool use_bwd = false) {
  obs::ScanTelemetry t;
  t.engine = engine;
  t.threads = threads;
  t.sequences = src.size();
  t.residues = src.total_residues();
  t.wall_seconds = wall_s;
  t.zero_copy = src.zero_copy();
  if (src.zero_copy())
    t.mapped_bytes = packed_stream_bytes(src);
  else
    t.heap_bytes = src.total_residues();
  if (use_ssv) fill_stage(t, "ssv", out.ssv);
  fill_stage(t, "msv", out.msv);
  fill_stage(t, "vit", out.vit);
  fill_stage(t, "fwd", out.fwd);
  if (use_bwd) fill_stage(t, "bwd", out.bwd);
  return t;
}

/// Per-thread rows from the engine clocks (null: none), the scanners'
/// per-worker call counts, and (when tracing) the recorder's span tallies.
void fill_threads(obs::ScanTelemetry& t, std::size_t crew,
                  const WorkerClock* clocks,
                  const std::vector<const BatchScanner*>& scanners,
                  const obs::Recorder* rec) {
  t.per_thread.resize(crew);
  for (std::size_t w = 0; w < crew; ++w) {
    obs::ThreadTelemetry& row = t.per_thread[w];
    row.thread = static_cast<std::uint32_t>(w);
    if (clocks != nullptr) {
      for (int s = 0; s < obs::kStageCount; ++s)
        row.stage_busy_seconds[s] = clocks[w].stage_s[s];
      row.help_first_rescues = clocks[w].rescues;
      row.decoded_bytes = clocks[w].decoded_bytes;
      row.sequences_scored += clocks[w].fwd_calls + clocks[w].bwd_calls;
      row.stage_items[static_cast<int>(obs::Stage::kFwd)] +=
          clocks[w].fwd_calls;
      row.stage_items[static_cast<int>(obs::Stage::kBwd)] +=
          clocks[w].bwd_calls;
    }
    for (const BatchScanner* scanner : scanners) {
      const auto& load = scanner->load(w);
      row.sequences_scored += load.calls();
      row.stage_items[static_cast<int>(obs::Stage::kSsv)] += load.ssv_calls;
      row.stage_items[static_cast<int>(obs::Stage::kMsv)] += load.msv_calls;
      row.stage_items[static_cast<int>(obs::Stage::kVit)] += load.vit_calls;
      row.stage_items[static_cast<int>(obs::Stage::kFwd)] += load.fwd_calls;
      row.stage_items[static_cast<int>(obs::Stage::kBwd)] += load.bwd_calls;
    }
    if (rec != nullptr && w < rec->threads()) {
      row.spans = rec->log_at(w).events().size();
      row.spans_dropped =
          rec->log_at(w).counter(obs::Counter::kSpansDropped);
    }
  }
  for (const auto& row : t.per_thread) t.decoded_bytes += row.decoded_bytes;
}

}  // namespace

bool HmmSearch::ssv_gate(cpu::FilterResult r, std::size_t L) const {
  return r.overflowed ||
         stats_.ssv_pvalue(cpu::byte_bits(msv_, r, static_cast<int>(L))) <=
             thr_.ssv_p;
}

bool HmmSearch::msv_gate(cpu::FilterResult r, std::size_t L,
                         float& bits) const {
  bits = cpu::byte_bits(msv_, r, static_cast<int>(L));
  return r.overflowed || stats_.msv_pvalue(bits) <= thr_.msv_p;
}

bool HmmSearch::vit_gate(float score_nats, std::size_t L, float& bits) const {
  bits = hmm::nats_to_bits(score_nats, static_cast<int>(L));
  return stats_.vit_pvalue(bits) <= thr_.vit_p;
}

bool HmmSearch::score_forward(cpu::FwdFilter& fwd,
                              const cpu::TraceStripes& trace_stripes,
                              const std::uint8_t* codes, std::size_t L,
                              std::size_t db_size, Scratch& scratch,
                              Hit& h) const {
  const float raw = fwd.score(codes, L);
  // Traceback storage ((L+1)(M+1) nibbles) belongs to the thread and
  // outlives the scan: a daemon's pool threads reuse it from scan to scan
  // instead of growing and freeing it in every worker's malloc arena,
  // which kept each arena's high-water mark resident.
  thread_local cpu::TraceWorkspace trace_ws;
  cpu::ViterbiTrace trace;
  float bias_nats = 0.0f;
  if (thr_.null2_correction || thr_.compute_alignments)
    trace = cpu::viterbi_trace(trace_stripes, codes, L, trace_ws);
  if (thr_.null2_correction) bias_nats = null2_correction(prof_, trace, codes);
  h.fwd_bits = hmm::nats_to_bits(raw - bias_nats, static_cast<int>(L));
  h.pvalue = stats_.fwd_pvalue(h.fwd_bits);
  h.evalue = stats::evalue(h.pvalue, db_size, thr_.z_override);
  if (!(h.evalue <= thr_.report_evalue)) return false;
  h.bias_bits = bias_nats / static_cast<float>(M_LN2);
  if (thr_.compute_alignments)
    h.alignments = cpu::trace_alignments(trace, prof_, codes);
  if (thr_.define_domains) {
    // Checkpointed Forward/Backward on the active vector tier fills the
    // occupancy track; envelope definition and rescoring run on it.
    Timer bwd_t;
    fwd.decode(codes, L, scratch.mocc);
    h.domains =
        cpu::domains_from_occupancy(prof_, codes, L, scratch.mocc.data());
    scratch.bwd_seconds += bwd_t.seconds();
  }
  return true;
}

SearchResult HmmSearch::run_cpu(ScanSource src) const {
  SearchResult out;
  obs::Recorder* rec =
      (recorder_ != nullptr && recorder_->enabled()) ? recorder_ : nullptr;
  if (rec) rec->reserve_threads(1);
  Timer total;
  Timer timer;
  BatchScanner scanner(msv_, vit_, /*fwd=*/nullptr, /*workers=*/1);

  // ---- Stage 0 (optional): SSV pre-filter ----
  // Zero-length sequences cannot match; every engine counts them into the
  // first active stage's n_in and fails them there without scoring.
  std::vector<std::size_t> candidates;
  if (thr_.use_ssv_prefilter) {
    OBS_SPAN(rec, 0, "ssv");
    out.ssv.n_in = src.size();
    for (std::size_t s = 0; s < src.size(); ++s) {
      const std::size_t L = src.length(s);
      if (L == 0) continue;
      out.ssv.cells += static_cast<double>(L) * msv_.length();
      if (ssv_gate(ssv_score(scanner, 0, src, s, L), L))
        candidates.push_back(s);
    }
    out.ssv.n_passed = candidates.size();
    out.ssv.seconds = timer.seconds();
    timer.reset();
  } else {
    candidates.resize(src.size());
    for (std::size_t s = 0; s < src.size(); ++s) candidates[s] = s;
  }

  // ---- Stage 1: MSV ----
  std::vector<Hit> msv_pass;
  out.msv.n_in = candidates.size();
  {
    OBS_SPAN(rec, 0, "msv");
    for (std::size_t s : candidates) {
      const std::size_t L = src.length(s);
      if (L == 0) continue;
      out.msv.cells += static_cast<double>(L) * msv_.length();
      Hit h;
      h.seq_index = s;
      if (msv_gate(msv_score(scanner, 0, src, s, L), L, h.msv_bits))
        msv_pass.push_back(std::move(h));
    }
  }
  out.msv.n_passed = msv_pass.size();
  out.msv.seconds = timer.seconds();

  // ---- Stage 2: P7Viterbi over the MSV survivors ----
  timer.reset();
  std::vector<Hit> vit_pass;
  out.vit.n_in = msv_pass.size();
  std::vector<std::uint8_t> scratch;
  if (src.zero_copy()) scratch.resize(src.max_length());
  {
    OBS_SPAN(rec, 0, "vit");
    for (Hit& h : msv_pass) {
      const std::size_t L = src.length(h.seq_index);
      const std::uint8_t* codes = src.fetch_codes(h.seq_index, scratch.data());
      out.vit.cells += static_cast<double>(L) * vit_.length();
      if (vit_gate(scanner.vit(0, codes, L).score_nats, L, h.vit_bits))
        vit_pass.push_back(std::move(h));
    }
  }
  out.vit.n_passed = vit_pass.size();
  out.vit.seconds = timer.seconds();

  forward_stage(src, std::move(vit_pass), out);

  if (rec) {
    out.telemetry = make_telemetry("cpu_serial", src, 1, out,
                                   total.seconds(), thr_.use_ssv_prefilter,
                                   thr_.define_domains);
    fill_threads(*out.telemetry, 1, /*clocks=*/nullptr, {&scanner}, rec);
    // Serial engine: one thread, busy == wall per stage.
    auto& row = out.telemetry->per_thread[0];
    row.stage_busy_seconds[static_cast<int>(obs::Stage::kSsv)] =
        out.ssv.seconds;
    row.stage_busy_seconds[static_cast<int>(obs::Stage::kMsv)] =
        out.msv.seconds;
    row.stage_busy_seconds[static_cast<int>(obs::Stage::kVit)] =
        out.vit.seconds;
    row.stage_busy_seconds[static_cast<int>(obs::Stage::kFwd)] =
        out.fwd.seconds;
    row.stage_busy_seconds[static_cast<int>(obs::Stage::kBwd)] =
        out.bwd.seconds;
  }
  return out;
}

SearchResult HmmSearch::run_cpu_parallel(ScanSource src,
                                         std::size_t threads) const {
  ThreadPool pool(threads);
  return scan_one(src, pool, "cpu_parallel");
}

SearchResult HmmSearch::run_cpu_parallel(ScanSource src,
                                         ThreadPool& pool) const {
  return scan_one(src, pool, "cpu_parallel");
}

SearchResult HmmSearch::run_cpu_overlapped(ScanSource src,
                                           std::size_t threads) const {
  ThreadPool pool(threads);
  return scan_one(src, pool, "cpu_overlapped");
}

SearchResult HmmSearch::run_cpu_overlapped(ScanSource src,
                                           ThreadPool& pool) const {
  return scan_one(src, pool, "cpu_overlapped");
}

HmmSearch::CoalescedScan HmmSearch::run_cpu_coalesced(
    const std::vector<const HmmSearch*>& searches, ScanSource src,
    ThreadPool& pool, const ScanSchedule* schedule, obs::Recorder* rec) {
  return scan(searches, src, pool, nullptr, schedule, rec, "cpu_coalesced");
}

HmmSearch::CoalescedScan HmmSearch::run_cpu_fused(
    const std::vector<const HmmSearch*>& searches, ScanSource src,
    ThreadPool& pool, const hmm::FusePlan* plan, obs::Recorder* rec) {
  const hmm::FusePlan local = plan ? hmm::FusePlan{} : fuse_plan(searches);
  return scan(searches, src, pool, plan ? plan : &local, nullptr, rec,
              "cpu_fused");
}

SearchResult HmmSearch::scan_one(ScanSource src, ThreadPool& pool,
                                 const char* engine) const {
  obs::Recorder* rec =
      (recorder_ != nullptr && recorder_->enabled()) ? recorder_ : nullptr;
  CoalescedScan r = scan({this}, src, pool, nullptr, nullptr, rec, engine);
  if (rec) r.per_model[0].telemetry = std::move(r.telemetry);
  return std::move(r.per_model[0]);
}

hmm::FusePlan HmmSearch::fuse_plan(
    const std::vector<const HmmSearch*>& searches) {
  std::vector<int> lengths;
  lengths.reserve(searches.size());
  for (const HmmSearch* hs : searches) {
    FH_REQUIRE(hs != nullptr, "fuse plan given a null model");
    lengths.push_back(hs->msv_.length());
  }
  return hmm::plan_model_groups(lengths, byte_lane_width(),
                                hmm::fuse_options_from_env());
}

HmmSearch::CoalescedScan HmmSearch::scan(
    const std::vector<const HmmSearch*>& searches, ScanSource src,
    ThreadPool& pool, const hmm::FusePlan* plan, const ScanSchedule* schedule,
    obs::Recorder* rec, const char* engine) {
  FH_REQUIRE(!searches.empty(), "scan needs at least one model");
  for (const HmmSearch* hs : searches)
    FH_REQUIRE(hs != nullptr, "scan given a null model");
  const std::size_t k = searches.size();
  const std::size_t n = src.size();
  const std::size_t crew = pool.workers();
  if (rec != nullptr && rec->enabled())
    rec->reserve_threads(crew);
  else
    rec = nullptr;
  Timer total;

  ScanSchedule local_schedule;
  if (schedule == nullptr) {
    local_schedule = make_length_schedule(
        n, [&src](std::size_t i) { return src.length(i); });
    schedule = &local_schedule;
  }

  // Every model gets byte/Viterbi scan state sized to the crew: any
  // worker may score any model.  Model parameters are shared read-only;
  // only DP state is per worker.
  std::vector<std::unique_ptr<BatchScanner>> scanners;
  scanners.reserve(k);
  for (const HmmSearch* hs : searches)
    scanners.push_back(
        std::make_unique<BatchScanner>(hs->msv_, hs->vit_, nullptr, crew));

  // A unit is what the sweep scores per sequence in one call: a fused
  // group (shared table + per-worker filters) or one lone model.
  struct Unit {
    std::vector<std::size_t> members;
    bool any_ssv = false;
    std::unique_ptr<cpu::FusedMsvGroup> group;  // null: lone model
    std::vector<cpu::FusedMsvFilter> filters;   // per worker
  };
  std::vector<Unit> units;
  auto add_unit = [&](std::vector<std::size_t> members) {
    Unit& u = units.emplace_back();
    u.members = std::move(members);
    for (std::size_t m : u.members)
      u.any_ssv = u.any_ssv || searches[m]->thr_.use_ssv_prefilter;
  };
  std::size_t max_unit = 1;
  if (plan != nullptr) {
    const cpu::SimdTier tier = cpu::resolve_simd_tier(cpu::active_simd_tier());
    FH_REQUIRE(plan->lane_width == byte_lane_width(),
               "fuse plan built for a different lane width");
    // Every model index must appear exactly once across groups + unfused.
    std::vector<std::uint8_t> seen(k, 0);
    auto mark = [&](std::size_t m) {
      FH_REQUIRE(m < k && !seen[m],
                 "fuse plan does not cover the model list exactly once");
      seen[m] = 1;
    };
    for (const hmm::GroupShape& shape : plan->groups) {
      std::vector<const profile::MsvProfile*> profiles;
      for (std::size_t m : shape.members) {
        mark(m);
        profiles.push_back(&searches[m]->msv_);
      }
      add_unit(shape.members);
      Unit& u = units.back();
      u.group = std::make_unique<cpu::FusedMsvGroup>(
          std::move(profiles), plan->lane_width, shape.Q);
      u.filters.reserve(crew);
      for (std::size_t w = 0; w < crew; ++w)
        u.filters.emplace_back(*u.group, tier);
      max_unit = std::max(max_unit, shape.members.size());
    }
    for (std::size_t m : plan->unfused) {
      mark(m);
      add_unit({m});
    }
    for (std::size_t m = 0; m < k; ++m)
      FH_REQUIRE(seen[m], "fuse plan misses a model");
  } else {
    for (std::size_t m = 0; m < k; ++m) add_unit({m});
  }

  // What the queue carries and what a rescore leaves behind: sparse
  // records for MSV survivors only, never a slot per (model, sequence).
  struct Item {
    std::uint32_t model = 0;
    std::uint32_t seq = 0;
    float msv_bits = 0.0f;
  };
  struct Survivor {
    std::uint32_t model = 0;
    std::uint32_t seq = 0;
    bool vit_pass = false;
  };
  struct Reported {
    std::uint32_t model = 0;
    Hit hit;
  };
  struct Tally {  // SSV passes, for the stats replay
    std::uint64_t passed = 0;
    std::uint64_t residues = 0;
  };
  struct Worker {
    Scratch scratch;
    // The Forward filter and trace stripes of the model this worker
    // rescored last, rebuilt when the model changes: their parameter
    // copies cost about 160 and 152 bytes per model position, too much to
    // hold for a whole library.
    std::optional<cpu::FwdFilter> fwd;
    std::optional<cpu::TraceStripes> trace;
    std::size_t fwd_model = 0;
    std::vector<cpu::FilterResult> ssv, msv;  // per unit member
    std::vector<std::uint8_t> ssv_pass;       // per unit member
    std::vector<Tally> tally;                 // per model
    std::vector<Survivor> found;
    std::vector<Reported> hits;
  };
  std::vector<WorkerClock> clocks(crew);
  std::vector<Worker> workers(crew);
  for (Worker& me : workers) {
    if (src.zero_copy()) me.scratch.codes.resize(src.max_length());
    me.ssv.resize(max_unit);
    me.msv.resize(max_unit);
    me.ssv_pass.resize(max_unit);
    me.tally.resize(k);
  }

  BoundedMpmcQueue<Item> queue(std::max<std::size_t>(64, 8 * crew));

  auto rescore = [&](std::size_t w, const Item& item) {
    OBS_SPAN(rec, w, "rescore");
    Worker& me = workers[w];
    const HmmSearch& hs = *searches[item.model];
    BatchScanner& scanner = *scanners[item.model];
    const std::size_t L = src.length(item.seq);
    const std::uint8_t* codes =
        src.fetch_codes(item.seq, me.scratch.codes.data());
    if (src.zero_copy()) clocks[w].decoded_bytes += L;
    Hit h;
    h.seq_index = item.seq;
    h.msv_bits = item.msv_bits;

    Timer stage_t;
    const bool vit_pass =
        hs.vit_gate(scanner.vit(w, codes, L).score_nats, L, h.vit_bits);
    clocks[w].stage_s[static_cast<int>(obs::Stage::kVit)] += stage_t.seconds();
    me.found.push_back({item.model, item.seq, vit_pass});
    if (!vit_pass) return;

    stage_t.reset();
    if (!me.fwd || me.fwd_model != item.model) {
      me.fwd.emplace(hs.fwd_);
      me.trace.emplace(hs.prof_);
      me.fwd_model = item.model;
    }
    me.scratch.bwd_seconds = 0.0;
    const bool reported =
        hs.score_forward(*me.fwd, *me.trace, codes, L, n, me.scratch, h);
    ++clocks[w].fwd_calls;
    if (reported && hs.thr_.define_domains) ++clocks[w].bwd_calls;
    if (reported) me.hits.push_back({item.model, std::move(h)});
    clocks[w].stage_s[static_cast<int>(obs::Stage::kFwd)] +=
        stage_t.seconds() - me.scratch.bwd_seconds;
    clocks[w].stage_s[static_cast<int>(obs::Stage::kBwd)] +=
        me.scratch.bwd_seconds;
  };

  auto push = [&](std::size_t w, const Item& item) {
    while (!queue.try_push(item)) {
      // Help-first backpressure: the ring is full, so this producer
      // rescores one queued survivor itself.
      Item other;
      if (queue.try_pop(other)) {
        ++clocks[w].rescues;
        rescore(w, other);
      }
    }
  };

  // One unit against one sequence: SSV (when any member uses it), then
  // MSV for the members still standing, survivors onto the queue.
  auto sweep = [&](std::size_t w, Unit& u, std::size_t s, std::size_t L) {
    Worker& me = workers[w];
    auto score = [&](bool ssv, cpu::FilterResult* out) {
      if (u.group == nullptr) {
        BatchScanner& scanner = *scanners[u.members[0]];
        *out = ssv ? ssv_score(scanner, w, src, s, L)
                   : msv_score(scanner, w, src, s, L);
      } else if (src.zero_copy()) {
        ssv ? u.filters[w].ssv(src.packed(s), L, out)
            : u.filters[w].msv(src.packed(s), L, out);
      } else {
        ssv ? u.filters[w].ssv(src.codes(s), L, out)
            : u.filters[w].msv(src.codes(s), L, out);
      }
    };
    Timer stage_t;
    bool need_msv = !u.any_ssv;
    if (u.any_ssv) {
      score(true, me.ssv.data());
      clocks[w].stage_s[static_cast<int>(obs::Stage::kSsv)] +=
          stage_t.seconds();
      stage_t.reset();
      for (std::size_t i = 0; i < u.members.size(); ++i) {
        const std::size_t m = u.members[i];
        const HmmSearch& hs = *searches[m];
        const bool pass =
            !hs.thr_.use_ssv_prefilter || hs.ssv_gate(me.ssv[i], L);
        if (pass && hs.thr_.use_ssv_prefilter) {
          ++me.tally[m].passed;
          me.tally[m].residues += L;
        }
        me.ssv_pass[i] = pass ? 1 : 0;
        need_msv = need_msv || pass;
      }
    }
    if (!need_msv) return;  // every member shed by SSV
    score(false, me.msv.data());
    clocks[w].stage_s[static_cast<int>(obs::Stage::kMsv)] += stage_t.seconds();
    for (std::size_t i = 0; i < u.members.size(); ++i) {
      if (u.any_ssv && !me.ssv_pass[i]) continue;
      Item item;
      item.model = static_cast<std::uint32_t>(u.members[i]);
      item.seq = static_cast<std::uint32_t>(s);
      if (searches[item.model]->msv_gate(me.msv[i], L, item.msv_bits))
        push(w, item);
    }
  };

  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> producers_done{0};
  constexpr std::size_t kChunk = 16;
  pool.run_workers(crew, [&](std::size_t w) {
    {
      // Counts this producer out even if its sweep throws, so the rest
      // of the crew still drains and joins.
      struct Done {
        std::atomic<std::size_t>& count;
        ~Done() { count.fetch_add(1, std::memory_order_release); }
      } done{producers_done};
      for (;;) {
        const std::size_t begin =
            cursor.fetch_add(kChunk, std::memory_order_relaxed);
        if (begin >= n) break;
        const std::size_t end = std::min(begin + kChunk, n);
        OBS_SPAN(rec, w, "produce.chunk");
        for (std::size_t idx = begin; idx < end; ++idx) {
          const std::size_t s = schedule->order[idx];
          if (idx + 1 < end) src.prefetch(schedule->order[idx + 1]);
          const std::size_t L = src.length(s);
          if (L == 0) continue;  // fails the first active stage
          for (Unit& u : units) sweep(w, u, s, L);
        }
      }
    }
    // Drain: rescore until the queue is empty AND no producer can still
    // push.
    OBS_SPAN(rec, w, "drain");
    for (;;) {
      Item item;
      if (queue.try_pop(item)) {
        rescore(w, item);
        continue;
      }
      if (producers_done.load(std::memory_order_acquire) == crew) break;
      std::this_thread::yield();
    }
  });

  // The crew has joined: the ring must be drained, and every survivor
  // pushed was rescored by exactly one worker.
  const auto qs = queue.stats();
  FINEHMM_CHECK(queue.empty(), "scan left survivors queued");
  FINEHMM_CHECK(qs.pops == qs.pushes, "drained queue must have pops == pushes");
  FINEHMM_CHECK(qs.max_depth <= queue.capacity(),
                "queue depth exceeded its capacity");

  // Serial stats replay and hit assembly: output identical to run_cpu
  // regardless of which worker scored what, when.  Cells are integers
  // below 2^53, so summing them in any order gives run_cpu's exact
  // doubles, and sort_hits orders each hit list by a total order.
  CoalescedScan out;
  out.per_model.resize(k);
  std::size_t rescored = 0;
  for (Worker& me : workers) {
    rescored += me.found.size();
    for (const Survivor& v : me.found) {
      const HmmSearch& hs = *searches[v.model];
      SearchResult& res = out.per_model[v.model];
      const double L = static_cast<double>(src.length(v.seq));
      ++res.msv.n_passed;
      res.vit.cells += L * hs.vit_.length();
      if (!v.vit_pass) continue;
      ++res.vit.n_passed;
      res.fwd.cells += L * hs.prof_.length();
    }
    for (Reported& r : me.hits) {
      const HmmSearch& hs = *searches[r.model];
      SearchResult& res = out.per_model[r.model];
      if (hs.thr_.define_domains) {
        res.bwd.n_in += 1;
        res.bwd.n_passed += 1;
        res.bwd.cells +=
            static_cast<double>(src.length(r.hit.seq_index)) *
            hs.prof_.length();
      }
      r.hit.name = std::string(src.name(r.hit.seq_index));
      res.hits.push_back(std::move(r.hit));
    }
  }
  FINEHMM_CHECK(rescored == qs.pushes, "every survivor rescored once");

  double busy[obs::kStageCount] = {};
  for (const WorkerClock& c : clocks)
    for (int st = 0; st < obs::kStageCount; ++st) busy[st] += c.stage_s[st];
  const auto busy_of = [&](obs::Stage st) {
    return busy[static_cast<int>(st)];
  };
  const double residues = static_cast<double>(src.total_residues());
  SearchResult sum;  // batch totals for the telemetry snapshot
  const auto add_counts = [](StageStats& to, const StageStats& from) {
    to.n_in += from.n_in;
    to.n_passed += from.n_passed;
    to.cells += from.cells;
  };
  bool any_ssv = false, any_domains = false;
  for (std::size_t m = 0; m < k; ++m) {
    const HmmSearch& hs = *searches[m];
    SearchResult& res = out.per_model[m];
    res.msv.n_in = n;
    res.msv.cells = residues * hs.msv_.length();
    if (hs.thr_.use_ssv_prefilter) {
      any_ssv = true;
      res.ssv.n_in = n;
      res.ssv.cells = res.msv.cells;
      std::uint64_t passed_residues = 0;
      for (const Worker& me : workers) {
        res.ssv.n_passed += me.tally[m].passed;
        passed_residues += me.tally[m].residues;
      }
      res.msv.n_in = res.ssv.n_passed;
      res.msv.cells = static_cast<double>(passed_residues) * hs.msv_.length();
      res.ssv.seconds = busy_of(obs::Stage::kSsv);
    }
    res.vit.n_in = res.msv.n_passed;
    res.fwd.n_in = res.vit.n_passed;
    res.fwd.n_passed = res.hits.size();
    sort_hits(res.hits);
    res.msv.seconds = busy_of(obs::Stage::kMsv);
    res.vit.seconds = busy_of(obs::Stage::kVit);
    res.fwd.seconds = busy_of(obs::Stage::kFwd);
    if (hs.thr_.define_domains) {
      any_domains = true;
      res.bwd.seconds = busy_of(obs::Stage::kBwd);
    }
    add_counts(sum.ssv, res.ssv);
    add_counts(sum.msv, res.msv);
    add_counts(sum.vit, res.vit);
    add_counts(sum.fwd, res.fwd);
    add_counts(sum.bwd, res.bwd);
  }

  // ---- Batch telemetry: aggregated stage totals with the merged busy
  // time (stages overlap, so none has a wall clock of its own).
  sum.ssv.seconds = busy_of(obs::Stage::kSsv);
  sum.msv.seconds = busy_of(obs::Stage::kMsv);
  sum.vit.seconds = busy_of(obs::Stage::kVit);
  sum.fwd.seconds = busy_of(obs::Stage::kFwd);
  sum.bwd.seconds = busy_of(obs::Stage::kBwd);
  obs::ScanTelemetry& t = out.telemetry;
  t = make_telemetry(engine, src, crew, sum, total.seconds(), any_ssv,
                     any_domains);
  for (auto& st : t.stages) {
    st.wall_seconds = 0.0;
    if (st.stage != "msv") continue;
    st.counters.emplace_back("batch.queries", static_cast<double>(k));
    st.counters.emplace_back("batch.sweeps", 1.0);
    if (plan == nullptr) continue;
    st.counters.emplace_back("fuse.groups",
                             static_cast<double>(plan->groups.size()));
    st.counters.emplace_back("fuse.fused_models",
                             static_cast<double>(plan->fused_models()));
    st.counters.emplace_back("fuse.models_per_group",
                             plan->models_per_group());
    st.counters.emplace_back("fuse.lane_occupancy", plan->lane_occupancy());
  }
  obs::QueueTelemetry qt;
  qt.capacity = queue.capacity();
  qt.enqueued = qs.pushes;
  qt.dequeued = qs.pops;
  qt.enqueue_stalls = qs.push_failures;
  qt.max_depth = qs.max_depth;
  for (const WorkerClock& c : clocks) qt.help_first_rescues += c.rescues;
  t.queue = qt;
  t.buckets.reserve(schedule->bucket_sequences.size());
  for (std::size_t b = 0; b < schedule->bucket_sequences.size(); ++b)
    t.buckets.push_back(obs::BucketTelemetry{schedule->bucket_sequences[b],
                                             schedule->bucket_residues[b]});
  std::vector<const BatchScanner*> loads;
  for (const auto& scanner : scanners) loads.push_back(scanner.get());
  fill_threads(t, crew, clocks.data(), loads, rec);
  return out;
}

SearchResult HmmSearch::run_gpu(const simt::DeviceSpec& dev,
                                const bio::SequenceDatabase& db,
                                const bio::PackedDatabase& packed,
                                gpu::ParamPlacement placement) const {
  return run_gpu_impl(dev, db, packed, placement, placement);
}

SearchResult HmmSearch::run_gpu_auto(const simt::DeviceSpec& dev,
                                     const bio::SequenceDatabase& db,
                                     const bio::PackedDatabase& packed) const {
  auto msv_choice =
      gpu::choose_placement(gpu::Stage::kMsv, msv_.length(), dev);
  auto vit_choice =
      gpu::choose_placement(gpu::Stage::kViterbi, vit_.length(), dev);
  return run_gpu_impl(dev, db, packed, msv_choice.placement,
                      vit_choice.placement);
}

SearchResult HmmSearch::run_gpu_impl(const simt::DeviceSpec& dev,
                                     const bio::SequenceDatabase& db,
                                     const bio::PackedDatabase& packed,
                                     gpu::ParamPlacement msv_placement,
                                     gpu::ParamPlacement vit_placement) const {
  FH_REQUIRE(packed.size() == db.size(), "packed database mismatch");
  SearchResult out;
  obs::Recorder* rec =
      (recorder_ != nullptr && recorder_->enabled()) ? recorder_ : nullptr;
  if (rec) rec->reserve_threads(1);
  obs::ScanTelemetry gpu_t;  // per-stage SIMT counters, collected as we go
  Timer total;
  Timer timer;
  gpu::GpuSearch search(dev);

  // ---- Stage 0 (optional): warp-synchronous SSV pre-filter ----
  std::vector<std::size_t> candidates;
  const std::vector<std::size_t>* msv_items = nullptr;
  if (thr_.use_ssv_prefilter) {
    OBS_SPAN(rec, 0, "gpu.ssv");
    out.ssv.n_in = db.size();
    auto ssv_run = search.run_ssv(msv_, packed, msv_placement);
    if (rec) {
      obs::StageTelemetry st;
      st.stage = "ssv";
      st.counters = obs::counters_kv(ssv_run.counters);
      gpu_t.stages.push_back(std::move(st));
    }
    for (std::size_t s = 0; s < db.size(); ++s)
      if (ssv_gate({ssv_run.scores[s], ssv_run.overflow[s] != 0},
                   db[s].length()))
        candidates.push_back(s);
    out.ssv.n_passed = candidates.size();
    out.ssv.cells = static_cast<double>(ssv_run.counters.cells);
    out.ssv.seconds = timer.seconds();
    timer.reset();
    msv_items = &candidates;
  }

  // ---- Stage 1: warp-synchronous MSV ----
  out.msv.n_in = msv_items ? candidates.size() : db.size();
  auto msv_run = [&] {
    OBS_SPAN(rec, 0, "gpu.msv");
    return search.run_msv(msv_, packed, msv_placement, msv_items);
  }();
  if (rec) {
    obs::StageTelemetry st;
    st.stage = "msv";
    st.counters = obs::counters_kv(msv_run.counters);
    gpu_t.stages.push_back(std::move(st));
  }
  std::vector<std::size_t> msv_pass;
  std::vector<float> msv_bits;
  for (std::size_t i = 0; i < msv_run.scores.size(); ++i) {
    const std::size_t s = msv_items ? candidates[i] : i;
    float bits = 0.0f;
    if (msv_gate({msv_run.scores[i], msv_run.overflow[i] != 0},
                 db[s].length(), bits)) {
      msv_pass.push_back(s);
      msv_bits.push_back(bits);
    }
  }
  out.msv.n_passed = msv_pass.size();
  out.msv.cells = static_cast<double>(msv_run.counters.cells);
  out.msv.seconds = timer.seconds();
  out.gpu_msv = std::move(msv_run);

  // ---- Stage 2: warp-synchronous P7Viterbi on the survivors ----
  timer.reset();
  out.vit.n_in = msv_pass.size();
  std::vector<Hit> vit_pass;
  if (!msv_pass.empty()) {
    auto vit_run = [&] {
      OBS_SPAN(rec, 0, "gpu.vit");
      return search.run_vit(vit_, packed, vit_placement, &msv_pass);
    }();
    if (rec) {
      obs::StageTelemetry st;
      st.stage = "vit";
      st.counters = obs::counters_kv(vit_run.counters);
      gpu_t.stages.push_back(std::move(st));
    }
    for (std::size_t i = 0; i < msv_pass.size(); ++i) {
      Hit h;
      h.seq_index = msv_pass[i];
      h.msv_bits = msv_bits[i];
      if (vit_gate(vit_run.scores[i], db[h.seq_index].length(), h.vit_bits))
        vit_pass.push_back(std::move(h));
    }
    out.vit.cells = static_cast<double>(vit_run.counters.cells);
    out.gpu_vit = std::move(vit_run);
  }
  out.vit.n_passed = vit_pass.size();
  out.vit.seconds = timer.seconds();

  forward_stage(db, std::move(vit_pass), out);

  if (rec) {
    out.telemetry = make_telemetry("gpu_sim", db, 1, out, total.seconds(),
                                   thr_.use_ssv_prefilter);
    // Graft the per-stage SIMT counters collected above onto the shared
    // stage rows, so device runs read through the same schema.
    for (auto& st : out.telemetry->stages)
      for (auto& collected : gpu_t.stages)
        if (collected.stage == st.stage)
          st.counters = std::move(collected.counters);
  }
  return out;
}

HmmSearch::MultiGpuResult HmmSearch::run_gpu_multi(
    const std::vector<simt::DeviceSpec>& devs,
    const bio::SequenceDatabase& db, const bio::PackedDatabase& packed,
    gpu::ParamPlacement placement) const {
  FH_REQUIRE(!devs.empty(), "need at least one device");
  FH_REQUIRE(packed.size() == db.size(), "packed database mismatch");
  MultiGpuResult out;
  SearchResult& combined = out.combined;
  Timer timer;

  // ---- Stage 1: MSV, database partitioned by residues (Fig. 11) ----
  combined.msv.n_in = db.size();
  auto msv_multi = gpu::run_msv_multi(devs, msv_, packed, placement);
  std::vector<std::size_t> msv_pass;
  std::vector<float> msv_bits;
  for (std::size_t s = 0; s < db.size(); ++s) {
    float bits = 0.0f;
    if (msv_gate({msv_multi.scores[s], msv_multi.overflow[s] != 0},
                 db[s].length(), bits)) {
      msv_pass.push_back(s);
      msv_bits.push_back(bits);
    }
  }
  combined.msv.n_passed = msv_pass.size();
  for (auto& r : msv_multi.per_device) {
    combined.msv.cells += static_cast<double>(r.counters.cells);
    out.msv_per_device.push_back(std::move(r));
  }
  combined.msv.seconds = timer.seconds();

  // ---- Stage 2: P7Viterbi, survivors re-partitioned round-robin ----
  timer.reset();
  combined.vit.n_in = msv_pass.size();
  std::vector<Hit> vit_pass;
  if (!msv_pass.empty()) {
    const std::size_t n_dev = devs.size();
    std::vector<std::vector<std::size_t>> parts(n_dev);
    for (std::size_t i = 0; i < msv_pass.size(); ++i)
      parts[i % n_dev].push_back(msv_pass[i]);
    for (std::size_t d = 0; d < n_dev; ++d) {
      if (parts[d].empty()) continue;
      gpu::GpuSearch search(devs[d]);
      auto run = search.run_vit(vit_, packed, placement, &parts[d]);
      for (std::size_t j = 0; j < parts[d].size(); ++j) {
        Hit h;
        h.seq_index = parts[d][j];
        // parts[d][j] is msv_pass[j * n_dev + d].
        h.msv_bits = msv_bits[j * n_dev + d];
        if (vit_gate(run.scores[j], db[h.seq_index].length(), h.vit_bits))
          vit_pass.push_back(std::move(h));
      }
      combined.vit.cells += static_cast<double>(run.counters.cells);
      out.vit_per_device.push_back(std::move(run));
    }
    // Keep deterministic ordering for downstream reporting.
    std::sort(vit_pass.begin(), vit_pass.end(),
              [](const Hit& a, const Hit& b) {
                return a.seq_index < b.seq_index;
              });
  }
  combined.vit.n_passed = vit_pass.size();
  combined.vit.seconds = timer.seconds();

  forward_stage(db, std::move(vit_pass), combined);
  return out;
}

void HmmSearch::forward_stage(ScanSource src, std::vector<Hit> survivors,
                              SearchResult& out) const {
  obs::Recorder* rec =
      (recorder_ != nullptr && recorder_->enabled()) ? recorder_ : nullptr;
  if (rec) rec->reserve_threads(1);  // run_gpu_multi skips engine setup
  OBS_SPAN(rec, 0, "fwd");
  Timer timer;
  out.fwd.n_in = survivors.size();
  cpu::FwdFilter fwd_filter(fwd_);
  const cpu::TraceStripes trace_stripes(prof_);
  Scratch scratch;
  if (src.zero_copy()) scratch.codes.resize(src.max_length());
  for (Hit& h : survivors) {
    const std::size_t L = src.length(h.seq_index);
    const std::uint8_t* codes =
        src.fetch_codes(h.seq_index, scratch.codes.data());
    out.fwd.cells += static_cast<double>(L) * prof_.length();
    if (!score_forward(fwd_filter, trace_stripes, codes, L, src.size(),
                       scratch, h))
      continue;
    if (thr_.define_domains) {
      out.bwd.n_in += 1;
      out.bwd.n_passed += 1;
      out.bwd.cells += static_cast<double>(L) * prof_.length();
    }
    h.name = std::string(src.name(h.seq_index));
    out.hits.push_back(std::move(h));
    ++out.fwd.n_passed;
  }
  // The decode share of the loop belongs to the bwd stage, not fwd.
  out.bwd.seconds = scratch.bwd_seconds;
  out.fwd.seconds = timer.seconds() - scratch.bwd_seconds;
  sort_hits(out.hits);
}

}  // namespace finehmm::pipeline
