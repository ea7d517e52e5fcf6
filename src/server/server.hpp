// The resident search daemon's core: databases stay mmap-resident and
// concurrently queued client requests coalesce into shared database
// sweeps.
//
// hmmsearch amortizes nothing across invocations — every query pays the
// full cost of loading and walking the target database.  SearchServer is
// the repo's hmmpgmd analog: it holds .fsqdb databases open (zero-copy,
// page-cache warm), accepts requests over any Transport, and batches the
// requests queued at any instant into ONE HmmSearch::scan pass per
// database — N clients cost one sweep, not N (docs/server.md).
//
// Threading model: the shell (server/node.hpp) runs the accept loop and
// one session thread per open connection.  A session thread constructs
// the per-request HmmSearch (profile build + calibration happen off the
// scan path) and pushes the search onto the admission queue; try_push
// failure = immediate OVERLOAD reply: the daemon sheds, never stalls.
// One scheduler thread, started with the server, pops the admission
// queue, gathers up to max_batch requests inside coalesce_window_ms,
// groups them by database, drops expired deadlines, runs the coalesced
// scan on the shared ThreadPool, and writes each client its result.
//
// Drain (SIGTERM): begin_drain() stops the accept loop and flags new
// SEARCH/SCAN frames for rejection (kShuttingDown); everything already
// admitted still completes because the closed queue keeps delivering
// accepted items.  serve() returns once the scheduler has drained and
// every session thread has joined — telemetry is complete at that
// point, ready to flush.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bio/seq_db_io.hpp"
#include "hmm/model_db.hpp"
#include "obs/histogram.hpp"
#include "obs/recorder.hpp"
#include "obs/request_trace.hpp"
#include "obs/telemetry.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/workload.hpp"
#include "server/node.hpp"
#include "util/mpmc_queue.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/threadpool.hpp"

namespace finehmm::server {

struct ServerConfig {
  /// Workers in the shared scan pool (0 = hardware concurrency).
  std::size_t scan_threads = 0;
  /// Admission queue capacity: requests queued beyond this are shed with
  /// an OVERLOAD reply instead of blocking the client.
  std::size_t admission_capacity = 64;
  /// Most requests one coalesced sweep will carry.
  std::size_t max_batch = 16;
  /// How long the scheduler waits for companions after the first request
  /// of a batch arrives.  The window is the coalescing opportunity: a
  /// lone client pays it once per request; concurrent clients share it.
  std::uint32_t coalesce_window_ms = 2;
  /// Test hook: start with the scheduler paused (set_paused(false) to
  /// release), so tests can deterministically fill the admission queue.
  bool start_paused = false;
  /// Requests slower than this (end to end) dump their per-stage
  /// breakdown through the structured log at warn level, rate-limited.
  /// 0 disables the slow-request log.
  double slow_request_seconds = 0.0;
  /// What this node is in a cluster topology, answered in the PONG
  /// handshake so a coordinator can verify it is talking to a shard
  /// worker (finehmmd --shard-id; docs/cluster.md).
  NodeRole role = NodeRole::kStandalone;
  std::uint32_t shard_id = 0;  // meaningful when role == kShard
};

/// Request accounting ("finehmm.server_stats.v2"), on top of the shell's
/// connection counters.
struct ServerStats : NodeStats {
  std::uint64_t requests_admitted = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_overloaded = 0;         // shed at admission
  std::uint64_t requests_deadline_expired = 0;   // queued past their deadline
  std::uint64_t requests_failed = 0;   // scan raised server-side
  std::uint64_t batches = 0;           // scheduler gathers
  std::uint64_t db_sweeps = 0;         // coalesced database passes
  std::uint64_t max_batch_size = 0;    // largest single coalesced group
  std::uint64_t responses_dropped = 0; // client gone before its reply
  // SCAN verb (fused many-model sweeps over the resident libraries):
  std::uint64_t scan_requests = 0;       // admitted SCAN requests
  std::uint64_t scan_sweeps = 0;         // fused library sweeps run
  std::uint64_t scan_models_scored = 0;  // sum of library size per sweep
  std::uint64_t scan_fuse_groups = 0;    // groups in the current fuse plan
  double scan_lane_occupancy = 0.0;      // cell-weighted mean, 0..1
};

class SearchServer final : public Node {
 public:
  explicit SearchServer(ServerConfig cfg = {});
  ~SearchServer() override;

  // --- Resident data (load before serve(); not thread-safe against it) --
  /// mmap a .fsqdb and keep it resident; returns the db_id clients name.
  std::uint32_t add_database(const std::string& fsqdb_path);
  /// Adopt a heap database (tests and benches).
  std::uint32_t add_database(bio::SequenceDatabase db);
  /// Load a pressed model library (.fhpdb); models become addressable by
  /// name via ModelRefKind::kPressed.  Models without stored calibration
  /// are calibrated once here (deterministic), not per request.  Returns
  /// the number of models loaded.
  std::size_t add_model_library(const std::string& fhpdb_path);

  // --- Lifecycle: serve() / begin_drain() / draining() come from Node --
  /// Test hook: freeze/release the scheduler so tests can stage the
  /// admission queue deterministically.  Drain releases a pause.
  void set_paused(bool paused) FINEHMM_EXCLUDES(state_mu_);

  // --- Observability --------------------------------------------------
  ServerStats stats() const FINEHMM_EXCLUDES(state_mu_, stats_mu_);
  /// Batch telemetry aggregated across every coalesced sweep so far
  /// (engine "server"; the `batch.sweeps` / `batch.queries` counters on
  /// the msv stage make coalescing observable).
  obs::ScanTelemetry telemetry() const FINEHMM_EXCLUDES(stats_mu_);
  /// The STATS verb's payload ("finehmm.server_stats.v2"): ServerStats +
  /// latency histogram quantiles + recent request traces + telemetry.
  std::string stats_json() const override
      FINEHMM_EXCLUDES(state_mu_, stats_mu_);
  std::string metrics_text() const override
      FINEHMM_EXCLUDES(state_mu_, stats_mu_);
  std::string statusz_text() const override
      FINEHMM_EXCLUDES(state_mu_, stats_mu_);

  /// Always-on end-to-end latency (admission -> reply written), ns.
  obs::Histogram latency_histogram() const { return e2e_hist_.snapshot(); }

  /// The most recent completed request traces, oldest first.
  std::vector<obs::RequestTrace> recent_traces() const {
    return trace_ring_.snapshot();
  }

 private:
  struct Db {
    std::unique_ptr<bio::MappedSeqDb> mapped;
    std::unique_ptr<bio::SequenceDatabase> heap;
    pipeline::ScanSchedule schedule;  // cached length-bucketed order
    pipeline::ScanSource view() const {
      return mapped ? pipeline::ScanSource(*mapped)
                    : pipeline::ScanSource(*heap);
    }
  };

  /// An admitted search waiting for (or riding in) a coalesced sweep.
  /// A SCAN request (is_scan) carries no model of its own: it rides the
  /// fused sweep of the whole resident library instead.
  struct Pending {
    std::shared_ptr<Session> session;
    std::uint32_t request_id = 0;
    std::uint32_t db_id = 0;
    std::shared_ptr<pipeline::HmmSearch> search{};
    bool is_scan = false;
    double scan_evalue = 10.0;
    std::uint64_t scan_z_override = 0;  // 0 = shard-local Z
    std::optional<std::chrono::steady_clock::time_point> deadline{};
    // Request-scoped tracing: the id travels with the request from
    // admission through the sweep to the reply; the timestamps become
    // the queue-wait / coalesce-wait spans of its RequestTrace.
    std::uint64_t trace_id = 0;
    std::chrono::steady_clock::time_point admitted_at{};
    std::chrono::steady_clock::time_point popped_at{};
  };

  /// One finished sweep, as each request that rode in it is traced.
  struct Sweep {
    const char* verb;
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point end;
    const obs::ScanTelemetry& telemetry;
    std::size_t batch_size;
  };

  void on_search(const std::shared_ptr<Session>& session,
                 std::uint32_t request_id, SearchRequest req) override
      FINEHMM_EXCLUDES(stats_mu_);
  void on_scan(const std::shared_ptr<Session>& session,
               std::uint32_t request_id, ScanRequest req) override
      FINEHMM_EXCLUDES(stats_mu_);
  /// Close the admission queue and join the scheduler: everything
  /// admitted before drain has been answered when this returns.
  void after_accept_loop() override FINEHMM_EXCLUDES(state_mu_);

  /// Cache the length schedule of a new resident database; its db_id.
  std::uint32_t adopt(Db db);
  /// Whether db_id names a resident database; answers the error if not.
  bool known_db(Session& session, std::uint32_t request_id,
                std::uint32_t db_id) FINEHMM_EXCLUDES(stats_mu_);
  /// Stamp and push an admitted request, or shed it with OVERLOAD.
  void admit(const std::shared_ptr<Pending>& pending,
             std::uint32_t deadline_ms)
      FINEHMM_EXCLUDES(stats_mu_);
  void scheduler_loop() FINEHMM_EXCLUDES(state_mu_, stats_mu_);
  /// The coalescer's sweep path: runs with NO server lock held — the
  /// sweep blocks for milliseconds and replies re-enter per-session
  /// write_mu; holding state_mu_ or stats_mu_ across it would stall
  /// drain and every observability read.
  void run_batch(std::vector<std::shared_ptr<Pending>>& batch)
      FINEHMM_EXCLUDES(state_mu_, stats_mu_);
  void run_scans(std::uint32_t db_id,
                 const std::vector<std::shared_ptr<Pending>>& group)
      FINEHMM_EXCLUDES(state_mu_, stats_mu_);
  /// A sweep raised: every request that rode in it fails.
  void fail_group(const std::vector<std::shared_ptr<Pending>>& group,
                  const Error& e) FINEHMM_EXCLUDES(stats_mu_);
  /// Count one request complete, send its reply (encoding is timed as
  /// serialization), and finish its trace.
  template <class Wire>
  void complete(const Pending& p, const Sweep& sweep, MsgType type,
                const Wire& wire,
                std::vector<std::uint8_t> (*encode)(const Wire&))
      FINEHMM_EXCLUDES(stats_mu_);
  void merge_batch_telemetry(const obs::ScanTelemetry& t)
      FINEHMM_EXCLUDES(stats_mu_);
  /// Complete one request's trace: compute its spans from the sweep
  /// timing + its share of the batch's stage busy time, record the
  /// latency histograms, push the ring, and emit the slow-request log.
  void finish_request_trace(const Pending& p, const Sweep& sweep,
                            double serialize_seconds);

  ServerConfig cfg_;
  ThreadPool pool_;
  obs::Recorder recorder_;
  BoundedMpmcQueue<std::shared_ptr<Pending>> queue_;

  std::vector<Db> dbs_;
  std::map<std::string, hmm::ModelEntry> models_;
  /// The SCAN verb's resident library: one calibrated HmmSearch per
  /// loaded model (library load order) plus the cached fuse plan.  Built
  /// by add_model_library; the plan is tuned lazily on the first scan
  /// (when the SIMD tier is settled) and reused by every later sweep.
  std::vector<std::unique_ptr<pipeline::HmmSearch>> scan_searches_;
  std::vector<std::string> scan_names_;
  std::optional<hmm::FusePlan> scan_plan_;

  // Node::state_mu_ guards the pause flag; pause_cv_ signals its edges.
  bool paused_ FINEHMM_GUARDED_BY(state_mu_) = false;
  CondVar pause_cv_;

  // Under Node::stats_mu_.  stats_ holds the server's own counters; its
  // NodeStats part is filled from the shell at snapshot time.
  ServerStats stats_ FINEHMM_GUARDED_BY(stats_mu_);
  obs::ScanTelemetry telemetry_ FINEHMM_GUARDED_BY(stats_mu_);

  // Always-on observability.  Histograms record in nanoseconds via
  // relaxed atomic adds (lock-free, zero allocation); the trace ring is
  // mutex-guarded but touched once per completed request.
  obs::ConcurrentHistogram e2e_hist_;
  obs::ConcurrentHistogram queue_hist_;
  obs::ConcurrentHistogram sweep_hist_;
  obs::TraceRing trace_ring_;

  /// Started last in the constructor, joined by after_accept_loop() or
  /// the destructor.
  std::thread scheduler_;
};

}  // namespace finehmm::server
