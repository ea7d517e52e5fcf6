#include "server/server.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <utility>

#include "obs/log.hpp"
#include "stats/distributions.hpp"

namespace finehmm::server {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Completed requests kept for STATS `recent_traces` and /statusz.
constexpr std::size_t kTraceRingCapacity = 64;

double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(b - a)
      .count();
}

std::uint64_t ns_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  if (b <= a) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Reconstruct a search from an inline binary profile blob.  Stored
/// calibration is used when present; otherwise the model is calibrated
/// here with the default deterministic options — identical to what a
/// local HmmSearch construction would compute, so remote hits stay
/// bit-identical to local ones either way.
std::shared_ptr<pipeline::HmmSearch> search_from_blob(
    const std::vector<std::uint8_t>& blob, const pipeline::Thresholds& thr) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(blob.data()), blob.size()));
  std::optional<stats::ModelStats> model_stats;
  hmm::Plan7Hmm model = hmm::read_hmm_binary(in, &model_stats);
  if (model_stats)
    return std::make_shared<pipeline::HmmSearch>(model, *model_stats, thr);
  return std::make_shared<pipeline::HmmSearch>(model, thr);
}

/// The monotonic counters, in the order STATS and
/// finehmm_server_events_total both list them.
std::vector<std::pair<const char*, std::uint64_t>> events(
    const ServerStats& s) {
  return {
      {"connections_accepted", s.connections_accepted},
      {"requests_admitted", s.requests_admitted},
      {"requests_completed", s.requests_completed},
      {"requests_overloaded", s.requests_overloaded},
      {"requests_rejected_draining", s.requests_rejected_draining},
      {"requests_deadline_expired", s.requests_deadline_expired},
      {"requests_bad", s.requests_bad},
      {"requests_failed", s.requests_failed},
      {"batches", s.batches},
      {"db_sweeps", s.db_sweeps},
      {"responses_dropped", s.responses_dropped},
      {"frames_malformed", s.frames_malformed},
      {"scan_requests", s.scan_requests},
      {"scan_sweeps", s.scan_sweeps},
      {"scan_models_scored", s.scan_models_scored},
  };
}

}  // namespace

SearchServer::SearchServer(ServerConfig cfg)
    : Node(cfg.role, cfg.shard_id),
      cfg_(cfg),
      pool_(cfg.scan_threads),
      recorder_(obs::RecorderConfig{/*tracing=*/false,
                                    /*max_events_per_thread=*/1 << 15,
                                    /*enabled=*/true}),
      queue_(cfg.admission_capacity == 0 ? 1 : cfg.admission_capacity),
      paused_(cfg.start_paused),
      trace_ring_(kTraceRingCapacity) {
  telemetry_.engine = "server";
  telemetry_.threads = pool_.workers();
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

SearchServer::~SearchServer() {
  // serve() joins the scheduler before returning; reap it here only
  // when serve() never ran.
  if (scheduler_.joinable()) after_accept_loop();
}

std::uint32_t SearchServer::add_database(const std::string& fsqdb_path) {
  Db db;
  db.mapped = std::make_unique<bio::MappedSeqDb>(fsqdb_path);
  return adopt(std::move(db));
}

std::uint32_t SearchServer::add_database(bio::SequenceDatabase heap_db) {
  Db db;
  db.heap = std::make_unique<bio::SequenceDatabase>(std::move(heap_db));
  return adopt(std::move(db));
}

std::uint32_t SearchServer::adopt(Db db) {
  const pipeline::ScanSource src = db.view();
  db.schedule = pipeline::make_length_schedule(
      src.size(), [&src](std::size_t i) { return src.length(i); });
  dbs_.push_back(std::move(db));
  return static_cast<std::uint32_t>(dbs_.size() - 1);
}

std::size_t SearchServer::add_model_library(const std::string& fhpdb_path) {
  std::vector<hmm::ModelEntry> entries = hmm::read_model_db_file(fhpdb_path);
  const std::size_t n = entries.size();
  for (hmm::ModelEntry& e : entries) {
    if (!e.model_stats) {
      // Calibrate once at load (deterministic), not per request.
      pipeline::HmmSearch calibrated(e.model);
      e.model_stats = calibrated.model_stats();
    }
    // The SCAN verb's resident search, built once here so a sweep pays
    // zero per-request profile/calibration cost.  Library order.
    scan_searches_.push_back(std::make_unique<pipeline::HmmSearch>(
        e.model, *e.model_stats));
    scan_names_.push_back(e.model.name());
    std::string name = e.model.name();
    models_[std::move(name)] = std::move(e);
  }
  scan_plan_.reset();  // the library changed; re-tune on the next scan
  return n;
}

void SearchServer::after_accept_loop() {
  {
    MutexLock lock(state_mu_);
    paused_ = false;  // a paused scheduler must wake to drain
    pause_cv_.notify_all();
  }
  // No new clients.  Close the admission queue: items already accepted
  // keep flowing to the scheduler, which exits once the ring is empty —
  // that IS "finish in-flight".
  queue_.close();
  scheduler_.join();
}

void SearchServer::set_paused(bool paused) {
  MutexLock lock(state_mu_);
  if (draining_) return;  // drain overrides: never re-freeze a drain
  paused_ = paused;
  pause_cv_.notify_all();
}

// --- Session tier ------------------------------------------------------

bool SearchServer::known_db(Session& session, std::uint32_t request_id,
                            std::uint32_t db_id) {
  if (db_id < dbs_.size()) return true;
  reject(session, request_id, ErrorCode::kUnknownDatabase,
         "no resident database with id " + std::to_string(db_id));
  return false;
}

void SearchServer::on_search(const std::shared_ptr<Session>& session,
                             std::uint32_t id, SearchRequest req) {
  if (!known_db(*session, id, req.db_id)) return;

  const pipeline::Thresholds thr{.report_evalue = req.evalue,
                                 .z_override = req.z_override};

  auto pending = std::make_shared<Pending>(
      Pending{.session = session, .request_id = id, .db_id = req.db_id});
  try {
    if (req.model_kind == ModelRefKind::kPressed) {
      auto it = models_.find(req.model_name);
      if (it == models_.end()) {
        reject(*session, id, ErrorCode::kUnknownModel,
               "no pressed model named '" + req.model_name + "'");
        return;
      }
      // add_model_library guaranteed stats are present.
      pending->search = std::make_shared<pipeline::HmmSearch>(
          it->second.model, *it->second.model_stats, thr);
    } else {
      pending->search = search_from_blob(req.model_blob, thr);
    }
  } catch (const Error& e) {
    reject(*session, id, ErrorCode::kBadRequest,
           std::string("model rejected: ") + e.what());
    return;
  }
  admit(pending, req.deadline_ms);
}

void SearchServer::on_scan(const std::shared_ptr<Session>& session,
                           std::uint32_t id, ScanRequest req) {
  if (!known_db(*session, id, req.db_id)) return;
  if (scan_searches_.empty()) {
    reject(*session, id, ErrorCode::kUnknownModel,
           "no model libraries loaded; SCAN has nothing to score");
    return;
  }

  admit(std::make_shared<Pending>(Pending{.session = session,
                                          .request_id = id,
                                          .db_id = req.db_id,
                                          .is_scan = true,
                                          .scan_evalue = req.evalue,
                                          .scan_z_override = req.z_override}),
        req.deadline_ms);
}

void SearchServer::admit(const std::shared_ptr<Pending>& pending,
                         std::uint32_t deadline_ms) {
  pending->admitted_at = SteadyClock::now();
  if (deadline_ms > 0)
    pending->deadline =
        pending->admitted_at + std::chrono::milliseconds(deadline_ms);
  pending->trace_id = obs::next_trace_id();
  const bool is_scan = pending->is_scan;  // read before the scheduler owns it
  if (!queue_.try_push(pending)) {
    // Admission bound hit (or drain closed the queue after the shell's
    // draining check): shed explicitly, never block the client.
    {
      MutexLock lock(stats_mu_);
      ++stats_.requests_overloaded;
    }
    // A shed storm is one warn per second, not one per shed request.
    static obs::LogRateLimit overload_limit(1);
    std::uint64_t suppressed = 0;
    if (overload_limit.allow(&suppressed))
      obs::log(obs::LogLevel::kWarn, "server.overload",
               {{"verb", is_scan ? "SCAN" : "SEARCH"},
                {"queue_capacity", static_cast<std::uint64_t>(
                                       queue_.capacity())},
                {"suppressed", suppressed}});
    send_reply(*pending->session, MsgType::kOverload, pending->request_id,
               encode_overload(OverloadInfo{
                   static_cast<std::uint32_t>(queue_.capacity())}));
    return;
  }
  MutexLock lock(stats_mu_);
  ++stats_.requests_admitted;
  if (is_scan) ++stats_.scan_requests;
}

// --- Scheduler tier ----------------------------------------------------

void SearchServer::scheduler_loop() {
  std::vector<std::shared_ptr<Pending>> batch;
  for (;;) {
    {
      // Explicit wait loop (not a lambda predicate) so the guarded
      // paused_ read stays inside this annotated function.
      MutexLock lock(state_mu_);
      while (paused_) pause_cv_.wait(state_mu_);
    }

    std::shared_ptr<Pending> first;
    const PopStatus st = queue_.pop_wait(first, std::chrono::milliseconds(50));
    if (st == PopStatus::kClosed) break;  // drained: every admitted item done
    if (st == PopStatus::kTimeout) continue;
    {
      // A pause set while pop_wait was blocked holds the item it returned:
      // a paused scheduler runs nothing.
      MutexLock lock(state_mu_);
      while (paused_) pause_cv_.wait(state_mu_);
    }

    batch.clear();
    first->popped_at = SteadyClock::now();  // ends the queue-wait span
    batch.push_back(std::move(first));

    // Coalesce window: companions that arrive within it share the sweep.
    const auto window_end =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(cfg_.coalesce_window_ms);
    while (batch.size() < cfg_.max_batch) {
      std::shared_ptr<Pending> more;
      if (queue_.try_pop(more)) {
        more->popped_at = SteadyClock::now();
        batch.push_back(std::move(more));
        continue;
      }
      const auto now = std::chrono::steady_clock::now();
      if (now >= window_end) break;
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(window_end -
                                                                now);
      if (queue_.pop_wait(more, std::max(remaining,
                                         std::chrono::milliseconds(1))) !=
          PopStatus::kItem)
        break;
      more->popped_at = SteadyClock::now();
      batch.push_back(std::move(more));
    }

    {
      MutexLock lock(stats_mu_);
      ++stats_.batches;
      stats_.max_batch_size =
          std::max<std::uint64_t>(stats_.max_batch_size, batch.size());
    }
    run_batch(batch);
    batch.clear();
  }
}

void SearchServer::fail_group(
    const std::vector<std::shared_ptr<Pending>>& group, const Error& e) {
  {
    MutexLock lock(stats_mu_);
    stats_.requests_failed += group.size();
  }
  for (const auto& p : group)
    send_error(*p->session, p->request_id, ErrorCode::kInternal,
               std::string("scan failed: ") + e.what());
}

template <class Wire>
void SearchServer::complete(const Pending& p, const Sweep& sweep,
                            MsgType type, const Wire& wire,
                            std::vector<std::uint8_t> (*encode)(const Wire&)) {
  // Completion is accounted before the reply leaves, so a client that
  // reads STATS right after its result already sees it (test_server
  // leans on this ordering); only responses_dropped (needs the send
  // outcome) lags.
  {
    MutexLock lock(stats_mu_);
    ++stats_.requests_completed;
  }
  const auto serialize_start = SteadyClock::now();
  if (!send_reply(*p.session, type, p.request_id, encode(wire))) {
    MutexLock lock(stats_mu_);
    ++stats_.responses_dropped;
  }
  finish_request_trace(p, sweep,
                       seconds_between(serialize_start, SteadyClock::now()));
}

void SearchServer::run_batch(std::vector<std::shared_ptr<Pending>>& batch) {
  // Group by database: one coalesced sweep per distinct resident db for
  // SEARCHes, plus one fused library sweep per db with queued SCANs —
  // concurrent SCANs of the same database share that single sweep.
  std::map<std::uint32_t, std::vector<std::shared_ptr<Pending>>> by_db;
  std::map<std::uint32_t, std::vector<std::shared_ptr<Pending>>> scans_by_db;
  const auto now = std::chrono::steady_clock::now();
  for (std::shared_ptr<Pending>& p : batch) {
    if (p->deadline && now > *p->deadline) {
      {
        MutexLock lock(stats_mu_);
        ++stats_.requests_deadline_expired;
      }
      send_error(*p->session, p->request_id, ErrorCode::kDeadlineExpired,
                 "request expired while queued");
      continue;
    }
    auto& dest = p->is_scan ? scans_by_db : by_db;
    dest[p->db_id].push_back(std::move(p));
  }

  for (auto& [db_id, group] : scans_by_db) run_scans(db_id, group);

  for (auto& [db_id, group] : by_db) {
    const Db& db = dbs_[db_id];
    std::vector<const pipeline::HmmSearch*> searches;
    searches.reserve(group.size());
    for (const auto& p : group) searches.push_back(p->search.get());

    pipeline::HmmSearch::CoalescedScan scan;
    const auto sweep_start = SteadyClock::now();
    try {
      scan = pipeline::HmmSearch::scan(searches, db.view(), pool_,
                                       /*plan=*/nullptr, &db.schedule,
                                       &recorder_, "cpu_coalesced");
    } catch (const Error& e) {
      fail_group(group, e);
      continue;
    }
    const Sweep sweep{"SEARCH", sweep_start, SteadyClock::now(),
                      scan.telemetry, group.size()};

    // Sweep-level accounting lands BEFORE any reply goes out, so a client
    // that reads STATS right after its result already sees the sweep it
    // rode in.
    {
      MutexLock lock(stats_mu_);
      ++stats_.db_sweeps;
    }
    merge_batch_telemetry(scan.telemetry);

    for (std::size_t i = 0; i < group.size(); ++i) {
      const pipeline::SearchResult& r = scan.per_model[i];
      SearchResultWire wire;
      wire.trace_id = group[i]->trace_id;
      wire.db_sequences = db.view().size();
      wire.db_residues = db.view().total_residues();
      wire.ssv = r.ssv;
      wire.msv = r.msv;
      wire.vit = r.vit;
      wire.fwd = r.fwd;
      wire.bwd = r.bwd;
      wire.hits = r.hits;
      complete(*group[i], sweep, MsgType::kResult, wire, encode_search_result);
    }
  }
}

void SearchServer::run_scans(
    std::uint32_t db_id,
    const std::vector<std::shared_ptr<Pending>>& group) {
  const Db& db = dbs_[db_id];
  std::vector<const pipeline::HmmSearch*> searches;
  searches.reserve(scan_searches_.size());
  for (const auto& s : scan_searches_) searches.push_back(s.get());

  // Tune once per library: the plan depends only on the model lengths
  // and the lane width of the active SIMD tier, both fixed from here.
  if (!scan_plan_) scan_plan_ = pipeline::HmmSearch::fuse_plan(searches);

  pipeline::HmmSearch::CoalescedScan scan;
  const auto sweep_start = SteadyClock::now();
  try {
    scan = pipeline::HmmSearch::scan(searches, db.view(), pool_,
                                     &*scan_plan_, &db.schedule, &recorder_,
                                     "cpu_fused");
  } catch (const Error& e) {
    fail_group(group, e);
    return;
  }
  const Sweep sweep{"SCAN", sweep_start, SteadyClock::now(), scan.telemetry,
                    group.size()};

  {
    MutexLock lock(stats_mu_);
    ++stats_.scan_sweeps;
    stats_.scan_models_scored += searches.size();
    // Mirror the (scheduler-owned) plan into stats so /statusz and
    // /metrics can read fuse shape without racing the lazy tuner.
    stats_.scan_fuse_groups = scan_plan_->groups.size();
    stats_.scan_lane_occupancy = scan_plan_->lane_occupancy();
  }
  merge_batch_telemetry(scan.telemetry);

  for (const auto& p : group) {
    ScanResultWire wire;
    wire.trace_id = p->trace_id;
    wire.db_sequences = db.view().size();
    wire.db_residues = db.view().total_residues();
    wire.fuse_groups = scan_plan_->groups.size();
    wire.fused_models = scan_plan_->fused_models();
    wire.lane_occupancy = scan_plan_->lane_occupancy();
    wire.models.reserve(searches.size());
    for (std::size_t m = 0; m < searches.size(); ++m) {
      ScanModelHits mh;
      mh.model_name = scan_names_[m];
      // The resident library reports at E <= 10; a request's threshold
      // can only tighten.  Hits are E-value sorted, so this is a prefix.
      //
      // z_override (cluster shards): the resident sweep scored at the
      // shard-local Z, but E = p * Z is one multiply, so recomputing
      // from the carried P-value against the caller's Z is bit-identical
      // to having scored with it.  The recomputed E is monotone in p,
      // exactly like the resident E, so the prefix property holds.  The
      // override Z >= local Z (a cluster is a superset of its shard), so
      // the resident E <= 10 cut never hides a hit the caller wants.
      for (const pipeline::Hit& h : scan.per_model[m].hits) {
        const double e =
            p->scan_z_override != 0
                ? stats::evalue(h.pvalue, 0, p->scan_z_override)
                : h.evalue;
        if (e > p->scan_evalue) break;
        pipeline::Hit adjusted = h;
        adjusted.evalue = e;
        mh.hits.push_back(std::move(adjusted));
      }
      wire.models.push_back(std::move(mh));
    }
    complete(*p, sweep, MsgType::kScanResult, wire, encode_scan_result);
  }
}

// --- Observability -----------------------------------------------------

void SearchServer::merge_batch_telemetry(const obs::ScanTelemetry& t) {
  MutexLock lock(stats_mu_);
  telemetry_.sequences += t.sequences;
  telemetry_.residues += t.residues;
  telemetry_.wall_seconds += t.wall_seconds;
  telemetry_.zero_copy = t.zero_copy;
  telemetry_.mapped_bytes += t.mapped_bytes;
  telemetry_.heap_bytes += t.heap_bytes;
  telemetry_.decoded_bytes += t.decoded_bytes;
  for (const obs::StageTelemetry& st : t.stages) {
    auto it = std::find_if(
        telemetry_.stages.begin(), telemetry_.stages.end(),
        [&](const obs::StageTelemetry& have) { return have.stage == st.stage; });
    if (it == telemetry_.stages.end()) {
      telemetry_.stages.push_back(st);
      continue;
    }
    it->n_in += st.n_in;
    it->n_passed += st.n_passed;
    it->cells += st.cells;
    it->wall_seconds += st.wall_seconds;
    it->busy_seconds += st.busy_seconds;
    for (const auto& [key, value] : st.counters) {
      auto kv = std::find_if(
          it->counters.begin(), it->counters.end(),
          [&](const auto& have) { return have.first == key; });
      if (kv == it->counters.end())
        it->counters.emplace_back(key, value);
      else
        kv->second += value;
    }
  }
}

ServerStats SearchServer::stats() const {
  const NodeStats shell = node_stats();
  MutexLock lock(stats_mu_);
  ServerStats s = stats_;
  static_cast<NodeStats&>(s) = shell;
  return s;
}

obs::ScanTelemetry SearchServer::telemetry() const {
  MutexLock lock(stats_mu_);
  return telemetry_;
}

void SearchServer::finish_request_trace(const Pending& p, const Sweep& sweep,
                                        double serialize_seconds) {
  const auto done = SteadyClock::now();

  obs::RequestTrace t;
  t.trace_id = p.trace_id;
  t.request_id = p.request_id;
  t.verb = sweep.verb;
  t.start_ns = ns_between(start_time_, p.admitted_at);
  t.queue_seconds = seconds_between(p.admitted_at, p.popped_at);
  t.coalesce_seconds = seconds_between(p.popped_at, sweep.start);
  t.sweep_seconds = seconds_between(sweep.start, sweep.end);
  t.serialize_seconds = serialize_seconds;
  t.total_seconds = seconds_between(p.admitted_at, done);
  t.batch_size = static_cast<std::uint32_t>(
      sweep.batch_size == 0 ? 1 : sweep.batch_size);
  // The sweep scored the whole batch at once; attribute each request an
  // equal share of the per-stage busy time (requests in one coalesced
  // sweep walk the same database, so shares are genuinely symmetric).
  const double share = 1.0 / static_cast<double>(t.batch_size);
  for (const obs::StageTelemetry& st : sweep.telemetry.stages) {
    for (int s = 0; s < obs::kStageCount; ++s) {
      if (st.stage == obs::stage_name(static_cast<obs::Stage>(s))) {
        t.stage_seconds[s] += st.busy_seconds * share;
        break;
      }
    }
  }

  // Always-on histograms: three relaxed atomic adds per request.
  e2e_hist_.record(ns_between(p.admitted_at, done));
  queue_hist_.record(ns_between(p.admitted_at, p.popped_at));
  sweep_hist_.record(ns_between(sweep.start, sweep.end));
  trace_ring_.push(t);

  if (cfg_.slow_request_seconds > 0.0 &&
      t.total_seconds >= cfg_.slow_request_seconds) {
    static obs::LogRateLimit slow_limit(10);
    std::uint64_t suppressed = 0;
    if (slow_limit.allow(&suppressed))
      obs::log(
          obs::LogLevel::kWarn, "server.slow_request",
          {{"trace_id", obs::trace_id_hex(t.trace_id)},
           {"verb", sweep.verb},
           {"total_ms", t.total_seconds * 1e3},
           {"queue_ms", t.queue_seconds * 1e3},
           {"coalesce_ms", t.coalesce_seconds * 1e3},
           {"sweep_ms", t.sweep_seconds * 1e3},
           {"serialize_ms", t.serialize_seconds * 1e3},
           {"ssv_ms",
            t.stage_seconds[static_cast<int>(obs::Stage::kSsv)] * 1e3},
           {"msv_ms",
            t.stage_seconds[static_cast<int>(obs::Stage::kMsv)] * 1e3},
           {"vit_ms",
            t.stage_seconds[static_cast<int>(obs::Stage::kVit)] * 1e3},
           {"fwd_ms",
            t.stage_seconds[static_cast<int>(obs::Stage::kFwd)] * 1e3},
           {"bwd_ms",
            t.stage_seconds[static_cast<int>(obs::Stage::kBwd)] * 1e3},
           {"batch_size", t.batch_size},
           {"suppressed", suppressed}});
  }
}

std::string SearchServer::stats_json() const {
  const ServerStats s = stats();
  const obs::ScanTelemetry t = telemetry();
  const obs::Histogram e2e = e2e_hist_.snapshot();
  const obs::Histogram queue_wait = queue_hist_.snapshot();
  const obs::Histogram sweep = sweep_hist_.snapshot();
  const std::vector<obs::RequestTrace> traces = trace_ring_.snapshot();

  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"finehmm.server_stats.v2\",\n";
  os << "  \"uptime_seconds\": " << uptime_seconds() << ",\n";
  os << "  \"queue_depth\": " << queue_.size() << ",\n";
  os << "  \"draining\": " << (draining() ? "true" : "false") << ",\n";
  os << "  \"connections_open\": " << s.connections_open << ",\n";
  for (const auto& [name, value] : events(s))
    os << "  \"" << name << "\": " << value << ",\n";
  os << "  \"max_batch_size\": " << s.max_batch_size << ",\n";
  os << "  \"scan_fuse_groups\": " << s.scan_fuse_groups << ",\n";
  os << "  \"scan_lane_occupancy\": " << s.scan_lane_occupancy << ",\n";
  os << "  \"latency\": {\n";
  os << "    \"e2e\": ";
  obs::write_latency_json(os, e2e);
  os << ",\n    \"queue_wait\": ";
  obs::write_latency_json(os, queue_wait);
  os << ",\n    \"sweep\": ";
  obs::write_latency_json(os, sweep);
  os << "\n  },\n";
  os << "  \"recent_traces\": [";
  for (std::size_t i = 0; i < traces.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    obs::write_trace_json(os, traces[i], 4);
  }
  os << (traces.empty() ? "" : "\n  ") << "],\n";
  os << "  \"telemetry\":\n";
  t.write_json(os, 2);
  os << "\n}\n";
  return os.str();
}

std::string SearchServer::metrics_text() const {
  const ServerStats s = stats();
  const obs::ScanTelemetry t = telemetry();

  std::ostringstream os;
  using obs::write_prometheus_gauge;
  write_prometheus_gauge(os, "finehmm_up",
                         "Whether finehmmd is serving (drain flips to 0).",
                         draining() ? 0 : 1);
  write_prometheus_gauge(os, "finehmm_uptime_seconds",
                         "Seconds since the server started.",
                         uptime_seconds());
  write_prometheus_gauge(os, "finehmm_queue_depth",
                         "Admission queue occupancy right now.",
                         queue_.size());
  write_prometheus_gauge(os, "finehmm_connections_open",
                         "Client connections open right now.",
                         s.connections_open);
  write_prometheus_gauge(os, "finehmm_queue_capacity",
                         "Admission queue bound (shed above).",
                         queue_.capacity());
  write_prometheus_gauge(os, "finehmm_resident_databases",
                         "Databases held mmap-resident.", dbs_.size());
  write_prometheus_gauge(os, "finehmm_resident_models",
                         "Models loaded from .fhpdb libraries.",
                         models_.size());

  obs::write_prometheus_family(
      os, "finehmm_server_events_total", "counter",
      "Monotonic server request and connection counters by event.");
  for (const auto& [name, value] : events(s))
    os << "finehmm_server_events_total{event=\"" << name << "\"} " << value
       << "\n";

  write_prometheus_gauge(os, "finehmm_max_batch_size",
                         "Largest coalesced batch so far.", s.max_batch_size);
  write_prometheus_gauge(os, "finehmm_scan_fuse_groups",
                         "Groups in the current fuse plan.",
                         s.scan_fuse_groups);
  write_prometheus_gauge(
      os, "finehmm_scan_lane_occupancy",
      "Cell-weighted SIMD lane occupancy of fused sweeps (0..1).",
      s.scan_lane_occupancy);

  const auto summary = [&os](const char* name, const char* help,
                             const obs::Histogram& h) {
    obs::write_prometheus_family(os, name, "summary", help);
    obs::write_latency_prometheus(os, name, "", h);
  };
  summary("finehmm_request_latency_seconds",
          "End-to-end request latency (admission to reply written).",
          e2e_hist_.snapshot());
  summary("finehmm_queue_wait_seconds",
          "Time requests spent in the admission queue.",
          queue_hist_.snapshot());
  summary("finehmm_sweep_seconds",
          "Wall time of the database sweep each request rode in.",
          sweep_hist_.snapshot());

  t.write_prometheus(os);
  return os.str();
}

std::string SearchServer::statusz_text() const {
  const ServerStats s = stats();
  std::uint64_t db_seqs = 0, db_residues = 0;
  for (const Db& db : dbs_) {
    db_seqs += db.view().size();
    db_residues += db.view().total_residues();
  }
  const std::uint64_t sweeps = s.db_sweeps + s.scan_sweeps;

  std::ostringstream os;
  os << "finehmmd status\n";
  os << "===============\n";
  os << "uptime_seconds:     " << uptime_seconds() << "\n";
  os << "state:              " << (draining() ? "draining" : "serving")
     << "\n";
  os << "resident databases: " << dbs_.size() << " (" << db_seqs
     << " sequences, " << db_residues << " residues)\n";
  os << "resident models:    " << models_.size() << "\n";
  os << "queue depth:        " << queue_.size() << " / " << queue_.capacity()
     << "\n";
  os << "requests:           admitted " << s.requests_admitted
     << ", completed " << s.requests_completed << ", shed "
     << s.requests_overloaded << ", failed " << s.requests_failed << "\n";
  os << "coalescing:         " << sweeps << " sweeps for "
     << s.requests_completed << " requests ("
     << obs::safe_rate(static_cast<double>(s.requests_completed),
                       static_cast<double>(sweeps))
     << " requests/sweep, max batch " << s.max_batch_size << ")\n";
  os << "fuse plan:          " << s.scan_fuse_groups << " groups, lane "
     << "occupancy " << s.scan_lane_occupancy << "\n";

  const std::pair<const char*, obs::Histogram> hists[] = {
      {"e2e (ms):", e2e_hist_.snapshot()},
      {"queue_wait (ms):", queue_hist_.snapshot()},
      {"sweep (ms):", sweep_hist_.snapshot()}};
  for (const auto& [label, h] : hists) {
    const obs::LatencyQuantiles q = obs::latency_quantiles(h);
    os << "latency " << std::left << std::setw(17) << label << "p50 "
       << static_cast<double>(q.p50) * 1e-6 << ", p90 "
       << static_cast<double>(q.p90) * 1e-6 << ", p99 "
       << static_cast<double>(q.p99) * 1e-6 << ", p99.9 "
       << static_cast<double>(q.p999) * 1e-6 << " (n=" << q.count << ")\n";
  }

  const std::vector<obs::RequestTrace> traces = trace_ring_.snapshot();
  os << "recent requests:    " << traces.size() << " (newest last)\n";
  const std::size_t show = traces.size() > 8 ? traces.size() - 8 : 0;
  for (std::size_t i = show; i < traces.size(); ++i) {
    const obs::RequestTrace& tr = traces[i];
    os << "  " << obs::trace_id_hex(tr.trace_id) << " " << tr.verb
       << " total " << tr.total_seconds * 1e3 << " ms (queue "
       << tr.queue_seconds * 1e3 << ", sweep " << tr.sweep_seconds * 1e3
       << ", batch " << tr.batch_size << ")\n";
  }
  return os.str();
}

}  // namespace finehmm::server
