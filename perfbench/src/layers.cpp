#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "bio/packing.hpp"
#include "bio/seq_db_io.hpp"
#include "cluster/cluster_client.hpp"
#include "cluster/merge.hpp"
#include "cluster/shard_map.hpp"
#include "cpu/msv_filter.hpp"
#include "cpu/msv_group.hpp"
#include "cpu/simd_backend/backend.hpp"
#include "cpu/simd_backend/simd_tier.hpp"
#include "hmm/binary_io.hpp"
#include "hmm/generator.hpp"
#include "hmm/hmm_io.hpp"
#include "hmm/model_db.hpp"
#include "hmm/model_group.hpp"
#include "load.hpp"
#include "obs/telemetry.hpp"
#include "pipeline/batch_scanner.hpp"
#include "pipeline/pipeline.hpp"
#include "server/client.hpp"
#include "server/loopback.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/tcp.hpp"
#include "spans.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"
#include "verify.hpp"

namespace perfbench {

using namespace finehmm;

namespace {

// Residues the kernel loops and the engine runs see: prefixes of the
// workload's database, sized so each timed call lasts milliseconds.
constexpr std::uint64_t kByteSample = 200'000;   // SSV / MSV
constexpr std::uint64_t kWordSample = 40'000;    // Viterbi / Forward / Bwd
constexpr std::uint64_t kEngineSample = 400'000; // engines, server, cluster
constexpr int kPaperSizes[] = {48, 100, 200, 400, 800, 1002};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// Median seconds of `reps` calls of fn, each inside a span.
double timed(Tracer& tr, const char* name, int reps, double count,
             const std::function<void()>& fn) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    auto span = tr.span(name, tr.new_request(), count);
    Timer t;
    fn();
    s.push_back(t.seconds());
  }
  return median(s);
}

struct Entry {
  hmm::Plan7Hmm model;
  stats::ModelStats stats;
};

/// A prefix of the mapped database as byte codes, up to `residues`.
struct Sample {
  std::vector<std::vector<std::uint8_t>> codes;
  std::vector<bio::PackedResidues> packed;
  std::vector<std::size_t> lengths;
  double residues = 0.0;
};

Sample take_sample(const bio::MappedSeqDb& db, std::uint64_t residues) {
  Sample s;
  for (std::size_t i = 0; i < db.size() && s.residues < residues; ++i) {
    const std::size_t L = db.length(i);
    if (L == 0) continue;
    std::vector<std::uint8_t> c(L);
    bio::unpack_into(db.residues(i), L, c.data());
    s.codes.push_back(std::move(c));
    s.packed.push_back(db.residues(i));
    s.lengths.push_back(L);
    s.residues += static_cast<double>(L);
  }
  return s;
}

std::vector<std::uint8_t> blob_of(const Entry& e, bool with_stats) {
  std::ostringstream os;
  hmm::write_hmm_binary(os, e.model, with_stats ? &e.stats : nullptr);
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

hmm::Plan7Hmm model_from_blob(const std::vector<std::uint8_t>& b,
                              std::optional<stats::ModelStats>* st) {
  std::istringstream is(std::string(b.begin(), b.end()));
  return hmm::read_hmm_binary(is, st);
}

/// The workload's models with their calibration, read from its files.
std::vector<Entry> load_models(Workload w, const std::string& dir) {
  std::vector<Entry> out;
  if (w == Workload::kHmmscanPfam) {
    for (hmm::ModelEntry& e : hmm::read_model_db_file(dir + "/lib.fhpdb"))
      out.push_back({std::move(e.model), *e.model_stats});
    return out;
  }
  for (const std::string& name : read_model_list(dir).names) {
    std::optional<stats::ModelStats> st;
    hmm::Plan7Hmm m = hmm::read_hmm_file(dir + "/" + name + ".hmm", &st);
    out.push_back({std::move(m), *st});
  }
  return out;
}

struct Profiles {
  explicit Profiles(const hmm::Plan7Hmm& m)
      : prof(m, hmm::AlignMode::kLocalMultihit, 400), msv(prof), vit(prof),
        fwd(prof) {}
  hmm::SearchProfile prof;
  profile::MsvProfile msv;
  profile::VitProfile vit;
  profile::FwdProfile fwd;
};

class Run {
 public:
  Run(Workload w, const std::string& dir, std::uint64_t seed)
      : w_(w), dir_(dir), seed_(seed) {}

  std::string go(const std::string& trace_path) {
    models_ = load_models(w_, dir_);
    // The engine query: the workload's longest model of at most 400
    // positions (its shortest when none is that short).
    query_ = 0;
    for (std::size_t i = 1; i < models_.size(); ++i) {
      const int L = models_[i].model.length();
      const int best = models_[query_].model.length();
      const bool better = best > 400 ? L < best : (L <= 400 && L > best);
      if (better) query_ = i;
    }
    bio_layer();
    hmm_layer();
    cpu_layer();
    pipeline_layer();
    util_layer();
    server_layer();
    cluster_layer();
    waterfall();
    std::ofstream os(trace_path);
    tr_.write_chrome_trace(os);
    if (!os.good()) throw IoError("cannot write " + trace_path);
    return json();
  }

 private:
  void put(const std::string& name, double v) { metrics_[name] = v; }

  /// Count one consistency check; a failed one is a failed operation.
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench layers: check failed: %s\n",
                   what.c_str());
    }
  }

  /// Count verified operations; each failed one is a failed operation.
  void count(const Tally& t, const std::string& what) {
    attempted_ += t.attempted;
    failed_ += t.failed();
    for (std::size_t i = 1; i < kOutcomes; ++i)
      if (t.counts[i] != 0)
        std::fprintf(stderr, "perfbench layers: %s: %llu %s\n", what.c_str(),
                     static_cast<unsigned long long>(t.counts[i]),
                     outcome_name(static_cast<Outcome>(i)));
  }

  double query_cells(double residues) const {
    return models_[query_].model.length() * residues;
  }

  // --- bio ---------------------------------------------------------------
  void bio_layer() {
    auto layer = tr_.span("layer.bio");
    const std::string path = dir_ + "/db.fsqdb";
    std::optional<bio::MappedSeqDb> db;
    put("bio.fsqdb_open_ms",
        1e3 * timed(tr_, "bio.fsqdb_open", 5, 0, [&] {
          db.reset();
          db.emplace(path);
        }));
    const bio::SequenceDatabase heap = db->materialize();
    put("bio.fsqdb_write_s",
        timed(tr_, "bio.fsqdb_write", 1, double(heap.total_residues()), [&] {
          bio::write_seq_db_file(dir_ + "/trace_copy.fsqdb", heap);
        }));
    std::remove((dir_ + "/trace_copy.fsqdb").c_str());

    // The engine sample: a database prefix, written and mapped as a user
    // would scan it.
    bio::SequenceDatabase sample;
    for (const bio::Sequence& s : heap) {
      if (sample.total_residues() >= kEngineSample) break;
      sample.add(s);
    }
    bio::write_seq_db_file(dir_ + "/engine.fsqdb", sample);
    engine_db_.emplace(dir_ + "/engine.fsqdb");
    byte_sample_ = take_sample(*engine_db_, kByteSample);
    word_sample_ = take_sample(*engine_db_, kWordSample);
  }

  // --- hmm ---------------------------------------------------------------
  void hmm_layer() {
    auto layer = tr_.span("layer.hmm");
    const Entry& q = models_[query_];
    const std::string hmm_path = dir_ + "/trace_query.hmm";
    hmm::write_hmm_file(hmm_path, q.model, &q.stats);
    put("hmm.read_hmm_ms", 1e3 * timed(tr_, "hmm.read_hmm", 5, 0, [&] {
          std::optional<stats::ModelStats> st;
          hmm::read_hmm_file(hmm_path, &st);
        }));
    blob_ = blob_of(q, true);
    put("hmm.blob_decode_us",
        1e6 * timed(tr_, "hmm.blob_decode", 21, double(blob_.size()), [&] {
          std::optional<stats::ModelStats> st;
          model_from_blob(blob_, &st);
        }));
    std::string lib = dir_ + "/lib.fhpdb";
    if (w_ != Workload::kHmmscanPfam) {
      lib = dir_ + "/trace_lib.fhpdb";
      std::vector<hmm::ModelEntry> entries;
      for (const Entry& e : models_) entries.push_back({e.model, e.stats});
      hmm::write_model_db_file(lib, entries);
    }
    put("hmm.fhpdb_load_ms", 1e3 * timed(tr_, "hmm.fhpdb_load", 3, 0, [&] {
          hmm::read_model_db_file(lib);
        }));
    std::vector<int> lengths;
    for (const Entry& e : models_) lengths.push_back(e.model.length());
    const int lanes =
        cpu::backend::tier_kernels(cpu::resolve_simd_tier(
                                       cpu::active_simd_tier()))
            .u8_lanes;
    put("hmm.plan_groups_us",
        1e6 * timed(tr_, "hmm.plan_groups", 51, double(lengths.size()), [&] {
          plan_ = hmm::plan_model_groups(lengths, lanes);
        }));

    // profile / stats: the search constructor with and without stored
    // calibration.
    put("profile.build_ms", 1e3 * timed(tr_, "profile.build", 5, 0, [&] {
          pipeline::HmmSearch s(q.model, q.stats);
        }));
    put("stats.calibrate_ms", 1e3 * timed(tr_, "stats.calibrate", 1, 0, [&] {
          pipeline::HmmSearch s(q.model);
        }));
  }

  // --- cpu ---------------------------------------------------------------
  enum class Stage { kSsv, kMsv, kVit, kFwd, kBwd };

  /// GCUPS of one BatchScanner stage over a sample, one worker.
  double kernel_gcups(const char* span, Profiles& p, const Sample& s,
                      Stage stage) {
    pipeline::BatchScanner bs(p.msv, p.vit, &p.fwd, 1);
    std::vector<float> mocc;
    const double cells = p.prof.length() * s.residues;
    const double sec = timed(tr_, span, 3, cells, [&] {
      for (std::size_t i = 0; i < s.lengths.size(); ++i) {
        const std::size_t L = s.lengths[i];
        switch (stage) {
          case Stage::kSsv: bs.ssv(0, s.packed[i], L); break;
          case Stage::kMsv: bs.msv(0, s.packed[i], L); break;
          case Stage::kVit: bs.vit(0, s.codes[i].data(), L); break;
          case Stage::kFwd: bs.fwd(0, s.codes[i].data(), L); break;
          case Stage::kBwd: bs.decode(0, s.codes[i].data(), L, mocc); break;
        }
      }
    });
    return obs::safe_rate(cells, sec) / 1e9;
  }

  void cpu_layer() {
    auto layer = tr_.span("layer.cpu");
    hmm::Plan7Hmm m400;
    for (const Entry& e : models_)
      if (e.model.length() == 400) m400 = e.model;
    if (m400.length() != 400) m400 = generated(400);
    Profiles p(m400);
    const cpu::SimdTier active = cpu::active_simd_tier();
    const std::pair<const char*, Stage> stages[] = {
        {"ssv", Stage::kSsv}, {"msv", Stage::kMsv}, {"vit", Stage::kVit},
        {"fwd", Stage::kFwd}, {"bwd", Stage::kBwd}};
    for (cpu::SimdTier t : cpu::supported_simd_tiers()) {
      cpu::set_simd_tier(t);
      for (const auto& [stage, id] : stages) {
        const std::string name = std::string("cpu.") + stage + ".gcups." +
                                 cpu::simd_tier_name(t);
        // The byte filters sweep the long sample, the word stages the short.
        const bool bytes = id == Stage::kSsv || id == Stage::kMsv;
        const double g = kernel_gcups(name.c_str(), p,
                                      bytes ? byte_sample_ : word_sample_, id);
        put(name, g);
        if (t == active) kernel_rate_[stage] = g;
      }
    }
    cpu::reset_simd_tier();

    for (int M : kPaperSizes) {
      hmm::Plan7Hmm m;
      for (const Entry& e : models_)
        if (e.model.length() == M) m = e.model;
      if (m.length() != M) m = generated(M);
      Profiles pm(m);
      const std::string name = "cpu.msv.gcups.m" + std::to_string(M);
      put(name, kernel_gcups(name.c_str(), pm, byte_sample_, Stage::kMsv));
    }

    // The fused group kernels on the library plan.
    std::vector<std::unique_ptr<Profiles>> profs;
    for (const Entry& e : models_)
      profs.push_back(std::make_unique<Profiles>(e.model));
    double cells = 0.0;
    std::vector<std::unique_ptr<cpu::FusedMsvGroup>> groups;
    for (const hmm::GroupShape& g : plan_.groups) {
      std::vector<const profile::MsvProfile*> members;
      for (std::size_t m : g.members) {
        members.push_back(&profs[m]->msv);
        cells += models_[m].model.length() * byte_sample_.residues;
      }
      groups.push_back(std::make_unique<cpu::FusedMsvGroup>(
          members, plan_.lane_width, g.Q));
    }
    std::vector<cpu::FilterResult> results(models_.size());
    const double sec = timed(tr_, "cpu.fused_msv", 3, cells, [&] {
      for (const auto& g : groups) {
        cpu::FusedMsvFilter f(*g);
        for (std::size_t i = 0; i < byte_sample_.lengths.size(); ++i)
          f.msv(byte_sample_.packed[i], byte_sample_.lengths[i],
                results.data());
      }
    });
    put("cpu.fused_msv.gcups", obs::safe_rate(cells, sec) / 1e9);
    put("cpu.fused.lane_occupancy", plan_.lane_occupancy());
  }

  hmm::Plan7Hmm generated(int M) const {
    hmm::RandomHmmSpec spec;
    spec.length = M;
    spec.seed = seed_ * 7919 + static_cast<std::uint64_t>(M);
    return hmm::generate_hmm(spec);
  }

  // --- pipeline ----------------------------------------------------------
  static bool same_counts(const pipeline::SearchResult& a,
                          const pipeline::SearchResult& b) {
    auto eq = [](const pipeline::StageStats& x, const pipeline::StageStats& y) {
      return x.n_in == y.n_in && x.n_passed == y.n_passed;
    };
    return eq(a.msv, b.msv) && eq(a.vit, b.vit) && eq(a.fwd, b.fwd) &&
           a.hits.size() == b.hits.size();
  }

  void pipeline_layer() {
    auto layer = tr_.span("layer.pipeline");
    const Entry& q = models_[query_];
    const pipeline::ScanSource src(*engine_db_);
    const double cells = query_cells(src.total_residues());
    pipeline::HmmSearch search(q.model, q.stats);
    serial_ = search.run_cpu(src);
    const double t_serial = timed(tr_, "pipeline.serial", 3, cells, [&] {
      check(same_counts(search.run_cpu(src), serial_), "serial repeats");
    });
    const double t_par = timed(tr_, "pipeline.parallel", 3, cells, [&] {
      check(same_counts(search.run_cpu_parallel(src, kThreads), serial_),
            "parallel == serial");
    });
    const double t_ovl = timed(tr_, "pipeline.overlapped", 3, cells, [&] {
      check(same_counts(search.run_cpu_overlapped(src, kThreads), serial_),
            "overlapped == serial");
    });
    put("pipeline.serial.gcups", cells / t_serial / 1e9);
    put("pipeline.parallel.gcups", cells / t_par / 1e9);
    put("pipeline.overlapped.gcups", cells / t_ovl / 1e9);
    put("pipeline.overlapped.scaling_eff", t_serial / (kThreads * t_ovl));
    const double predicted = serial_.msv.cells / (kernel_rate_["msv"] * 1e9) +
                             serial_.vit.cells / (kernel_rate_["vit"] * 1e9) +
                             serial_.fwd.cells / (kernel_rate_["fwd"] * 1e9);
    put("pipeline.serial.overhead_pct", 100.0 * (t_serial / predicted - 1.0));

    auto pct = [](const pipeline::StageStats& s) {
      return s.n_in ? 100.0 * double(s.n_passed) / double(s.n_in) : 0.0;
    };
    put("pipeline.msv.pass_pct", pct(serial_.msv));
    put("pipeline.vit.pass_pct", pct(serial_.vit));
    put("pipeline.fwd.pass_pct", pct(serial_.fwd));
    // Busy shares of the serial engine's stage time; the Backward decode
    // runs only when domains are defined, so it is timed that way.
    pipeline::Thresholds domains;
    domains.define_domains = true;
    const pipeline::SearchResult d =
        pipeline::HmmSearch(q.model, q.stats, domains).run_cpu(src);
    const double busy =
        d.msv.seconds + d.vit.seconds + d.fwd.seconds + d.bwd.seconds;
    put("pipeline.msv.busy_pct", 100.0 * d.msv.seconds / busy);
    put("pipeline.vit.busy_pct", 100.0 * d.vit.seconds / busy);
    put("pipeline.fwd.busy_pct", 100.0 * d.fwd.seconds / busy);
    put("pipeline.bwd.busy_pct", 100.0 * d.bwd.seconds / busy);

    // Fused library scan against a per-model loop, on one pool.
    ThreadPool pool(kThreads - 1);  // plus the calling thread
    std::vector<std::unique_ptr<pipeline::HmmSearch>> lib;
    std::vector<const pipeline::HmmSearch*> ptrs;
    double lib_cells = 0.0;
    for (const Entry& e : models_) {
      lib.push_back(std::make_unique<pipeline::HmmSearch>(e.model, e.stats));
      ptrs.push_back(lib.back().get());
      lib_cells += e.model.length() * double(src.total_residues());
    }
    pipeline::HmmSearch::CoalescedScan fused;
    const double t_fused = timed(tr_, "pipeline.fused", 2, lib_cells, [&] {
      fused = pipeline::HmmSearch::run_cpu_fused(ptrs, src, pool, &plan_);
    });
    std::vector<pipeline::SearchResult> per_model(ptrs.size());
    const double t_loop = timed(tr_, "pipeline.per_model", 2, lib_cells, [&] {
      for (std::size_t m = 0; m < ptrs.size(); ++m)
        per_model[m] = ptrs[m]->run_cpu_parallel(src, pool);
    });
    for (std::size_t m = 0; m < ptrs.size(); ++m)
      check(same_counts(fused.per_model[m], per_model[m]),
            "fused == per-model for " + models_[m].model.name());
    put("pipeline.fused.gcups", lib_cells / t_fused / 1e9);
    put("pipeline.per_model.gcups", lib_cells / t_loop / 1e9);
    put("pipeline.fused.speedup", t_loop / t_fused);

    // A 16-query coalesced sweep against 16 single sweeps.
    std::vector<const pipeline::HmmSearch*> batch;
    double batch_cells = 0.0;
    for (std::size_t k = 0; k < 16; ++k) {
      batch.push_back(ptrs[k % ptrs.size()]);
      batch_cells += batch.back()->profile().length() *
                     double(src.total_residues());
    }
    const double t_batch = timed(tr_, "pipeline.coalesced", 3, batch_cells, [&] {
      const auto r = pipeline::HmmSearch::run_cpu_coalesced(batch, src, pool);
      check(same_counts(r.per_model[0], per_model[0]), "coalesced == serial");
    });
    const double t_single =
        timed(tr_, "pipeline.coalesced_singles", 3, batch_cells, [&] {
          for (const pipeline::HmmSearch* s : batch)
            pipeline::HmmSearch::run_cpu_coalesced({s}, src, pool);
        });
    put("pipeline.coalesced.gcups", batch_cells / t_batch / 1e9);
    put("pipeline.coalesced.speedup", t_single / t_batch);
  }

  // --- util --------------------------------------------------------------
  void util_layer() {
    auto layer = tr_.span("layer.util");
    ThreadPool pool(kThreads - 1);
    put("util.pool_dispatch_us",
        1e6 * timed(tr_, "util.pool_dispatch", 201, 0, [&] {
          pool.parallel_for_chunked(kThreads, 1,
                                    [](std::size_t, std::size_t, std::size_t) {});
        }));
  }

  // --- server ------------------------------------------------------------
  /// An in-process SearchServer over the engine sample, served on a
  /// loopback hub or a TCP listener.
  struct InProcess {
    InProcess(const std::string& db, bool tcp, std::size_t threads,
              server::NodeRole role = server::NodeRole::kStandalone,
              std::uint32_t shard = 0) {
      server::ServerConfig cfg;
      cfg.scan_threads = threads;
      cfg.role = role;
      cfg.shard_id = shard;
      srv = std::make_unique<server::SearchServer>(cfg);
      srv->add_database(db);
      if (tcp) {
        auto l = std::make_unique<server::TcpListener>("127.0.0.1", 0);
        port = l->port();
        listener = std::move(l);
      } else {
        listener = hub.listener();
      }
      thread = std::thread([this] { srv->serve(*listener); });
    }
    ~InProcess() {
      srv->begin_drain();
      thread.join();
    }
    InProcess(const InProcess&) = delete;
    InProcess& operator=(const InProcess&) = delete;

    std::unique_ptr<server::Connection> connect() {
      return port != 0 ? server::tcp_connect("127.0.0.1", port)
                       : hub.connect();
    }

    server::LoopbackHub hub;
    std::unique_ptr<server::SearchServer> srv;
    std::unique_ptr<server::Listener> listener;
    std::uint16_t port = 0;
    std::thread thread;
  };

  static double stats_quantile(const std::string& json, const char* hist,
                               const char* q) {
    const std::size_t h = json.find(std::string("\"") + hist + "\"");
    if (h == std::string::npos) throw Error(std::string("no ") + hist);
    const std::string key = std::string("\"") + q + "\": ";
    const std::size_t k = json.find(key, h);
    if (k == std::string::npos) throw Error(std::string("no ") + q);
    return std::atof(json.c_str() + k + key.size());
  }

  void server_layer() {
    auto layer = tr_.span("layer.server");
    const Entry& q = models_[query_];
    server::SearchRequest req;
    req.model_blob = blob_;
    std::vector<std::uint8_t> payload;
    put("server.encode_search_us",
        1e6 * timed(tr_, "server.encode_search", 51, 0, [&] {
          payload = server::encode_search_request(req);
        }));
    put("server.decode_search_us",
        1e6 * timed(tr_, "server.decode_search", 51, 0, [&] {
          server::decode_search_request(payload);
        }));
    const server::SearchResultWire wire =
        reference_reply(serial_, *engine_db_);
    std::vector<std::uint8_t> reply;
    put("server.encode_result_us",
        1e6 * timed(tr_, "server.encode_result", 51, 0, [&] {
          reply = server::encode_search_result(wire);
        }));
    put("server.decode_result_us",
        1e6 * timed(tr_, "server.decode_result", 51, 0, [&] {
          server::decode_search_result(reply);
        }));
    put("server.request_bytes", double(payload.size() + server::kFrameHeaderSize));
    put("server.reply_bytes", double(reply.size() + server::kFrameHeaderSize));
    ref_ = normalized_search(wire);

    const std::string db = dir_ + "/engine.fsqdb";
    for (bool tcp : {false, true}) {
      InProcess s(db, tcp, kThreads);
      server::BlockingClient c(s.connect());
      put(tcp ? "server.ping_rtt_us.tcp" : "server.ping_rtt_us.loopback",
          1e6 * timed(tr_, tcp ? "server.ping.tcp" : "server.ping.loopback",
                      201, 0, [&] { c.ping(); }));
      // Sequential requests: the wire rows of the waterfall.  Even
      // requests are traced, odd ones not: trace.overhead_pct.
      std::vector<double> on, off;
      for (int r = 0; r < 40; ++r) {
        tr_.set_enabled(r % 2 == 0);
        auto span = tr_.span(tcp ? "server.search.tcp" : "server.search.loopback",
                             tr_.new_request(), query_cells(src_residues()));
        Timer t;
        const server::RemoteResult rr = c.search(0, q.model, &q.stats);
        (r % 2 == 0 ? on : off).push_back(t.seconds());
        check(rr.status == server::ClientStatus::kOk &&
                  normalized_search(rr.result) == ref_,
              "in-process SEARCH == serial reference");
      }
      tr_.set_enabled(true);
      std::vector<double> all = on;
      all.insert(all.end(), off.begin(), off.end());
      wire_seconds_[tcp ? "tcp" : "loopback"] = median(all);
      if (!tcp) {
        put("trace.overhead_pct", 100.0 * (median(on) / median(off) - 1.0));
        const std::optional<std::string> js = c.stats_json();
        if (!js) throw Error("STATS failed");
        wire_seconds_["sweep"] = stats_quantile(*js, "sweep", "p50_seconds");
      }
    }

    // SEARCH traffic from four closed-loop clients, every reply checked
    // against its model's serial reference; quantiles read back through
    // the STATS verb.
    std::vector<std::vector<std::uint8_t>> blobs, refs;
    for (const Entry& e : models_) {
      blobs.push_back(blob_of(e, true));
      const pipeline::HmmSearch search(e.model, e.stats);
      refs.push_back(normalized_search(
          reference_reply(search.run_cpu(*engine_db_), *engine_db_)));
    }
    InProcess s(db, false, kThreads);
    std::vector<std::thread> crew;
    std::vector<double> lat[kThreads];
    Tally tallies[kThreads];
    const std::size_t per_client = 40;
    for (std::size_t c = 0; c < kThreads; ++c)
      crew.emplace_back([&, c] {
        server::BlockingClient cl(s.connect());
        for (std::size_t r = 0; r < per_client; ++r) {
          const std::size_t m = (c * per_client + r) % blobs.size();
          Timer t;
          const server::RemoteResult rr = cl.search_blob(0, blobs[m]);
          lat[c].push_back(t.seconds());
          tallies[c].add(classify(rr, refs[m]));
        }
      });
    for (std::thread& t : crew) t.join();
    for (const Tally& t : tallies) count(t, "concurrent in-process SEARCH");
    std::vector<double> all;
    for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
    server::BlockingClient c(s.connect());
    const std::optional<std::string> js = c.stats_json();
    if (!js) throw Error("STATS failed");
    const server::ServerStats st = s.srv->stats();
    put("server.queue_wait_ms.p50",
        1e3 * stats_quantile(*js, "queue_wait", "p50_seconds"));
    put("server.queue_wait_ms.p99",
        1e3 * stats_quantile(*js, "queue_wait", "p99_seconds"));
    const double sweep50 = stats_quantile(*js, "sweep", "p50_seconds");
    put("server.sweep_ms.p50", 1e3 * sweep50);
    put("server.sweep_ms.p99", 1e3 * stats_quantile(*js, "sweep", "p99_seconds"));
    put("server.batch_size",
        double(st.requests_completed) / double(std::max<std::uint64_t>(1, st.db_sweeps)));
    const double client50 = median(all);
    put("server.overhead_pct", 100.0 * (client50 - sweep50) / client50);
  }

  double src_residues() const { return double(engine_db_->total_residues()); }

  // --- cluster -----------------------------------------------------------
  void cluster_layer() {
    auto layer = tr_.span("layer.cluster");
    // Four shards of the engine sample, split as fsqdb_shard splits.
    const bio::SequenceDatabase heap = engine_db_->materialize();
    std::vector<std::uint32_t> lengths;
    for (const bio::Sequence& s : heap)
      lengths.push_back(static_cast<std::uint32_t>(s.length()));
    cluster::ShardManifest man;
    man.total_sequences = heap.size();
    man.total_residues = heap.total_residues();
    std::vector<std::unique_ptr<InProcess>> shards;
    std::size_t k = 0;
    for (const auto& [b, e] : cluster::plan_shard_ranges(lengths, 4)) {
      bio::SequenceDatabase part;
      cluster::ShardInfo info;
      info.seq_base = b;
      info.sequences = e - b;
      info.length_buckets.assign(cluster::kLengthBuckets, 0);
      for (std::size_t i = b; i < e; ++i) {
        part.add(heap[i]);
        info.residues += heap[i].length();
        ++info.length_buckets[cluster::length_bucket(heap[i].length())];
      }
      info.path = "trace_shard." + std::to_string(k) + ".fsqdb";
      bio::write_seq_db_file(dir_ + "/" + info.path, part);
      shards.push_back(std::make_unique<InProcess>(
          dir_ + "/" + info.path, true, 1, server::NodeRole::kShard,
          static_cast<std::uint32_t>(k)));
      man.shards.push_back(info);
      ++k;
    }
    std::vector<std::uint16_t> ports;
    for (const auto& s : shards) ports.push_back(s->port);

    put("cluster.connect_handshake_us",
        1e6 * timed(tr_, "cluster.connect_handshake", 51, 0, [&] {
          server::BlockingClient c(server::tcp_connect("127.0.0.1", ports[0]));
          check(c.ping_info().has_value(), "shard handshake");
        }));

    // Per-shard replies, merged as the coordinator merges them.
    std::vector<server::SearchResultWire> parts;
    for (std::uint16_t p : ports) {
      server::BlockingClient c(server::tcp_connect("127.0.0.1", p));
      const server::RemoteResult rr =
          c.search_blob(0, blob_, 10.0, 0, man.total_sequences);
      check(rr.status == server::ClientStatus::kOk, "shard SEARCH");
      parts.push_back(rr.result);
    }
    server::SearchResultWire merged;
    put("cluster.merge_us", 1e6 * timed(tr_, "cluster.merge", 51, 0, [&] {
          merged = cluster::merge_search_results(parts, {0, 1, 2, 3}, man,
                                                 10.0);
        }));
    check(normalized_search(merged) == ref_, "merge == unsharded reference");

    cluster::ClusterConfig cfg;
    cfg.manifest = man;
    cfg.require_shard_role = true;
    cluster::ClusterClient client(cfg, [ports](std::size_t shard) {
      return server::tcp_connect("127.0.0.1", ports[shard]);
    });
    server::SearchRequest req;
    req.model_blob = blob_;
    std::vector<double> rtt, straggle, overhead, total;
    for (int r = 0; r < 40; ++r) {
      auto span = tr_.span("cluster.search", tr_.new_request(),
                           query_cells(src_residues()));
      Timer t;
      const cluster::ClusterSearchResult res = client.search(req);
      const double sec = t.seconds();
      check(res.status == server::ClientStatus::kOk && !res.degraded &&
                normalized_search(res.result) == ref_,
            "cluster SEARCH == unsharded reference");
      double lo = 1e9, hi = 0.0;
      for (const cluster::ShardOutcome& o : res.shards) {
        rtt.push_back(o.roundtrip_seconds * 1e3);
        lo = std::min(lo, o.roundtrip_seconds);
        hi = std::max(hi, o.roundtrip_seconds);
      }
      straggle.push_back((hi - lo) * 1e3);
      overhead.push_back((sec - hi) * 1e3);
      total.push_back(sec);
    }
    std::sort(rtt.begin(), rtt.end());
    std::sort(straggle.begin(), straggle.end());
    put("cluster.shard_rtt_ms.p50", percentile(rtt, 50));
    put("cluster.shard_rtt_ms.p99", percentile(rtt, 99));
    put("cluster.straggler_ms.p50", percentile(straggle, 50));
    put("cluster.straggler_ms.p99", percentile(straggle, 99));
    put("cluster.fanout_overhead_ms", median(overhead));
    wire_seconds_["coordinator"] = median(total);
    shards.clear();
    for (std::size_t i = 0; i < 4; ++i)
      std::remove((dir_ + "/trace_shard." + std::to_string(i) + ".fsqdb").c_str());
  }

  // --- the waterfall -----------------------------------------------------
  void waterfall() {
    auto layer = tr_.span("layer.waterfall");
    const Entry& q = models_[query_];
    Profiles p(q.model);
    const Sample& s = byte_sample_;
    const double sample_cells = p.prof.length() * s.residues;
    cpu::MsvFilter filter(p.msv);
    const double t_kernel = timed(tr_, "waterfall.kernel", 3, sample_cells, [&] {
      for (std::size_t i = 0; i < s.lengths.size(); ++i)
        filter.score(s.packed[i], s.lengths[i]);
    });
    pipeline::BatchScanner bs(p.msv, p.vit, &p.fwd, 1);
    const double t_scanner =
        timed(tr_, "waterfall.batch_scanner", 3, sample_cells, [&] {
          for (std::size_t i = 0; i < s.lengths.size(); ++i)
            bs.msv(0, s.packed[i], s.lengths[i]);
        });
    const double cells = query_cells(src_residues());
    pipeline::HmmSearch search(q.model, q.stats);
    const pipeline::ScanSource src(*engine_db_);
    const double t_engine = timed(tr_, "waterfall.engine", 3, cells,
                                  [&] { search.run_cpu(src); });
    ThreadPool pool(kThreads - 1);
    const double t_engine4 = timed(tr_, "waterfall.engine4", 3, cells, [&] {
      pipeline::HmmSearch::run_cpu_coalesced({&search}, src, pool);
    });
    struct Row {
      const char* name;
      std::size_t threads;
      double cells_per_s;
    };
    const Row rows[] = {
        {"kernel (MsvFilter)", 1, sample_cells / t_kernel},
        {"BatchScanner::msv", 1, sample_cells / t_scanner},
        {"engine run_cpu", 1, cells / t_engine},
        {"engine run_cpu_coalesced", kThreads, cells / t_engine4},
        {"server sweep (in-process)", kThreads, cells / wire_seconds_["sweep"]},
        {"loopback wire", kThreads, cells / wire_seconds_["loopback"]},
        {"TCP", kThreads, cells / wire_seconds_["tcp"]},
        {"coordinator merge (4 shards)", 4, cells / wire_seconds_["coordinator"]},
    };
    std::printf("layer waterfall: query %s (M=%d), %zu residues, tier %s\n",
                q.model.name().c_str(), q.model.length(),
                engine_db_->total_residues(),
                cpu::simd_tier_name(cpu::active_simd_tier()));
    std::printf("%-30s %7s %14s %22s\n", "row", "threads", "cells/s",
                "overhead vs row below");
    for (std::size_t i = 0; i < std::size(rows); ++i) {
      char over[32] = "-";
      if (i > 0)
        std::snprintf(over, sizeof over, "%+.1f%%",
                      100.0 * (rows[i - 1].cells_per_s / rows[i].cells_per_s -
                               1.0));
      std::printf("%-30s %7zu %14.4g %22s\n", rows[i].name, rows[i].threads,
                  rows[i].cells_per_s, over);
    }
    std::printf("self time per span (s):\n");
    for (const auto& [name, sec] : tr_.self_seconds())
      std::printf("  %-36s %10.6f\n", name.c_str(), sec);
  }

  std::string json() const {
    std::ostringstream os;
    os.precision(10);
    os << "{\"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    bool first = true;
    for (const auto& [k, v] : metrics_) {
      os << (first ? "" : ", ") << "\"" << k << "\": " << v;
      first = false;
    }
    os << "}}";
    return os.str();
  }

  const Workload w_;
  const std::string dir_;
  const std::uint64_t seed_;
  Tracer tr_;
  std::vector<Entry> models_;
  std::size_t query_ = 0;
  std::optional<bio::MappedSeqDb> engine_db_;
  Sample byte_sample_, word_sample_;
  hmm::FusePlan plan_;
  std::vector<std::uint8_t> blob_, ref_;
  pipeline::SearchResult serial_;
  std::map<std::string, double> kernel_rate_;
  std::map<std::string, double> wire_seconds_;
  std::map<std::string, double> metrics_;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

}  // namespace

std::string run_layers(Workload w, const std::string& dir, std::uint64_t seed,
                       const std::string& trace_path) {
  return Run(w, dir, seed).go(trace_path);
}

}  // namespace perfbench
