#include "inputs.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "bio/seq_db_io.hpp"
#include "bio/synthetic.hpp"
#include "hmm/generator.hpp"
#include "hmm/hmm_io.hpp"
#include "hmm/model_db.hpp"
#include "hmm/sampler.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/report.hpp"
#include "server/protocol.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "verify.hpp"

namespace perfbench {

using namespace finehmm;

namespace {

struct Shape {
  std::size_t n_sequences;
  /// Planted homologs per model.
  std::size_t homologs_per_model;
};

// Database sizes from the workload table in README.md.
constexpr Shape kSwissprot{45956, 46};   // scale 0.1, ~17M residues
constexpr Shape kPfamDb{2280, 2};        // ~0.85M residues, ~5% homologs
constexpr int kPaperSizes[] = {48, 100, 200, 400, 800, 1002};
constexpr std::size_t kPfamModels = 64;
// hmmscan_pfam's library is the same for every seed, as a user's Pfam is.
// Drawn per seed, the models' parameters moved the time of a SCAN by
// about 13% between two seeds run back to back: work, not content.  The
// seed moves the database and where the homologs sit.
constexpr std::uint64_t kLibrarySeed = 27;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Run fn(i) for i in [0, n) on up to kThreads threads.
template <class Fn>
void parallel(std::size_t n, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> crew;
  const std::size_t k = std::min(kThreads, n);
  std::exception_ptr err;
  std::atomic<bool> failed{false};
  for (std::size_t t = 0; t < k; ++t)
    crew.emplace_back([&] {
      for (std::size_t i; (i = next++) < n;) {
        try {
          fn(i);
        } catch (...) {
          if (!failed.exchange(true)) err = std::current_exception();
        }
      }
    });
  for (std::thread& t : crew) t.join();
  if (err) std::rethrow_exception(err);
}

/// Standard normal quantile by bisection on erfc (inputs only; not hot).
double normal_quantile(double u) {
  double lo = -9.0, hi = 9.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    (0.5 * std::erfc(-mid / std::sqrt(2.0)) < u ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

/// A Swissprot-like database whose lengths are the log-normal length
/// model's quantiles at (i + 0.5) / n, shuffled: every seed gets the same
/// lengths and residue total, so the seed moves which residues and which
/// order, not how much work.
bio::SequenceDatabase make_db(const Shape& shape, std::uint64_t seed) {
  const bio::SyntheticDbSpec spec = bio::SyntheticDbSpec::swissprot_like(0.1);
  Pcg32 rng(seed);
  const std::size_t n = shape.n_sequences;
  std::vector<std::size_t> lengths(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    const double len = std::exp(spec.log_length_mu +
                                spec.log_length_sigma * normal_quantile(u));
    lengths[i] = std::clamp(static_cast<std::size_t>(std::lround(len)),
                            spec.min_length, spec.max_length);
  }
  for (std::size_t i = n; i > 1; --i)
    std::swap(lengths[i - 1], lengths[rng.below(static_cast<std::uint32_t>(i))]);
  bio::SequenceDatabase db;
  db.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    db.add(bio::random_sequence(lengths[i], rng, "seq" + std::to_string(i)));
  return db;
}

/// Replace `per_model` distinct slots per model with homologs sampled
/// from it, named after the model so hits are easy to read.
void plant(bio::SequenceDatabase& db,
           const std::vector<hmm::Plan7Hmm>& models, std::size_t per_model,
           std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<bool> used(db.size(), false);
  for (std::size_t r = 0; r < per_model; ++r)
    for (const hmm::Plan7Hmm& m : models) {
      std::size_t slot;
      do {
        slot = rng.below(static_cast<std::uint32_t>(db.size()));
      } while (used[slot]);
      used[slot] = true;
      db.replace(slot, hmm::sample_homolog(
                           m, rng, {},
                           "hom_" + m.name() + "_" + std::to_string(r)));
    }
}

std::vector<hmm::Plan7Hmm> make_models(const std::vector<int>& lengths,
                                       const std::string& prefix,
                                       std::uint64_t seed) {
  std::vector<hmm::Plan7Hmm> out;
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    hmm::RandomHmmSpec spec;
    spec.length = lengths[i];
    spec.seed = mix(seed, i);
    hmm::Plan7Hmm m = hmm::generate_hmm(spec);
    char name[32];
    std::snprintf(name, sizeof name, "%s%02zu_m%d", prefix.c_str(), i,
                  lengths[i]);
    m.set_name(name);
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::kHmmsearchSwissprot, Workload::kHmmscanPfam})
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kHmmsearchSwissprot: return "hmmsearch_swissprot";
    case Workload::kHmmscanPfam: return "hmmscan_pfam";
  }
  return "?";
}

std::vector<int> pfam_lengths(std::size_t n) {
  std::vector<int> out;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    int len;
    if (u < 0.845)
      len = 30 + static_cast<int>(u / 0.845 * 371.0);
    else if (u < 0.989)
      len = 401 + static_cast<int>((u - 0.845) / 0.144 * 600.0);
    else
      len = 1001 + static_cast<int>((u - 0.989) / 0.011 * 1405.0);
    out.push_back(len);
  }
  return out;
}

Inputs generate_inputs(Workload w, std::uint64_t seed) {
  Inputs in;
  in.workload = w;
  switch (w) {
    case Workload::kHmmsearchSwissprot: {
      for (std::size_t i = 0; i < std::size(kPaperSizes); ++i) {
        hmm::RandomHmmSpec spec;
        spec.length = kPaperSizes[i];
        spec.seed = mix(seed, 100 + i);
        in.models.push_back(hmm::generate_hmm(spec));
        char name[16];
        std::snprintf(name, sizeof name, "q%d", kPaperSizes[i]);
        in.models.back().set_name(name);
      }
      in.db = make_db(kSwissprot, mix(seed, 1));
      plant(in.db, in.models, kSwissprot.homologs_per_model, mix(seed, 2));
      break;
    }
    case Workload::kHmmscanPfam: {
      in.models = make_models(pfam_lengths(kPfamModels), "pf", kLibrarySeed);
      in.db = make_db(kPfamDb, mix(seed, 1));
      plant(in.db, in.models, kPfamDb.homologs_per_model, mix(seed, 2));
      break;
    }
  }
  return in;
}

ModelList read_model_list(const std::string& dir) {
  std::ifstream is(dir + "/models.txt");
  ModelList l;
  std::string tag;
  if (!(is >> tag >> l.db_sequences >> l.db_residues) || tag != "db")
    throw IoError("malformed " + dir + "/models.txt");
  std::string name;
  int length = 0;
  while (is >> name >> length) {
    l.names.push_back(name);
    l.lengths.push_back(length);
  }
  if (l.names.empty()) throw IoError("no models in " + dir + "/models.txt");
  return l;
}

SetupTimes write_inputs(const Inputs& in, const std::string& dir) {
  SetupTimes times;
  Timer t;
  bio::write_seq_db_file(dir + "/db.fsqdb", in.db);
  times.db_s = t.seconds();
  t.reset();
  // Longest models first, so the longest calibration never starts last.
  std::vector<std::size_t> order(in.models.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return in.models[a].length() > in.models[b].length();
  });
  std::vector<stats::ModelStats> st(in.models.size());
  parallel(order.size(), [&](std::size_t k) {
    const std::size_t i = order[k];
    st[i] = pipeline::HmmSearch(in.models[i]).model_stats();
  });
  times.calibrate_s = t.seconds();
  t.reset();
  switch (in.workload) {
    case Workload::kHmmsearchSwissprot:
      for (std::size_t i = 0; i < in.models.size(); ++i)
        hmm::write_hmm_file(dir + "/" + in.models[i].name() + ".hmm",
                            in.models[i], &st[i]);
      break;
    case Workload::kHmmscanPfam: {
      std::vector<hmm::ModelEntry> lib;
      for (std::size_t i = 0; i < in.models.size(); ++i)
        lib.push_back({in.models[i], st[i]});
      hmm::write_model_db_file(dir + "/lib.fhpdb", lib);
      break;
    }
  }
  std::ofstream list(dir + "/models.txt");
  list << "db " << in.db.size() << " " << in.db.total_residues() << "\n";
  for (const hmm::Plan7Hmm& m : in.models)
    list << m.name() << " " << m.length() << "\n";
  if (!list.good()) throw IoError("cannot write " + dir + "/models.txt");
  times.models_s = t.seconds();
  return times;
}

void write_references(const Inputs& in, const std::string& dir) {
  const bio::MappedSeqDb db(dir + "/db.fsqdb");
  const std::size_t n = in.models.size();
  switch (in.workload) {
    case Workload::kHmmsearchSwissprot:
      parallel(n, [&](std::size_t i) {
        const std::string base = dir + "/" + in.models[i].name();
        std::optional<stats::ModelStats> st;
        const hmm::Plan7Hmm model = hmm::read_hmm_file(base + ".hmm", &st);
        if (!st) throw Error(base + ".hmm lost its STATS lines");
        const pipeline::HmmSearch search(model, *st);
        std::ostringstream tbl;
        pipeline::write_tblout(tbl, search.run_cpu(db), search.profile(), db);
        const std::string s = tbl.str();
        write_file(base + ".ref", {s.begin(), s.end()});
      });
      break;
    case Workload::kHmmscanPfam: {
      const std::vector<hmm::ModelEntry> lib =
          hmm::read_model_db_file(dir + "/lib.fhpdb");
      server::ScanResultWire ref;
      ref.db_sequences = db.size();
      ref.db_residues = db.total_residues();
      ref.models.resize(lib.size());
      parallel(lib.size(), [&](std::size_t i) {
        const pipeline::HmmSearch search(lib[i].model, *lib[i].model_stats);
        ref.models[i].model_name = lib[i].model.name();
        ref.models[i].hits = search.run_cpu(db).hits;
      });
      write_file(dir + "/scan.ref", normalized_scan(std::move(ref)));
      break;
    }
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw IoError("cannot open " + path);
  return {std::istreambuf_iterator<char>(is), {}};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream os(path, std::ios::binary);
  os.write(reinterpret_cast<const char*>(b.data()),
           static_cast<std::streamsize>(b.size()));
  if (!os.good()) throw IoError("cannot write " + path);
}

}  // namespace perfbench
