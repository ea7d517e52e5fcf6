// Workload inputs: generation from a seed, the user-visible set-up steps
// (write, calibrate, press), and the serial-engine references every
// operation of a run is checked against.
//
// Files in a workload's directory:
//   db.fsqdb           the searched database
//   <name>.hmm         hmmsearch_swissprot queries, calibrated STATS lines
//   lib.fhpdb          hmmscan_pfam's pressed, calibrated library
//   <name>.ref         hmmsearch_swissprot's reference tblout per query
//   scan.ref           hmmscan_pfam's normalized encoded SCAN reply
//   models.txt         "db <sequences> <residues>", then "<name> <length>"
//                      per model, in file order
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bio/sequence.hpp"
#include "hmm/plan7.hpp"
#include "stats/calibrate.hpp"

namespace perfbench {

enum class Workload { kHmmsearchSwissprot, kHmmscanPfam };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// Load the benchmark generates on at most this many threads (the host's
/// four cores), set-up included.
inline constexpr std::size_t kThreads = 4;

/// A workload's inputs as generated in memory from its seed.
struct Inputs {
  Workload workload = Workload::kHmmsearchSwissprot;
  std::vector<finehmm::hmm::Plan7Hmm> models;
  finehmm::bio::SequenceDatabase db;
};

Inputs generate_inputs(Workload w, std::uint64_t seed);

/// Model lengths of the Pfam 27.0 size mix (84.5% <= 400, 14.4% in
/// 401..1000, 1.1% above): length i of n sits at the midpoint of the
/// mix's i-th n-quantile slice.  The lengths are the same for every seed,
/// so the mix of work never changes between runs.
std::vector<int> pfam_lengths(std::size_t n);

/// Seconds spent in each step of one set-up.
struct SetupTimes {
  double db_s = 0.0;         // write the database
  double calibrate_s = 0.0;  // calibrate every model
  double models_s = 0.0;     // write the .hmm files or press the library
};

/// The timed set-up a user pays: write the database, calibrate every
/// model (on kThreads threads), write the model files.
SetupTimes write_inputs(const Inputs& in, const std::string& dir);

/// Serial-engine references (HmmSearch::run_cpu), read back from the
/// files write_inputs produced so they see exactly what the programs see.
void write_references(const Inputs& in, const std::string& dir);

/// models.txt read back.
struct ModelList {
  std::uint64_t db_sequences = 0;
  std::uint64_t db_residues = 0;
  std::vector<std::string> names;
  std::vector<int> lengths;
};
ModelList read_model_list(const std::string& dir);

std::vector<std::uint8_t> read_file(const std::string& path);
void write_file(const std::string& path, const std::vector<std::uint8_t>& b);

}  // namespace perfbench
