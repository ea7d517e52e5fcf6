// finehmm_perf — the benchmark's helper program; run.py drives it.
//
//   finehmm_perf stamp
//       Print the host and build stamp as JSON; exit 1 (with the reason)
//       when this is not a program worth measuring.
//   finehmm_perf prepare --workload W --seed N --dir D --repeat K
//       Generate the workload's inputs, run the timed set-up K times,
//       then write the serial-engine references.  Prints timings as JSON.
//   finehmm_perf ping --port P
//       PING finehmmd on 127.0.0.1:P until it answers (exit 1 after 60 s).
//   finehmm_perf load --workload hmmscan_pfam --dir D --port P
//                     --seconds S --limit-ms L
//       SCAN a running finehmmd back to back and verify every reply.
//       Prints the load report as JSON.
//   finehmm_perf layers --workload W --dir D --seed N --trace-out F
//       The traced per-layer run (layers.hpp).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cpu/simd_backend/simd_tier.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "load.hpp"
#include "util/timer.hpp"

using namespace finehmm;
using namespace perfbench;

namespace {

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  for (std::string line; std::getline(is, line);)
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

/// Why this build or environment must not be measured, or "".
std::string refusal() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release") return "build type is '" + type + "', not Release";
#ifndef NDEBUG
  return "NDEBUG is not defined";
#endif
#if defined(FINEHMM_CHECKS_ENABLED) && FINEHMM_CHECKS_ENABLED
  return "built with FINEHMM_CHECKS";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "built with a sanitizer";
#endif
#endif
  for (const char* var : {"FINEHMM_SIMD", "FINEHMM_FUSE", "FINEHMM_OBS"})
    if (std::getenv(var) != nullptr)
      return std::string(var) + " is set: it changes the program measured";
  return "";
}

int stamp() {
  const std::string why = refusal();
  std::printf(
      "{\"cpu\": \"%s\", \"nproc\": %u, \"simd_tier\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"refusal\": \"%s\"}\n",
      cpu_model().c_str(), std::thread::hardware_concurrency(),
      cpu::simd_tier_name(cpu::active_simd_tier()), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, why.c_str());
  return why.empty() ? 0 : 1;
}

/// --key value pairs; every key a command reads is required.
struct Args {
  std::map<std::string, std::string> kv;
  std::string get(const std::string& k) const {
    auto it = kv.find(k);
    if (it == kv.end()) throw Error("missing --" + k);
    return it->second;
  }
  double num(const std::string& k) const { return std::atof(get(k).c_str()); }
};

Args parse(int argc, char** argv, int from) {
  Args a;
  for (int i = from; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0) throw Error("unexpected argument " + k);
    a.kv[k.substr(2)] = argv[i + 1];
  }
  if ((argc - from) % 2 != 0) throw Error("option without a value");
  return a;
}

Workload workload_arg(const Args& a) {
  const auto w = parse_workload(a.get("workload"));
  if (!w) throw Error("unknown --workload '" + a.get("workload") + "'");
  return *w;
}

int prepare(const Args& a) {
  const Workload w = workload_arg(a);
  const std::string dir = a.get("dir");
  const auto seed = static_cast<std::uint64_t>(a.num("seed"));
  const int repeat = std::max(1, static_cast<int>(a.num("repeat")));
  Timer t;
  const Inputs in = generate_inputs(w, seed);
  const double gen = t.seconds();
  std::vector<SetupTimes> setup;
  for (int r = 0; r < repeat; ++r) setup.push_back(write_inputs(in, dir));
  t.reset();
  write_references(in, dir);
  const double ref = t.seconds();
  std::printf("{\"generate_s\": %.6f, \"reference_s\": %.6f", gen, ref);
  const std::pair<const char*, double SetupTimes::*> steps[] = {
      {"db_s", &SetupTimes::db_s},
      {"calibrate_s", &SetupTimes::calibrate_s},
      {"models_s", &SetupTimes::models_s}};
  for (const auto& [key, field] : steps) {
    std::printf(", \"%s\": [", key);
    for (std::size_t i = 0; i < setup.size(); ++i)
      std::printf("%s%.6f", i ? ", " : "", setup[i].*field);
    std::printf("]");
  }
  std::printf("}\n");
  return 0;
}

int load(const Args& a) {
  if (workload_arg(a) != Workload::kHmmscanPfam)
    throw Error("load drives the SCAN workload only");
  const std::string dir = a.get("dir");
  const ModelList models = read_model_list(dir);
  ScanLoad spec;
  spec.port = static_cast<std::uint16_t>(a.num("port"));
  spec.reference = read_file(dir + "/scan.ref");
  for (int len : models.lengths)
    spec.cells += len * static_cast<double>(models.db_residues);
  spec.seconds = a.num("seconds");
  spec.limit_ms = a.num("limit-ms");
  std::printf("%s\n", to_json(run_scans(spec)).c_str());
  return 0;
}

int ping(const Args& a) {
  const auto port = static_cast<std::uint16_t>(a.num("port"));
  if (wait_for_pong(port, 60.0)) return 0;
  std::fprintf(stderr, "finehmm_perf ping: no PONG from port %u\n",
               unsigned(port));
  return 1;
}

int layers(const Args& a) {
  const std::string json =
      run_layers(workload_arg(a), a.get("dir"),
                 static_cast<std::uint64_t>(a.num("seed")),
                 a.get("trace-out"));
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: finehmm_perf stamp|prepare|ping|load|layers ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "stamp") return stamp();
    const std::string why = refusal();
    if (!why.empty()) {
      std::fprintf(stderr, "finehmm_perf: refusing to measure: %s\n",
                   why.c_str());
      return 1;
    }
    const Args a = parse(argc, argv, 2);
    if (cmd == "prepare") return prepare(a);
    if (cmd == "ping") return ping(a);
    if (cmd == "load") return load(a);
    if (cmd == "layers") return layers(a);
    std::fprintf(stderr, "finehmm_perf: unknown command '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "finehmm_perf %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
