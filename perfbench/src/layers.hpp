// The traced run: time the public entry point of each layer under src/
// from the benchmark's own code, on a workload's inputs, and print the
// per-layer metrics, the layer waterfall, and a Chrome/Perfetto trace.
#pragma once

#include <cstdint>
#include <string>

#include "inputs.hpp"

namespace perfbench {

/// Prints the waterfall table to stdout and returns the metrics as one
/// JSON object ({"name": value, ...}); writes the span trace to
/// `trace_path`.
std::string run_layers(Workload w, const std::string& dir,
                       std::uint64_t seed, const std::string& trace_path);

}  // namespace perfbench
