// Log-space arithmetic for the Forward/Backward algorithms.
//
// HMMER 3.0 computes Forward scores as total log-likelihood ratios; the
// inner loop needs log(exp(a) + exp(b)) ("logsum").  Like HMMER's
// p7_FLogsum, we provide a table-driven approximation (fast, ~1e-3 nat
// accuracy) alongside an exact version used by reference code and tests.
#pragma once

#include <cmath>
#include <limits>

namespace finehmm {

/// -infinity stand-in for impossible states in log space.
inline constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/// Exact log(exp(a) + exp(b)); safe for -inf arguments.
inline float logsum_exact(float a, float b) {
  if (a == kNegInf) return b;
  if (b == kNegInf) return a;
  float hi = a > b ? a : b;
  float lo = a > b ? b : a;
  return hi + std::log1p(std::exp(lo - hi));
}

/// Table-driven logsum, HMMER-style.
///
/// log(exp(a)+exp(b)) = max + log(1 + exp(-(max-min))); the correction term
/// is tabulated on [0, kTableWidth) nats.  Beyond the table width the
/// correction is below float resolution.
class LogSumTable {
 public:
  static constexpr float kTableWidth = 23.0f;  // exp(-23) ~ 1e-10
  static constexpr int kTableSize = 16000;
  /// Table slots per nat: |a - b| indexes the table at
  /// static_cast<int>(|a - b| * kScale).
  static constexpr float kScale = kTableSize / kTableWidth;

  LogSumTable();

  float operator()(float a, float b) const {
    if (a == kNegInf) return b;
    if (b == kNegInf) return a;
    float d = a - b;
    float hi = d >= 0.0f ? a : b;
    float ad = d >= 0.0f ? d : -d;
    if (ad >= kTableWidth) return hi;
    return hi + table_[static_cast<int>(ad * kScale)];
  }

  /// The kTableSize correction terms, read-only (the lanes-as-samples
  /// Forward gathers from them with the index operator() computes).
  const float* data() const noexcept { return table_; }

  /// Process-wide instance (construction is cheap and thread-safe).
  static const LogSumTable& instance();

 private:
  float table_[kTableSize];
};

/// Convenience wrapper over the shared table.
inline float logsum(float a, float b) { return LogSumTable::instance()(a, b); }

}  // namespace finehmm
