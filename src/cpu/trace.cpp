#include "cpu/trace.hpp"

#include <algorithm>
#include <cctype>
#include <vector>

#include "cpu/simd_backend/backend.hpp"
#include "util/error.hpp"
#include "util/logspace.hpp"

namespace finehmm::cpu {

namespace {

using hmm::kPTBM;
using hmm::kPTDD;
using hmm::kPTDM;
using hmm::kPTII;
using hmm::kPTIM;
using hmm::kPTMD;
using hmm::kPTMI;
using hmm::kPTMM;

float add(float a, float b) {
  if (a == kNegInf || b == kNegInf) return kNegInf;
  return a + b;
}

/// Consensus residue of model column k, uppercase when strongly conserved.
char consensus_char(const hmm::SearchProfile& prof, int k) {
  int best = 0;
  for (int a = 1; a < bio::kK; ++a)
    if (prof.msc(k, a) > prof.msc(k, best)) best = a;
  char c = bio::kCanonical[best];
  return prof.msc(k, best) > 1.0f ? c
                                  : static_cast<char>(std::tolower(c));
}

/// Core-state backpointers held in three (L+1)*(M+1) matrices; mp/ip/dp
/// read the match predecessor, insert choice and delete choice of a cell.
struct SplitPointers {
  const std::uint8_t* bm;
  const std::uint8_t* bi;
  const std::uint8_t* bd;
  std::size_t stride;  // M+1
  std::size_t at(std::size_t i, int k) const {
    return i * stride + static_cast<std::size_t>(k);
  }
  std::uint8_t mp(std::size_t i, int k) const { return bm[at(i, k)]; }
  std::uint8_t ip(std::size_t i, int k) const { return bi[at(i, k)]; }
  std::uint8_t dp(std::size_t i, int k) const { return bd[at(i, k)]; }
};

/// The trace kernel's backpointers: one nibble per cell in striped order
/// (simd_kernels::TraceScratch), so cell k of row i sits at slot
/// ((k-1)%Q)*N + (k-1)/Q of a row of Q*N/2 bytes — the match
/// predecessor in bits 0-1, the insert choice in bit 2, the delete choice
/// in bit 3.  A sixth of the memory of SplitPointers.
struct StripedPointers {
  const std::uint8_t* bp;
  int Q;
  int N;
  unsigned cell(std::size_t i, int k) const {
    const std::size_t slot =
        static_cast<std::size_t>((k - 1) % Q) * static_cast<std::size_t>(N) +
        static_cast<std::size_t>((k - 1) / Q);
    const std::size_t row_bytes =
        static_cast<std::size_t>(Q) * static_cast<std::size_t>(N) / 2;
    const std::uint8_t b = bp[i * row_bytes + slot / 2];
    return (slot & 1) ? b >> 4 : b & 0xFu;
  }
  std::uint8_t mp(std::size_t i, int k) const { return cell(i, k) & 3; }
  std::uint8_t ip(std::size_t i, int k) const { return (cell(i, k) >> 2) & 1; }
  std::uint8_t dp(std::size_t i, int k) const { return (cell(i, k) >> 3) & 1; }
};

/// Recover the state path from the filled backpointers.  Only
/// backpointers along the optimal path are read, and a finite score
/// guarantees every one of those was written by the DP.
template <class Pointers>
ViterbiTrace backtrace(float score, std::size_t L, Pointers bk, const int* be,
                       const std::uint8_t* bj, const std::uint8_t* bc,
                       const std::uint8_t* bb) {
  ViterbiTrace trace;
  trace.score = score;
  if (trace.score == kNegInf) return trace;  // no path (degenerate input)

  // Emits steps in reverse, flipped at the end.
  std::vector<TraceStep> rev;
  enum class St { kC, kE, kM, kI, kD, kJ, kB, kN };
  St st = St::kC;
  std::size_t i = L;
  int k = 0;
  for (;;) {
    switch (st) {
      case St::kC:
        if (bc[i] == 0) {
          rev.push_back({TraceState::kC, 0, i});  // C emitted residue i
          --i;
        } else {
          rev.push_back({TraceState::kC, 0, 0});
          st = St::kE;
        }
        break;
      case St::kE:
        rev.push_back({TraceState::kE, 0, 0});
        k = be[i];
        st = St::kM;
        break;
      case St::kM: {
        rev.push_back({TraceState::kM, k, i});
        std::uint8_t p = bk.mp(i, k);
        --i;
        if (p == 0) {
          st = St::kB;
        } else if (p == 1) {
          --k;
          st = St::kM;
        } else if (p == 2) {
          --k;
          st = St::kI;
        } else {
          --k;
          st = St::kD;
        }
        break;
      }
      case St::kI: {
        rev.push_back({TraceState::kI, k, i});
        std::uint8_t p = bk.ip(i, k);
        --i;
        st = p == 0 ? St::kM : St::kI;
        break;
      }
      case St::kD: {
        rev.push_back({TraceState::kD, k, 0});
        std::uint8_t p = bk.dp(i, k);
        --k;
        st = p == 0 ? St::kM : St::kD;
        break;
      }
      case St::kB:
        rev.push_back({TraceState::kB, 0, 0});
        st = bb[i] == 0 ? St::kN : St::kJ;
        break;
      case St::kJ:
        if (bj[i] == 0) {
          rev.push_back({TraceState::kJ, 0, i});
          --i;
        } else {
          rev.push_back({TraceState::kJ, 0, 0});
          st = St::kE;
        }
        break;
      case St::kN:
        if (i == 0) {
          rev.push_back({TraceState::kN, 0, 0});
          std::reverse(rev.begin(), rev.end());
          trace.steps = std::move(rev);
          return trace;
        }
        rev.push_back({TraceState::kN, 0, i});
        --i;
        break;
    }
  }
}

}  // namespace

ViterbiTrace viterbi_trace(const hmm::SearchProfile& prof,
                           const std::uint8_t* seq, std::size_t L) {
  FH_REQUIRE(L >= 1, "cannot trace an empty sequence");
  const int M = prof.length();
  const auto xs = prof.xsc_for(static_cast<int>(L));

  // DP values: two rolling rows; backpointers: full matrices (they are
  // what the traceback needs).
  std::vector<float> pm(M + 1, kNegInf), pi(M + 1, kNegInf),
      pd(M + 1, kNegInf);
  std::vector<float> cm(M + 1, kNegInf), ci(M + 1, kNegInf),
      cd(M + 1, kNegInf);
  auto at = [M](std::size_t i, int k) {
    return i * static_cast<std::size_t>(M + 1) + static_cast<std::size_t>(k);
  };
  std::vector<std::uint8_t> bm((L + 1) * (M + 1), 0);
  std::vector<std::uint8_t> bi_((L + 1) * (M + 1), 0);
  std::vector<std::uint8_t> bd((L + 1) * (M + 1), 0);
  std::vector<int> be(L + 1, 0);
  std::vector<std::uint8_t> bj(L + 1, 0), bc(L + 1, 0), bb(L + 1, 0);

  std::vector<float> vN(L + 1, kNegInf), vB(L + 1, kNegInf),
      vE(L + 1, kNegInf), vJ(L + 1, kNegInf), vC(L + 1, kNegInf);
  vN[0] = 0.0f;
  vB[0] = xs.n_move;
  bb[0] = 0;

  for (std::size_t i = 1; i <= L; ++i) {
    std::uint8_t x = seq[i - 1];
    float xE = kNegInf;
    int xEk = 0;
    cm[0] = ci[0] = cd[0] = kNegInf;
    for (int k = 1; k <= M; ++k) {
      // Match: B / M / I / D predecessors from row i-1.
      float cand[4] = {
          add(vB[i - 1], prof.tsc(k - 1, kPTBM)),
          add(pm[k - 1], prof.tsc(k - 1, kPTMM)),
          add(pi[k - 1], prof.tsc(k - 1, kPTIM)),
          add(pd[k - 1], prof.tsc(k - 1, kPTDM))};
      int best = 0;
      for (int c = 1; c < 4; ++c)
        if (cand[c] > cand[best]) best = c;
      bm[at(i, k)] = static_cast<std::uint8_t>(best);
      cm[k] = add(cand[best], prof.msc(k, x));
      float exit_score = add(cm[k], prof.esc(k));
      if (exit_score > xE) {
        xE = exit_score;
        xEk = k;
      }

      if (k < M) {
        float im = add(pm[k], prof.tsc(k, kPTMI));
        float ii = add(pi[k], prof.tsc(k, kPTII));
        bi_[at(i, k)] = im >= ii ? 0 : 1;
        ci[k] = std::max(im, ii);
      } else {
        ci[k] = kNegInf;
      }
      if (k >= 2) {
        float dm = add(cm[k - 1], prof.tsc(k - 1, kPTMD));
        float dd = add(cd[k - 1], prof.tsc(k - 1, kPTDD));
        bd[at(i, k)] = dm >= dd ? 0 : 1;
        cd[k] = std::max(dm, dd);
      } else {
        cd[k] = kNegInf;
      }
    }
    vE[i] = xE;
    be[i] = xEk;

    float j_loop = add(vJ[i - 1], xs.j_loop);
    float j_new = add(xE, xs.e_j);
    bj[i] = j_loop >= j_new ? 0 : 1;
    vJ[i] = std::max(j_loop, j_new);

    float c_loop = add(vC[i - 1], xs.c_loop);
    float c_new = add(xE, xs.e_c);
    bc[i] = c_loop >= c_new ? 0 : 1;
    vC[i] = std::max(c_loop, c_new);

    vN[i] = add(vN[i - 1], xs.n_loop);
    float b_n = add(vN[i], xs.n_move);
    float b_j = add(vJ[i], xs.j_move);
    bb[i] = b_n >= b_j ? 0 : 1;
    vB[i] = std::max(b_n, b_j);

    pm.swap(cm);
    pi.swap(ci);
    pd.swap(cd);
  }

  return backtrace(add(vC[L], xs.c_move), L,
                   SplitPointers{bm.data(), bi_.data(), bd.data(),
                                 static_cast<std::size_t>(M + 1)},
                   be.data(), bj.data(), bc.data(), bb.data());
}

TraceStripes::TraceStripes(const hmm::SearchProfile& prof, SimdTier tier)
    : prof_(prof), ops_(&backend::tier_kernels(resolve_simd_tier(tier))) {
  using namespace simd_kernels;
  const int M = prof.length();
  const int N = ops_->f32_lanes;
  Q_ = (M + N - 1) / N;
  const std::size_t n = static_cast<std::size_t>(Q_) * N;
  params_.assign(static_cast<std::size_t>(bio::kKp + kTraceTransitions) * n,
                 kNegInf);
  float* tsc = params_.data() + static_cast<std::size_t>(bio::kKp) * n;
  for (int k = 1; k <= M; ++k) {
    const int q = (k - 1) % Q_;
    const int j = (k - 1) / Q_;
    const std::size_t slot = static_cast<std::size_t>(q) * N + j;
    for (int x = 0; x < bio::kKp; ++x)
      params_[static_cast<std::size_t>(x) * n + slot] = prof.msc(k, x);
    auto t = [&](int r) -> float& {
      return tsc[(static_cast<std::size_t>(q) * kTraceTransitions + r) * N +
                 j];
    };
    t(kTraceBM) = prof.tsc(k - 1, kPTBM);
    t(kTraceMM) = prof.tsc(k - 1, kPTMM);
    t(kTraceIM) = prof.tsc(k - 1, kPTIM);
    t(kTraceDM) = prof.tsc(k - 1, kPTDM);
    if (k < M) {  // no I state at k = M
      t(kTraceMI) = prof.tsc(k, kPTMI);
      t(kTraceII) = prof.tsc(k, kPTII);
    }
    if (k >= 2) {  // no D state at k = 1
      t(kTraceMD) = prof.tsc(k - 1, kPTMD);
      t(kTraceDD) = prof.tsc(k - 1, kPTDD);
    }
    t(kTraceME) = prof.esc(k);
  }
}

SimdTier TraceStripes::tier() const noexcept { return ops_->tier; }

simd_kernels::TraceStripesView TraceStripes::view() const {
  simd_kernels::TraceStripesView view;
  view.msc = params_.data();
  view.tsc = view.msc + static_cast<std::size_t>(bio::kKp) * Q_ *
                            static_cast<std::size_t>(ops_->f32_lanes);
  view.Q = Q_;
  return view;
}

void TraceWorkspace::reserve(std::size_t row_floats, std::size_t L) {
  const std::size_t packed = (L + 1) * (row_floats / 2);
  if (rows_.size() < 3 * row_floats) rows_.resize(3 * row_floats);
  if (bp_.size() < packed) bp_.resize(packed);
  if (be_.size() < L + 1) {
    be_.resize(L + 1);
    bj_.resize(L + 1);
    bc_.resize(L + 1);
    bb_.resize(L + 1);
  }
}

ViterbiTrace viterbi_trace(const TraceStripes& stripes,
                           const std::uint8_t* seq, std::size_t L,
                           TraceWorkspace& ws) {
  FH_REQUIRE(L >= 1, "cannot trace an empty sequence");
  const int N = stripes.ops_->f32_lanes;
  const std::size_t n = static_cast<std::size_t>(stripes.Q_) * N;
  ws.reserve(n, L);

  simd_kernels::TraceScratch scratch;
  scratch.mmx = ws.rows_.data();
  scratch.imx = scratch.mmx + n;
  scratch.dmx = scratch.imx + n;
  scratch.bp = ws.bp_.data();
  scratch.be = ws.be_.data();
  scratch.bj = ws.bj_.data();
  scratch.bc = ws.bc_.data();
  scratch.bb = ws.bb_.data();

  const float score = stripes.ops_->trace(
      stripes.view(), stripes.prof_.xsc_for(static_cast<int>(L)), seq, L, scratch);
  return backtrace(score, L, StripedPointers{scratch.bp, stripes.Q_, N},
                   scratch.be, scratch.bj, scratch.bc, scratch.bb);
}

ViterbiTrace viterbi_trace(const hmm::SearchProfile& prof,
                           const std::uint8_t* seq, std::size_t L,
                           TraceWorkspace& ws) {
  return viterbi_trace(TraceStripes(prof), seq, L, ws);
}

std::vector<Alignment> trace_alignments(const ViterbiTrace& trace,
                                        const hmm::SearchProfile& prof,
                                        const std::uint8_t* seq) {
  std::vector<Alignment> out;
  Alignment cur;
  bool in_segment = false;
  for (const auto& step : trace.steps) {
    switch (step.state) {
      case TraceState::kM: {
        if (!in_segment) break;
        if (cur.k_start == 0) cur.k_start = step.k;
        cur.k_end = step.k;
        if (cur.i_start == 0) cur.i_start = step.i;
        cur.i_end = step.i;
        char cons = consensus_char(prof, step.k);
        char res = bio::symbol(seq[step.i - 1]);
        cur.model_line.push_back(cons);
        cur.seq_line.push_back(res);
        float sc = prof.msc(step.k, seq[step.i - 1]);
        if (std::toupper(cons) == res)
          cur.match_line.push_back(res);
        else
          cur.match_line.push_back(sc > 0.0f ? '+' : ' ');
        break;
      }
      case TraceState::kI:
        if (!in_segment) break;
        cur.model_line.push_back('.');
        cur.match_line.push_back(' ');
        cur.seq_line.push_back(static_cast<char>(
            std::tolower(bio::symbol(seq[step.i - 1]))));
        cur.i_end = step.i;
        break;
      case TraceState::kD:
        if (!in_segment) break;
        cur.model_line.push_back(consensus_char(prof, step.k));
        cur.match_line.push_back(' ');
        cur.seq_line.push_back('-');
        cur.k_end = step.k;
        break;
      case TraceState::kB:
        in_segment = true;
        cur = Alignment{};
        break;
      case TraceState::kE:
        if (in_segment && !cur.model_line.empty()) out.push_back(cur);
        in_segment = false;
        break;
      default:
        break;
    }
  }
  return out;
}

float trace_score(const ViterbiTrace& trace, const hmm::SearchProfile& prof,
                  const std::uint8_t* seq, std::size_t L) {
  const auto xs = prof.xsc_for(static_cast<int>(L));
  float score = 0.0f;
  for (std::size_t s = 1; s < trace.steps.size(); ++s) {
    const auto& prev = trace.steps[s - 1];
    const auto& cur = trace.steps[s];
    float t = kNegInf;
    switch (prev.state) {
      case TraceState::kN:
        t = cur.state == TraceState::kN ? xs.n_loop : xs.n_move;
        break;
      case TraceState::kB:
        t = prof.tsc(cur.k - 1, kPTBM);
        break;
      case TraceState::kM:
        if (cur.state == TraceState::kM)
          t = prof.tsc(prev.k, kPTMM);
        else if (cur.state == TraceState::kI)
          t = prof.tsc(prev.k, kPTMI);
        else if (cur.state == TraceState::kD)
          t = prof.tsc(prev.k, kPTMD);
        else  // E: exit score (0 in local mode, delete path in glocal)
          t = prof.esc(prev.k);
        break;
      case TraceState::kI:
        t = cur.state == TraceState::kM ? prof.tsc(prev.k, kPTIM)
                                        : prof.tsc(prev.k, kPTII);
        break;
      case TraceState::kD:
        t = cur.state == TraceState::kM ? prof.tsc(prev.k, kPTDM)
                                        : prof.tsc(prev.k, kPTDD);
        break;
      case TraceState::kE:
        t = cur.state == TraceState::kC ? xs.e_c : xs.e_j;
        break;
      case TraceState::kJ:
        t = cur.state == TraceState::kJ ? xs.j_loop : xs.j_move;
        break;
      case TraceState::kC:
        t = xs.c_loop;  // C self-loop (emitting)
        break;
    }
    score = add(score, t);
    if (cur.state == TraceState::kM)
      score = add(score, prof.msc(cur.k, seq[cur.i - 1]));
  }
  return add(score, xs.c_move);  // final C -> T
}

}  // namespace finehmm::cpu
