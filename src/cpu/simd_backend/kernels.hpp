// Width- and ISA-generic striped filter kernels.
//
// Each kernel is the single definition of its filter's inner loop,
// templated on a vector class V that supplies the lane operations via
// ADL-found friends (splat/load/store, max_u8/adds_u8/subs_u8/hmax_u8/
// any_gt_u8 for bytes; max_i16/hmax_i16/any_gt_i16 and the two Viterbi
// adds adds_trans_w (transition: plain saturating, -inf parameter gives
// -inf) and adds_emit_w (emission: also clamps at -32767) for words;
// add_f/mul_f/hsum_f/shift_lanes_down for floats, plus gt_f/select_f/
// pack_nibbles and a filled shift_lanes_up for the trace kernel and
// sub_f/ge_f/lookup_f for the lanes-as-samples Forward; shift_lanes_up
// for all).  The portable classes (cpu/simd_vec.hpp) and
// the native SSE2/AVX2/AVX-512 wrappers (vec_sse2.hpp, vec_avx2.hpp,
// vec_avx512.hpp) all satisfy the same contract, and backend.hpp's
// make_tier_row builds every tier's dispatch row from them, so every tier
// executes literally the same algorithm —
// which is what makes the bit-exactness guarantee structural rather than
// empirical.
//
// Kernels take raw striped-parameter pointers (residue x's stripe row
// lives at base + x*Q*N) and caller-owned DP row storage, so they perform
// no allocation and no layout decisions of their own.
//
// The sequence parameter is a generic accessor `Seq` read exactly once per
// row as `seq[i]`; plain `const std::uint8_t*` arrays and zero-copy
// bio::PackedResidues views instantiate the identical loop, so the packed
// (mmap) path scores bit-identically to the byte-code path.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "cpu/filter_result.hpp"
#include "hmm/profile.hpp"
#include "profile/fwd_profile.hpp"
#include "profile/msv_profile.hpp"
#include "profile/vit_profile.hpp"
#include "util/check.hpp"
#include "util/logspace.hpp"

namespace finehmm::cpu::simd_kernels {

/// The result of a byte filter whose row xE reached the overflow rail:
/// the sequence certainly passes.
inline FilterResult byte_overflow() {
  FilterResult out;
  out.score_nats = std::numeric_limits<float>::infinity();
  out.overflowed = true;
  return out;
}

/// The byte a row's xE vector must exceed in some lane before the MSV
/// row epilogue can change anything: the smaller of the xJ-update
/// threshold (a row max xE improves xJ only if xE - tec > xJ) and the
/// overflow threshold less one (the row overflows when xE >= sat, with
/// sat = 255 - bias).  A row whose lanes all stay at or below it leaves
/// xJ, xB and the overflow flag as they were.  Requires sat >= 1; sat == 0
/// overflows on the first row and is handled before the sweep.
inline std::uint8_t msv_trigger(std::uint8_t xJ, std::uint8_t tec,
                                std::uint8_t sat) {
  const unsigned up = unsigned(xJ) + tec;
  const std::uint8_t cap = std::uint8_t(sat - 1);
  return up > cap ? cap : std::uint8_t(up);
}

/// Striped MSV over N = V::kLanes byte lanes.  `rows` is the striped
/// emission table for this lane count (row of residue x at x*Q*N); `row`
/// is caller-owned scratch of Q*N bytes.
///
/// Row epilogue: xBv and the trigger vector (msv_trigger, splatted) change
/// only when xJ does, so the common row ends with one any_gt_u8 test and
/// the next row's sweep does not wait on a horizontal max and a re-splat.
/// A firing row runs the exact scalar epilogue: hmax_u8, the overflow
/// test, the xJ/xB update.
template <class V, class Seq>
FilterResult msv_kernel(const profile::MsvProfile& prof,
                        const std::uint8_t* rows, int Q, Seq seq,
                        std::size_t L, std::uint8_t* row) {
  constexpr int N = V::kLanes;
  FINEHMM_CHECK(L >= 1, "cannot score an empty sequence");
  const std::uint8_t sat = std::uint8_t(255 - prof.bias());
  if (sat == 0) return byte_overflow();  // every xE byte overflows row 1
  const V biasv = V::splat(prof.bias());
  const std::uint8_t base = prof.base();
  const std::uint8_t tbm = prof.tbm();
  const std::uint8_t tec = prof.tec();
  const std::uint8_t tjb = prof.tjb_for(static_cast<int>(L));

  std::memset(row, 0, static_cast<std::size_t>(Q) * N);

  std::uint8_t xJ = 0;
  std::uint8_t xB = base > tjb ? std::uint8_t(base - tjb) : 0;
  V xBv = V::splat(xB > tbm ? std::uint8_t(xB - tbm) : 0);
  V trigv = V::splat(msv_trigger(xJ, tec, sat));

  for (std::size_t i = 0; i < L; ++i) {
    const std::uint8_t* rbv =
        rows + static_cast<std::size_t>(seq[i]) * Q * N;
    V xEv = V::splat(0);

    // Diagonal: previous row's last stripe, lanes shifted up by one.
    V mpv = shift_lanes_up(
        V::load(row + static_cast<std::size_t>(Q - 1) * N));
    for (int q = 0; q < Q; ++q) {
      std::uint8_t* cell = row + static_cast<std::size_t>(q) * N;
      V sv = max_u8(mpv, xBv);
      sv = adds_u8(sv, biasv);
      sv = subs_u8(sv, V::load(rbv + static_cast<std::size_t>(q) * N));
      xEv = max_u8(xEv, sv);
      mpv = V::load(cell);  // previous-row value (double buffer)
      sv.store(cell);
    }
    if (!any_gt_u8(xEv, trigv)) continue;

    std::uint8_t xE = hmax_u8(xEv);
    if (prof.overflowed(xE)) return byte_overflow();
    xE = xE > tec ? std::uint8_t(xE - tec) : 0;
    FINEHMM_IF_CHECKS(const std::uint8_t prev_xJ = xJ;)
    if (xE > xJ) xJ = xE;
    // Saturation monotonicity: xJ is a running max under saturating byte
    // arithmetic, so it can never decrease across rows.
    FINEHMM_DCHECK(xJ >= prev_xJ, "MSV xJ must be monotone non-decreasing");
    xB = xJ > base ? xJ : base;
    xB = xB > tjb ? std::uint8_t(xB - tjb) : 0;
    xBv = V::splat(xB > tbm ? std::uint8_t(xB - tbm) : 0);
    trigv = V::splat(msv_trigger(xJ, tec, sat));
  }
  FilterResult out;
  out.score_nats = prof.score_from_bytes(xJ, static_cast<int>(L));
  return out;
}

/// Striped SSV (no J state) over N byte lanes; same parameter layout and
/// scratch contract as msv_kernel.  xEv is a running max over the whole
/// sequence, so the per-row overflow test is one any_gt_u8 against
/// sat - 1 and the horizontal max runs once, at the end.
template <class V, class Seq>
FilterResult ssv_kernel(const profile::MsvProfile& prof,
                        const std::uint8_t* rows, int Q, Seq seq,
                        std::size_t L, std::uint8_t* row) {
  constexpr int N = V::kLanes;
  FINEHMM_CHECK(L >= 1, "cannot score an empty sequence");
  const std::uint8_t sat = std::uint8_t(255 - prof.bias());
  if (sat == 0) return byte_overflow();  // every xE byte overflows row 1
  const V biasv = V::splat(prof.bias());
  const std::uint8_t tjb = prof.tjb_for(static_cast<int>(L));
  const std::uint8_t base_less_tjb =
      prof.base() > tjb ? std::uint8_t(prof.base() - tjb) : 0;
  const V xBv = V::splat(base_less_tjb > prof.tbm()
                             ? std::uint8_t(base_less_tjb - prof.tbm())
                             : 0);
  const V capv = V::splat(std::uint8_t(sat - 1));

  std::memset(row, 0, static_cast<std::size_t>(Q) * N);
  V xEv = V::splat(0);

  for (std::size_t i = 0; i < L; ++i) {
    const std::uint8_t* rbv =
        rows + static_cast<std::size_t>(seq[i]) * Q * N;
    V mpv = shift_lanes_up(
        V::load(row + static_cast<std::size_t>(Q - 1) * N));
    for (int q = 0; q < Q; ++q) {
      std::uint8_t* cell = row + static_cast<std::size_t>(q) * N;
      V sv = max_u8(mpv, xBv);
      sv = adds_u8(sv, biasv);
      sv = subs_u8(sv, V::load(rbv + static_cast<std::size_t>(q) * N));
      xEv = max_u8(xEv, sv);
      mpv = V::load(cell);
      sv.store(cell);
    }
    if (any_gt_u8(xEv, capv)) return byte_overflow();  // a lane hit sat
  }
  const std::uint8_t xE = hmax_u8(xEv);
  FINEHMM_DCHECK(!prof.overflowed(xE), "SSV overflow missed by any_gt_u8");
  const std::uint8_t xJ = xE > prof.tec() ? std::uint8_t(xE - prof.tec()) : 0;
  FilterResult out;
  out.score_nats = prof.score_from_bytes(xJ, static_cast<int>(L));
  return out;
}

// ---- Fused multi-model MSV/SSV (lane-partitioned groups) ---------------
//
// Several short models share one N-lane sweep: model m owns the
// contiguous lane span [lane_lo, lane_lo + lanes) and its position k
// (1-based) lives in stripe (k-1)%Q, lane lane_lo + (k-1)/Q, where Q is
// the group's shared stripe count.  Every cell not owned by a model
// carries emission cost 255, which forces it to zero each row
// (sat_sub(sat_add(x, bias), 255) == 0 for any byte x), so the lane shift
// at stripe 0 hands the next span exactly the zero a single-model run
// injects at its first lane — cell values, and therefore scores, are
// bit-identical to N independent runs (docs/multi_model.md).

/// One member of a fused group: its lane span plus the per-model byte
/// constants the scalar epilogue needs.
struct MsvGroupModel {
  std::uint8_t lane_lo = 0;  // first lane of this model's span
  std::uint8_t lanes = 0;    // lanes in the span (>= 1, includes padding)
  std::uint8_t bias = 0;
  std::uint8_t tbm = 0;
  std::uint8_t tec = 0;
  std::uint8_t base = 0;
  std::uint8_t sat = 0;  // overflow threshold: 255 - bias
};

/// Read-only view of one packed group (built by cpu::FusedMsvGroup):
/// the shared striped emission table (residue x at rows + x*Q*N), the
/// per-lane bias bytes, and the member table.
struct MsvGroupView {
  const std::uint8_t* rows = nullptr;
  const std::uint8_t* bias = nullptr;  // N per-lane bias bytes
  const MsvGroupModel* models = nullptr;
  int n_models = 0;
  int Q = 0;
};

/// Caller-owned per-sequence scratch for the group kernels.  xb/trigger/xe
/// hold N bytes each (per lane); xj/tjb/overflowed hold n_models bytes.
/// tjb must carry each member's tjb_for(L) before the call; xj and
/// overflowed are outputs the caller converts to scores.
struct MsvGroupState {
  std::uint8_t* xb = nullptr;          // per lane: sat_sub(xB_m - tbm_m)
  std::uint8_t* trigger = nullptr;     // per lane: slow-path threshold
  std::uint8_t* xe = nullptr;          // per lane: xEv spill buffer
  std::uint8_t* xj = nullptr;          // per model: running xJ byte (out)
  const std::uint8_t* tjb = nullptr;   // per model: tjb_for(L)
  std::uint8_t* overflowed = nullptr;  // per model: overflow flag (out)
};

/// Fused multi-model MSV: one N-lane sweep scores every member of the
/// group.  Each model's xJ/xB feedback is exact — a per-lane trigger byte
/// (msv_trigger, as in msv_kernel) lets the common no-change row skip the
/// scalar epilogue with one any_gt_u8, and the rare firing row replays the
/// per-model updates exactly as msv_kernel would.  `row` is Q*N bytes of
/// caller scratch.
template <class V, class Seq>
void msv_group_kernel(const MsvGroupView& g, const MsvGroupState& st,
                      Seq seq, std::size_t L, std::uint8_t* row) {
  constexpr int N = V::kLanes;
  FINEHMM_CHECK(L >= 1, "cannot score an empty sequence");
  const int Q = g.Q;

  // Per-lane init.  Lanes owned by no model keep xb=0 / trigger=255: their
  // cells are forced to zero by the 255 pad cost and can never fire.
  for (int j = 0; j < N; ++j) {
    st.xb[j] = 0;
    st.trigger[j] = 255;
  }
  for (int m = 0; m < g.n_models; ++m) {
    const MsvGroupModel& md = g.models[m];
    st.xj[m] = 0;
    // sat == 0 (bias 255) overflows a single-model run on row 1 for any
    // L >= 1; a byte trigger cannot express "always fire", so mark it now.
    st.overflowed[m] = md.sat == 0 ? 1 : 0;
    std::uint8_t xB =
        md.base > st.tjb[m] ? std::uint8_t(md.base - st.tjb[m]) : 0;
    const std::uint8_t xb = xB > md.tbm ? std::uint8_t(xB - md.tbm) : 0;
    const std::uint8_t trig =
        st.overflowed[m] ? 255 : msv_trigger(0, md.tec, md.sat);
    for (int j = 0; j < md.lanes; ++j) {
      st.xb[md.lane_lo + j] = xb;
      st.trigger[md.lane_lo + j] = trig;
    }
  }

  std::memset(row, 0, static_cast<std::size_t>(Q) * N);
  const V biasv = V::load(g.bias);
  V xBv = V::load(st.xb);
  V trigv = V::load(st.trigger);

  for (std::size_t i = 0; i < L; ++i) {
    const std::uint8_t* rbv =
        g.rows + static_cast<std::size_t>(seq[i]) * Q * N;
    V xEv = V::splat(0);
    V mpv = shift_lanes_up(
        V::load(row + static_cast<std::size_t>(Q - 1) * N));
    for (int q = 0; q < Q; ++q) {
      std::uint8_t* cell = row + static_cast<std::size_t>(q) * N;
      V sv = max_u8(mpv, xBv);
      sv = adds_u8(sv, biasv);
      sv = subs_u8(sv, V::load(rbv + static_cast<std::size_t>(q) * N));
      xEv = max_u8(xEv, sv);
      mpv = V::load(cell);
      sv.store(cell);
    }
    // Fast path: no lane beats its model's trigger, so no member can
    // improve xJ and none overflowed — every epilogue is a no-op.
    if (!any_gt_u8(xEv, trigv)) continue;

    xEv.store(st.xe);
    for (int m = 0; m < g.n_models; ++m) {
      const MsvGroupModel& md = g.models[m];
      if (st.overflowed[m]) continue;
      std::uint8_t xE = 0;
      for (int j = 0; j < md.lanes; ++j) {
        const std::uint8_t e = st.xe[md.lane_lo + j];
        if (e > xE) xE = e;
      }
      if (xE <= st.trigger[md.lane_lo]) continue;
      if (xE >= md.sat) {
        // Frozen: trigger 255 keeps the fast path quiet for this span,
        // and saturated cells cannot cross the forced-zero padding into
        // the next span's first lane.
        st.overflowed[m] = 1;
        for (int j = 0; j < md.lanes; ++j)
          st.trigger[md.lane_lo + j] = 255;
        continue;
      }
      xE = xE > md.tec ? std::uint8_t(xE - md.tec) : 0;
      FINEHMM_DCHECK(xE > st.xj[m],
                     "fused MSV trigger fired without an xJ improvement");
      st.xj[m] = xE;
      std::uint8_t xB = st.xj[m] > md.base ? st.xj[m] : md.base;
      xB = xB > st.tjb[m] ? std::uint8_t(xB - st.tjb[m]) : 0;
      const std::uint8_t xb = xB > md.tbm ? std::uint8_t(xB - md.tbm) : 0;
      const std::uint8_t trig = msv_trigger(st.xj[m], md.tec, md.sat);
      for (int j = 0; j < md.lanes; ++j) {
        st.xb[md.lane_lo + j] = xb;
        st.trigger[md.lane_lo + j] = trig;
      }
    }
    xBv = V::load(st.xb);
    trigv = V::load(st.trigger);
  }
}

/// Fused multi-model SSV: like msv_group_kernel but with the constant
/// per-model xB of the SSV recurrence and no per-row scalar work at all —
/// xEv accumulates a running per-lane max across the whole sequence, and
/// because that accumulation is monotone, the end-of-sequence segmented
/// max and overflow test are equivalent to ssv_kernel's per-row checks.
template <class V, class Seq>
void ssv_group_kernel(const MsvGroupView& g, const MsvGroupState& st,
                      Seq seq, std::size_t L, std::uint8_t* row) {
  constexpr int N = V::kLanes;
  FINEHMM_CHECK(L >= 1, "cannot score an empty sequence");
  const int Q = g.Q;

  for (int j = 0; j < N; ++j) st.xb[j] = 0;
  for (int m = 0; m < g.n_models; ++m) {
    const MsvGroupModel& md = g.models[m];
    const std::uint8_t blt =
        md.base > st.tjb[m] ? std::uint8_t(md.base - st.tjb[m]) : 0;
    const std::uint8_t xb = blt > md.tbm ? std::uint8_t(blt - md.tbm) : 0;
    for (int j = 0; j < md.lanes; ++j) st.xb[md.lane_lo + j] = xb;
  }

  std::memset(row, 0, static_cast<std::size_t>(Q) * N);
  const V biasv = V::load(g.bias);
  const V xBv = V::load(st.xb);
  V xEv = V::splat(0);

  for (std::size_t i = 0; i < L; ++i) {
    const std::uint8_t* rbv =
        g.rows + static_cast<std::size_t>(seq[i]) * Q * N;
    V mpv = shift_lanes_up(
        V::load(row + static_cast<std::size_t>(Q - 1) * N));
    for (int q = 0; q < Q; ++q) {
      std::uint8_t* cell = row + static_cast<std::size_t>(q) * N;
      V sv = max_u8(mpv, xBv);
      sv = adds_u8(sv, biasv);
      sv = subs_u8(sv, V::load(rbv + static_cast<std::size_t>(q) * N));
      xEv = max_u8(xEv, sv);
      mpv = V::load(cell);
      sv.store(cell);
    }
  }

  xEv.store(st.xe);
  for (int m = 0; m < g.n_models; ++m) {
    const MsvGroupModel& md = g.models[m];
    std::uint8_t xE = 0;
    for (int j = 0; j < md.lanes; ++j) {
      const std::uint8_t e = st.xe[md.lane_lo + j];
      if (e > xE) xE = e;
    }
    if (xE >= md.sat) {
      st.overflowed[m] = 1;
      st.xj[m] = 0;
    } else {
      st.overflowed[m] = 0;
      st.xj[m] = xE > md.tec ? std::uint8_t(xE - md.tec) : 0;
    }
  }
}

/// The eight striped parameter arrays the Viterbi kernel reads, laid out
/// for one lane count (residue x's emission stripes at msc + x*Q*N).
struct VitStripesView {
  const std::int16_t* msc = nullptr;
  const std::int16_t* tmm = nullptr;
  const std::int16_t* tim = nullptr;
  const std::int16_t* tdm = nullptr;
  const std::int16_t* tmi = nullptr;
  const std::int16_t* tii = nullptr;
  const std::int16_t* tmd = nullptr;
  const std::int16_t* tdd = nullptr;
  int Q = 0;
};

/// Striped ViterbiFilter with Lazy-F over N = V::kLanes word lanes.
/// mmx/imx/dmx are caller-owned scratch of Q*N words each; lazyf_passes
/// (optional) receives the number of wrap passes that improved at least
/// one stripe.
///
/// Exactness with the sticky add.  vit_scalar adds with sat_add_word
/// everywhere; this kernel uses it only for the scalar specials and
/// otherwise two cheaper lane ops, and still returns its score bit for
/// bit:
///   * xBv = xB (+) entry is finite (>= -32767) on every row: xN stays
///     finite under the sticky clamp, and move and entry are finite.
///   * Pre-emission M is max(xBv, M+tMM, I+tIM, D+tDM), so a term at or
///     below -32767 cannot change it.  I and D reach the score only
///     through the next row's M terms, which have the same floor.
///   * Transition words are <= 0 (VitProfile checks it), so a -inf cell
///     plus a finite t already saturates to -32768.
/// Hence the seven transition adds (M, I and D terms, and the Lazy-F
/// carry) use adds_trans_w, a plain saturating add that still maps a -inf
/// parameter to -inf.  By induction every computed cell equals the sticky
/// cell wherever the sticky cell is > -32767, and both are <= -32767
/// elsewhere; M, and therefore xE, is exact.  The emission add keeps the
/// -32767 clamp and the -inf-parameter rule (adds_emit_w), because msc can
/// be positive or -inf; its left operand, pre-emission M >= xBv, is never
/// -inf, so there it is sat_add_word exactly.
///
/// Lazy-F stops at the first stripe where no lane of the carry improves
/// (HMMER's `while (q == Q)`): every later stripe already holds its
/// in-lane D->D carry, so nothing downstream can change.
template <class V, class Seq>
FilterResult vit_kernel(const profile::VitProfile& prof,
                        const VitStripesView& st, Seq seq, std::size_t L,
                        std::int16_t* mmx, std::int16_t* imx,
                        std::int16_t* dmx, int* lazyf_passes = nullptr) {
  using profile::kWordNegInf;
  using profile::sat_add_word;
  constexpr int N = V::kLanes;
  FINEHMM_CHECK(L >= 1, "cannot score an empty sequence");
  const int Q = st.Q;
  const auto lm = prof.length_model_for(static_cast<int>(L));
  // Length-model moves are log-probability costs; a positive cost would
  // let xN grow without bound and defeat the 16-bit saturation bounds.
  FINEHMM_CHECK(lm.loop <= 0 && lm.move <= 0,
                "length-model costs must be non-positive log-probs");
  const std::size_t n = static_cast<std::size_t>(Q) * N;
  int passes = 0;

  std::fill(mmx, mmx + n, kWordNegInf);
  std::fill(imx, imx + n, kWordNegInf);
  std::fill(dmx, dmx + n, kWordNegInf);

  auto stripe = [](std::int16_t* v, int q) {
    return v + static_cast<std::size_t>(q) * N;
  };

  std::int16_t xN = profile::VitProfile::kBase;
  std::int16_t xB = sat_add_word(xN, lm.move);
  std::int16_t xJ = kWordNegInf;
  std::int16_t xC = kWordNegInf;

  for (std::size_t i = 0; i < L; ++i) {
    const std::int16_t* msr =
        st.msc + static_cast<std::size_t>(seq[i]) * Q * N;
    V xEv = V::neg_inf();
    V dcv = V::neg_inf();
    const std::int16_t xb_entry = sat_add_word(xB, prof.entry());
    // The floor every pre-emission M term is compared against.
    FINEHMM_DCHECK(xb_entry > kWordNegInf, "xB + entry must stay finite");
    const V xBv = V::splat(xb_entry);

    // Previous row's last stripe, lanes shifted up = the diagonal.
    V mpv = shift_lanes_up(V::load(stripe(mmx, Q - 1)));
    V ipv = shift_lanes_up(V::load(stripe(imx, Q - 1)));
    V dpv = shift_lanes_up(V::load(stripe(dmx, Q - 1)));

    for (int q = 0; q < Q; ++q) {
      const std::size_t off = static_cast<std::size_t>(q) * N;
      V sv = xBv;
      sv = max_i16(sv, adds_trans_w(mpv, V::load(st.tmm + off)));
      sv = max_i16(sv, adds_trans_w(ipv, V::load(st.tim + off)));
      sv = max_i16(sv, adds_trans_w(dpv, V::load(st.tdm + off)));
      sv = adds_emit_w(sv, V::load(msr + off));
      xEv = max_i16(xEv, sv);

      // Stash previous-row stripes before overwriting (double buffer).
      mpv = V::load(stripe(mmx, q));
      ipv = V::load(stripe(imx, q));
      dpv = V::load(stripe(dmx, q));

      sv.store(stripe(mmx, q));
      dcv.store(stripe(dmx, q));

      // Next position's D: M->D from this stripe, or D->D continuation.
      dcv = max_i16(adds_trans_w(sv, V::load(st.tmd + off)),
                    adds_trans_w(dcv, V::load(st.tdd + off)));

      V iv = max_i16(adds_trans_w(mpv, V::load(st.tmi + off)),
                     adds_trans_w(ipv, V::load(st.tii + off)));
      iv.store(stripe(imx, q));
    }

    // Lazy-F: wrap the dangling D chain into the next lane and propagate
    // it until a stripe does not improve.  A pass that runs off the last
    // stripe wraps again; a chain crosses at most N - 1 lane boundaries.
    dcv = shift_lanes_up(dcv);
    for (int pass = 0; pass < N; ++pass) {
      int q = 0;
      for (; q < Q; ++q) {
        const std::size_t off = static_cast<std::size_t>(q) * N;
        V cur = V::load(stripe(dmx, q));
        if (!any_gt_i16(dcv, cur)) break;
        cur = max_i16(cur, dcv);
        cur.store(stripe(dmx, q));
        dcv = adds_trans_w(cur, V::load(st.tdd + off));
      }
      if (q == 0) break;
      ++passes;
      if (q < Q) break;
      dcv = shift_lanes_up(dcv);
    }

#if FINEHMM_CHECKS_ENABLED
    // Lazy-F convergence: one more full wrap pass must leave every D cell
    // unchanged, i.e. the delete chain has reached its fixpoint.  This is
    // what licenses skipping the serial D recurrence in the striped
    // kernel (the paper's Lazy-F condition); if the early stop or the
    // N-pass cap above ever exits before convergence, scores silently go
    // wrong — so the sanitizer/debug builds sweep the whole row here, with
    // the kernel's own add (sat_add_word would differ in the <= -32767
    // band and fire falsely).
    {
      V carry = adds_trans_w(
          V::load(stripe(dmx, Q - 1)),
          V::load(st.tdd + static_cast<std::size_t>(Q - 1) * N));
      carry = shift_lanes_up(carry);
      bool would_improve = false;
      for (int q = 0; q < Q && !would_improve; ++q) {
        const V cur = V::load(stripe(dmx, q));
        if (any_gt_i16(carry, cur)) would_improve = true;
        carry = adds_trans_w(
            cur, V::load(st.tdd + static_cast<std::size_t>(q) * N));
      }
      FINEHMM_DCHECK(!would_improve, "Lazy-F did not reach its fixpoint");
    }
#endif

    std::int16_t xE = hmax_i16(xEv);
    xJ = std::max(sat_add_word(xJ, lm.loop), sat_add_word(xE, prof.e_j()));
    xC = std::max(sat_add_word(xC, lm.loop), sat_add_word(xE, prof.e_c()));
    xN = sat_add_word(xN, lm.loop);
    xB = std::max(sat_add_word(xN, lm.move), sat_add_word(xJ, lm.move));
  }

  if (lazyf_passes != nullptr) *lazyf_passes = passes;
  FilterResult out;
  out.score_nats = prof.score_from_words(xC, lm);
  return out;
}

// ---------------------------------------------------------------------
// Striped float Forward / Backward (probability space, per-row rescaled).
//
// The lane count is a tier parameter: the same kernel instantiates at 4
// (portable/SSE2), 8 (AVX2) and 16 (AVX-512) float lanes over a
// FwdStripesView built for that width.  Float summation order is part of
// the result, so different widths agree only within the documented
// log-sum tolerance; portable and native runs of the SAME width are
// bit-identical (in-order hsum_f is part of the vector contract).
// ---------------------------------------------------------------------

inline constexpr float kFwdRescaleHi = 1e12f;
inline constexpr float kFwdRescaleLo = 1e-12f;
inline constexpr float kFwdDdEpsilon = 1e-9f;  // relative wrap-mass cutoff

/// The striped parameter arrays the Forward/Backward kernels read, laid
/// out for one lane count N (slot(k) = ((k-1)%Q)*N + (k-1)/Q; residue x's
/// emission-odds stripes live at odds + x*Q*N).  The in-indexed arrays
/// hold the k-1 -> k transition probability at slot(k) (what Forward
/// consumes); the out-indexed arrays hold k -> k+1 at slot(k), zero at
/// k = M (what Backward consumes) and may be null when only Forward runs.
struct FwdStripesView {
  const float* odds = nullptr;
  const float* tmm = nullptr;     // in: P(M_{k-1} -> M_k)
  const float* tim = nullptr;     // in: P(I_{k-1} -> M_k)
  const float* tdm = nullptr;     // in: P(D_{k-1} -> M_k)
  const float* tmi = nullptr;     // at k: P(M_k -> I_k)
  const float* tii = nullptr;     // at k: P(I_k -> I_k)
  const float* tmd = nullptr;     // in: P(M_{k-1} -> D_k)
  const float* tdd = nullptr;     // in: P(D_{k-1} -> D_k)
  const float* tmm_out = nullptr; // out: P(M_k -> M_{k+1})
  const float* tim_out = nullptr; // out: P(I_k -> M_{k+1})
  const float* tdm_out = nullptr; // out: P(D_k -> M_{k+1})
  const float* tmd_out = nullptr; // out: P(M_k -> D_{k+1})
  const float* tdd_out = nullptr; // out: P(D_k -> D_{k+1})
  float entry = 0.0f;             // uniform local B -> M_k probability
  int Q = 0;
};

/// Special-state accumulators threaded through a Forward sweep; the row
/// loop, the specials update and the rescale step are factored out so the
/// plain score and the checkpointed decode execute literally the same
/// float operations (the decode's replay DCHECK depends on it).
struct FwdSweepState {
  double scale_log = 0.0;  // accumulated log of factored-out mass
  float xN = 1.0f;
  float xB = 0.0f;
  float xJ = 0.0f;
  float xC = 0.0f;
};

/// One striped Forward row: consumes the previous row in mmx/imx/dmx and
/// replaces it, returning this row's xE mass.  `odds` is the residue's
/// stripe row; `xb_entry` is xB(previous row) * entry.
template <class V>
inline float fwd_row(const FwdStripesView& st, const float* odds,
                     float xb_entry, float* mmx, float* imx, float* dmx) {
  constexpr int N = V::kLanes;
  const int Q = st.Q;
  auto stripe = [](float* v, int q) {
    return v + static_cast<std::size_t>(q) * N;
  };

  V xEv = V::splat(0.0f);
  const V xBv = V::splat(xb_entry);

  // Previous row's last stripe, lane-shifted = the diagonal.
  V mpv = shift_lanes_up(V::load(stripe(mmx, Q - 1)));
  V ipv = shift_lanes_up(V::load(stripe(imx, Q - 1)));
  V dpv = shift_lanes_up(V::load(stripe(dmx, Q - 1)));

  // Same-row, same-lane left neighbours for the D recurrence; see
  // cpu/fwd_filter.hpp for the striping notes.
  V m_left = V::splat(0.0f);
  V d_left = V::splat(0.0f);

  for (int q = 0; q < Q; ++q) {
    const std::size_t off = static_cast<std::size_t>(q) * N;
    V sv = xBv;
    sv = add_f(sv, mul_f(mpv, V::load(st.tmm + off)));
    sv = add_f(sv, mul_f(ipv, V::load(st.tim + off)));
    sv = add_f(sv, mul_f(dpv, V::load(st.tdm + off)));
    sv = mul_f(sv, V::load(odds + off));
    xEv = add_f(xEv, sv);

    V d = add_f(mul_f(m_left, V::load(st.tmd + off)),
                mul_f(d_left, V::load(st.tdd + off)));

    mpv = V::load(stripe(mmx, q));
    ipv = V::load(stripe(imx, q));
    dpv = V::load(stripe(dmx, q));

    sv.store(stripe(mmx, q));
    d.store(stripe(dmx, q));

    V iv = add_f(mul_f(mpv, V::load(st.tmi + off)),
                 mul_f(ipv, V::load(st.tii + off)));
    iv.store(stripe(imx, q));

    m_left = sv;
    d_left = d;
  }

  // Cross-lane D mass: geometric decay through the row; stop once the
  // circulating mass is negligible next to what is already banked.  The
  // monitoring sums accumulate in vector registers (one hsum per pass,
  // not two per stripe) — that is most of the kernel's speedup over the
  // old 128-bit implementation.
  V extra = add_f(mul_f(shift_lanes_up(m_left), V::load(st.tmd)),
                  mul_f(shift_lanes_up(d_left), V::load(st.tdd)));
  for (int pass = 0; pass < N * Q; ++pass) {
    V circv = V::splat(0.0f);
    V heldv = V::splat(0.0f);
    for (int q = 0; q < Q; ++q) {
      const std::size_t off = static_cast<std::size_t>(q) * N;
      if (q > 0) extra = mul_f(extra, V::load(st.tdd + off));
      V cur = V::load(stripe(dmx, q));
      circv = add_f(circv, extra);
      heldv = add_f(heldv, cur);
      add_f(cur, extra).store(stripe(dmx, q));
    }
    if (hsum_f(circv) <= kFwdDdEpsilon * (hsum_f(heldv) + kFwdRescaleLo))
      break;
    extra = mul_f(shift_lanes_up(extra), V::load(st.tdd));
  }

  return hsum_f(xEv);
}

/// Special-state update after a Forward row with mass xE.
template <class LM>
inline void fwd_row_specials(FwdSweepState& s, const LM& lm, float xE) {
  s.xJ = s.xJ * lm.loop + xE * lm.e_j;
  s.xC = s.xC * lm.loop + xE * lm.e_c;
  s.xN = s.xN * lm.loop;
  s.xB = s.xN * lm.move + s.xJ * lm.move;
}

/// Rescale when the row's mass drifts out of float's comfortable range;
/// returns the factor applied to the DP rows (1.0f when none).
inline float fwd_row_rescale(FwdSweepState& s, float xE, float* mmx,
                             float* imx, float* dmx, std::size_t n) {
  if (!(xE > 0.0f && (xE > kFwdRescaleHi || xE < kFwdRescaleLo)))
    return 1.0f;
  const float inv = 1.0f / xE;
  for (std::size_t j = 0; j < n; ++j) mmx[j] *= inv;
  for (std::size_t j = 0; j < n; ++j) imx[j] *= inv;
  for (std::size_t j = 0; j < n; ++j) dmx[j] *= inv;
  s.xN *= inv;
  s.xB *= inv;
  s.xJ *= inv;
  s.xC *= inv;
  s.scale_log += std::log(static_cast<double>(xE));
  return inv;
}

/// Striped float Forward over N = V::kLanes lanes.  mmx/imx/dmx are Q*N
/// floats of caller scratch; `prof` supplies the length model only.
template <class V, class Seq>
float fwd_kernel(const profile::FwdProfile& prof, const FwdStripesView& st,
                 Seq seq, std::size_t L, float* mmx, float* imx,
                 float* dmx) {
  constexpr int N = V::kLanes;
  FINEHMM_CHECK(L >= 1, "cannot score an empty sequence");
  const int Q = st.Q;
  const auto lm = prof.length_model_for(static_cast<int>(L));
  const std::size_t n = static_cast<std::size_t>(Q) * N;

  std::fill(mmx, mmx + n, 0.0f);
  std::fill(imx, imx + n, 0.0f);
  std::fill(dmx, dmx + n, 0.0f);

  FwdSweepState s;
  s.xB = s.xN * lm.move;

  for (std::size_t i = 0; i < L; ++i) {
    const float* odds = st.odds + static_cast<std::size_t>(seq[i]) * n;
    const float xE = fwd_row<V>(st, odds, s.xB * st.entry, mmx, imx, dmx);
    fwd_row_specials(s, lm, xE);
    fwd_row_rescale(s, xE, mmx, imx, dmx, n);
  }

  if (s.xC <= 0.0f) return kNegInf;
  return static_cast<float>(std::log(static_cast<double>(s.xC) * lm.move) +
                            s.scale_log);
}

/// Caller-owned workspace for the checkpointed Forward/Backward decode.
/// All pointers are raw caller storage (the kernel allocates nothing):
///   mmx/imx/dmx      Q*N floats each — forward DP rows;
///   snap             n_blocks * 3*Q*N — (M,I,D) state after row b*block;
///   blk_m/blk_i      block * Q*N each — replayed forward rows;
///   row_xb/row_inv   L+1 floats — per-row post-rescale xB / rescale inv;
///   row_scale        L+1 doubles — cumulative scale_log after each row;
///   bwd_m/bwd_i/bwd_d/bwd_on  Q*N floats each — backward DP rows.
/// block is the checkpoint spacing (ceil(sqrt(L)) from the driver) and
/// n_blocks = ceil(L / block); memory is O(M * sqrt(L)).
struct FwdBwdScratch {
  float* mmx = nullptr;
  float* imx = nullptr;
  float* dmx = nullptr;
  float* snap = nullptr;
  float* blk_m = nullptr;
  float* blk_i = nullptr;
  float* row_xb = nullptr;
  float* row_inv = nullptr;
  double* row_scale = nullptr;
  float* bwd_m = nullptr;
  float* bwd_i = nullptr;
  float* bwd_d = nullptr;
  float* bwd_on = nullptr;
  int block = 0;
  int n_blocks = 0;
};

/// Checkpointed Forward + Backward with posterior model occupancy.
///
/// Pass 1 is the plain Forward sweep (bit-identical to fwd_kernel: same
/// row/specials/rescale helpers in the same order) recording per-row xB,
/// rescale factors and sqrt(L)-spaced (M,I,D) snapshots.  Pass 2 walks
/// blocks last-to-first: replaying each block's forward rows from its
/// snapshot (bitwise reconstruction — checked against the next snapshot
/// under FINEHMM_CHECKS), then sweeping the Backward recurrence over the
/// replayed rows and emitting mocc[i-1] = P(residue i emitted by the
/// core model | sequence) for i = 1..L.  Returns the Forward score in
/// nats (identical to fwd_kernel's).
///
/// The Backward recurrence mirrors the Forward's striping: the in-stripe
/// D chain runs top-down per lane, and the lane-crossing D mass wraps
/// through shift_lanes_down with the same epsilon cutoff the Forward
/// wrap uses.  Backward rows rescale on the row's bxB mass with the log
/// factor accumulated separately (bscale), so the posterior combines as
/// exp(log(rowsum) + row_scale[i] + bscale - total).
template <class V, class Seq>
float fwd_bwd_kernel(const profile::FwdProfile& prof,
                     const FwdStripesView& st, Seq seq, std::size_t L,
                     const FwdBwdScratch& ws, float* mocc) {
  constexpr int N = V::kLanes;
  FINEHMM_CHECK(L >= 1, "cannot score an empty sequence");
  FINEHMM_CHECK(st.tdd_out != nullptr,
                "fwd_bwd_kernel needs the out-indexed transition stripes");
  FINEHMM_CHECK(ws.block >= 1 && ws.n_blocks >= 1 &&
                    static_cast<std::size_t>(ws.block) *
                            static_cast<std::size_t>(ws.n_blocks) >=
                        L,
                "checkpoint geometry must cover the sequence");
  const int Q = st.Q;
  const auto lm = prof.length_model_for(static_cast<int>(L));
  const std::size_t n = static_cast<std::size_t>(Q) * N;
  const std::size_t row_bytes = n * sizeof(float);

  float* mmx = ws.mmx;
  float* imx = ws.imx;
  float* dmx = ws.dmx;
  auto snap_at = [&](int b) { return ws.snap + static_cast<std::size_t>(b) * 3 * n; };

  // ---- Pass 1: Forward, recording checkpoints ----
  std::fill(mmx, mmx + n, 0.0f);
  std::fill(imx, imx + n, 0.0f);
  std::fill(dmx, dmx + n, 0.0f);

  FwdSweepState s;
  s.xB = s.xN * lm.move;
  ws.row_xb[0] = s.xB;
  ws.row_inv[0] = 1.0f;
  ws.row_scale[0] = 0.0;
  std::memcpy(snap_at(0), mmx, row_bytes);
  std::memcpy(snap_at(0) + n, imx, row_bytes);
  std::memcpy(snap_at(0) + 2 * n, dmx, row_bytes);

  for (std::size_t i = 1; i <= L; ++i) {
    const float* odds =
        st.odds + static_cast<std::size_t>(seq[i - 1]) * n;
    const float xE = fwd_row<V>(st, odds, s.xB * st.entry, mmx, imx, dmx);
    fwd_row_specials(s, lm, xE);
    ws.row_inv[i] = fwd_row_rescale(s, xE, mmx, imx, dmx, n);
    ws.row_xb[i] = s.xB;
    ws.row_scale[i] = s.scale_log;
    const std::size_t b = i / static_cast<std::size_t>(ws.block);
    if (i % static_cast<std::size_t>(ws.block) == 0 &&
        b < static_cast<std::size_t>(ws.n_blocks)) {
      std::memcpy(snap_at(static_cast<int>(b)), mmx, row_bytes);
      std::memcpy(snap_at(static_cast<int>(b)) + n, imx, row_bytes);
      std::memcpy(snap_at(static_cast<int>(b)) + 2 * n, dmx, row_bytes);
    }
  }

  if (s.xC <= 0.0f) {
    std::fill(mocc, mocc + L, 0.0f);
    return kNegInf;
  }
  const double total =
      std::log(static_cast<double>(s.xC) * lm.move) + s.scale_log;

  // ---- Pass 2: blocks last-to-first, Backward over replayed rows ----
  float* bm = ws.bwd_m;
  float* bi = ws.bwd_i;
  float* bd = ws.bwd_d;
  float* bon = ws.bwd_on;
  auto stripe = [](float* v, int q) {
    return v + static_cast<std::size_t>(q) * N;
  };

  // Row L init: only C -> T move survives; M states exit through E.
  float bN = 0.0f;
  float bJ = 0.0f;
  float bC = lm.move;
  double bscale = 0.0;
  std::fill(bm, bm + n, lm.e_c * bC + lm.e_j * bJ);
  std::fill(bi, bi + n, 0.0f);
  std::fill(bd, bd + n, 0.0f);

  for (int b = ws.n_blocks - 1; b >= 0; --b) {
    const std::size_t lo =
        static_cast<std::size_t>(b) * static_cast<std::size_t>(ws.block) + 1;
    const std::size_t hi = std::min<std::size_t>(
        L, lo + static_cast<std::size_t>(ws.block) - 1);

    // Replay forward rows lo..hi from snapshot b (bitwise: same fwd_row,
    // same stored xB products, same stored rescale factors).
    std::memcpy(mmx, snap_at(b), row_bytes);
    std::memcpy(imx, snap_at(b) + n, row_bytes);
    std::memcpy(dmx, snap_at(b) + 2 * n, row_bytes);
    for (std::size_t i = lo; i <= hi; ++i) {
      const float* odds =
          st.odds + static_cast<std::size_t>(seq[i - 1]) * n;
      fwd_row<V>(st, odds, ws.row_xb[i - 1] * st.entry, mmx, imx, dmx);
      const float inv = ws.row_inv[i];
      if (inv != 1.0f) {
        for (std::size_t j = 0; j < n; ++j) mmx[j] *= inv;
        for (std::size_t j = 0; j < n; ++j) imx[j] *= inv;
        for (std::size_t j = 0; j < n; ++j) dmx[j] *= inv;
      }
      std::memcpy(ws.blk_m + (i - lo) * n, mmx, row_bytes);
      std::memcpy(ws.blk_i + (i - lo) * n, imx, row_bytes);
    }
#if FINEHMM_CHECKS_ENABLED
    if (b + 1 < ws.n_blocks) {
      const float* nxt = snap_at(b + 1);
      FINEHMM_DCHECK(std::memcmp(nxt, mmx, row_bytes) == 0 &&
                         std::memcmp(nxt + n, imx, row_bytes) == 0 &&
                         std::memcmp(nxt + 2 * n, dmx, row_bytes) == 0,
                     "checkpoint replay must reconstruct the next "
                     "snapshot bitwise");
    }
#endif

    // Backward sweep rows hi..lo.  Entering the block, bm/bi/bd hold row
    // hi+1 (or the row-L init); each iteration steps to row i, combines
    // with the replayed forward row, then rescales if needed.
    for (std::size_t i = hi;; --i) {
      if (i < L) {
        // Step row i+1 -> i; consumes residue i+1 (seq[i], 0-based).
        const float* odds =
            st.odds + static_cast<std::size_t>(seq[i]) * n;

        // on(k) = odds(x_{i+1}, k) * bM(i+1, k), plus its total.
        V sum_on_v = V::splat(0.0f);
        for (int q = 0; q < Q; ++q) {
          const std::size_t off = static_cast<std::size_t>(q) * N;
          const V on = mul_f(V::load(odds + off), V::load(stripe(bm, q)));
          on.store(stripe(bon, q));
          sum_on_v = add_f(sum_on_v, on);
        }
        const float sum_on = hsum_f(sum_on_v);

        // Special states (adjoints of the forward specials).
        const float bxB = st.entry * sum_on;
        bJ = bJ * lm.loop + bxB * lm.move;
        bN = bN * lm.loop + bxB * lm.move;
        bC = bC * lm.loop;
        const float bxE = lm.e_c * bC + lm.e_j * bJ;

        // In-stripe D chain, top-down per lane; the lane-crossing link
        // at the last stripe starts at zero and is filled by the wrap.
        V dnext = V::splat(0.0f);
        for (int q = Q - 1; q >= 0; --q) {
          const std::size_t off = static_cast<std::size_t>(q) * N;
          const V onp = q == Q - 1 ? shift_lanes_down(V::load(bon))
                                   : V::load(stripe(bon, q + 1));
          const V d = add_f(mul_f(V::load(st.tdm_out + off), onp),
                            mul_f(V::load(st.tdd_out + off), dnext));
          d.store(stripe(bd, q));
          dnext = d;
        }
        // Lane-crossing D mass, mirroring the Forward wrap: the delta
        // entering stripe Q-1 of lane j is the (partial) bd of stripe 0,
        // lane j+1, scaled by tdd_out; propagate until negligible.
        V extra = mul_f(V::load(st.tdd_out + (Q - 1) * N),
                        shift_lanes_down(V::load(bd)));
        for (int pass = 0; pass < N * Q; ++pass) {
          V circv = V::splat(0.0f);
          V heldv = V::splat(0.0f);
          for (int q = Q - 1; q >= 0; --q) {
            const std::size_t off = static_cast<std::size_t>(q) * N;
            if (q < Q - 1) extra = mul_f(extra, V::load(st.tdd_out + off));
            V cur = V::load(stripe(bd, q));
            circv = add_f(circv, extra);
            heldv = add_f(heldv, cur);
            add_f(cur, extra).store(stripe(bd, q));
          }
          if (hsum_f(circv) <=
              kFwdDdEpsilon * (hsum_f(heldv) + kFwdRescaleLo))
            break;
          extra = mul_f(shift_lanes_down(extra),
                        V::load(st.tdd_out + (Q - 1) * N));
        }

        // bM / bI rows in place (bM reads old bI, so it goes first).
        const V bxEv = V::splat(bxE);
        for (int q = 0; q < Q; ++q) {
          const std::size_t off = static_cast<std::size_t>(q) * N;
          const V onp = q == Q - 1 ? shift_lanes_down(V::load(bon))
                                   : V::load(stripe(bon, q + 1));
          const V bdp = q == Q - 1 ? shift_lanes_down(V::load(bd))
                                   : V::load(stripe(bd, q + 1));
          const V bip = V::load(stripe(bi, q));
          V bmv = bxEv;
          bmv = add_f(bmv, mul_f(V::load(st.tmm_out + off), onp));
          bmv = add_f(bmv, mul_f(V::load(st.tmi + off), bip));
          bmv = add_f(bmv, mul_f(V::load(st.tmd_out + off), bdp));
          const V biv = add_f(mul_f(V::load(st.tim_out + off), onp),
                              mul_f(V::load(st.tii + off), bip));
          bmv.store(stripe(bm, q));
          biv.store(stripe(bi, q));
        }
      }

      // Combine: posterior mass of residue i in the core model.
      {
        const float* fm = ws.blk_m + (i - lo) * n;
        const float* fi = ws.blk_i + (i - lo) * n;
        V rsv = V::splat(0.0f);
        for (int q = 0; q < Q; ++q) {
          const std::size_t off = static_cast<std::size_t>(q) * N;
          rsv = add_f(rsv, add_f(mul_f(V::load(fm + off), V::load(bm + off)),
                                 mul_f(V::load(fi + off), V::load(bi + off))));
        }
        const float rowsum = hsum_f(rsv);
        if (rowsum > 0.0f) {
          const double lp = std::log(static_cast<double>(rowsum)) +
                            ws.row_scale[i] + bscale - total;
          const float p = static_cast<float>(std::exp(lp));
          mocc[i - 1] = p < 1.0f ? p : 1.0f;
        } else {
          mocc[i - 1] = 0.0f;
        }
      }

      // Rescale the backward rows on the same trigger the forward uses;
      // bN tracks the total suffix mass (zero only at the row-L init,
      // which never needs rescaling).
      const float brow = bN;
      if (brow > 0.0f &&
          (brow > kFwdRescaleHi || brow < kFwdRescaleLo)) {
        const float inv = 1.0f / brow;
        for (std::size_t j = 0; j < n; ++j) bm[j] *= inv;
        for (std::size_t j = 0; j < n; ++j) bi[j] *= inv;
        for (std::size_t j = 0; j < n; ++j) bd[j] *= inv;
        bN *= inv;
        bJ *= inv;
        bC *= inv;
        bscale += std::log(static_cast<double>(brow));
      }

      if (i == lo) break;
    }
  }

  return static_cast<float>(total);
}

// ---------------------------------------------------------------------
// Striped log-odds Viterbi with backpointers (the traceback behind the
// null2 correction and alignment rendering).
//
// Bit-exactness with the scalar reference (cpu::viterbi_trace without a
// workspace) is structural, not empirical:
//   * Every cell is computed from the same operands with the same IEEE
//     float adds; there is no multiply, so no FMA contraction can apply.
//   * Tie rules are the reference's.  The M predecessor is a running
//     strict-greater argmax over B, M, I, D in that order (first index
//     of the maximum).  I, D, J, C and B take `a < b ? b : a` — that is
//     std::max(a, b), signed zero included — and their backpointer bit
//     is set exactly when `a < b`.  select_f(gt_f(b, a), b, a) spells
//     the same thing lane-wise.
//   * The exit argmax is a strict-greater running max per lane (within
//     a lane, k grows with the stripe index), reduced across lanes in
//     lane order: the first k of the row maximum, as the reference's
//     k-ascending scan finds it.
//   * The D chain.  D(k) = max(dm(k), dd(k)) with dm(k) = M(k-1) + tMD
//     final once the M sweep is done, and dd(k) = D(k-1) + tDD.  The
//     sweep runs the chain inside each lane's stripes, starting every
//     stripe-0 cell at -inf; stripe 0 is then rebuilt from the finished
//     M(Q-1) and the provisional D(Q-1), and Lazy-F wrap passes push
//     D(k-1) + tDD forward wherever it is strictly greater, stopping at
//     the first stripe where no lane improves.  Float addition is
//     monotone — fl(max(a,b) + t) == max(fl(a+t), fl(b+t)) — so a
//     provisional D never exceeds the reference's, every carry is a
//     lower bound of the reference's dd(k), and at the fixpoint each
//     cell holds exactly the reference's max(dm, dd).  The D bit follows
//     the same argument: a carry that wins is > dm, so the reference
//     sets the bit there too (bits only ever go 0 -> 1); a cell no carry
//     beats keeps the value, and bit, the sweep gave it.
// ---------------------------------------------------------------------

/// Row order of one stripe's transition vectors in TraceStripesView::tsc.
/// "In" rows hold the transition into position k, "at" rows the one
/// leaving k.
enum TraceTransition : int {
  kTraceBM,  // in: B -> M_k (tsc(k-1, BM))
  kTraceMM,  // in: M_{k-1} -> M_k
  kTraceIM,  // in: I_{k-1} -> M_k
  kTraceDM,  // in: D_{k-1} -> M_k
  kTraceMI,  // at: M_k -> I_k
  kTraceII,  // at: I_k -> I_k
  kTraceMD,  // in: M_{k-1} -> D_k
  kTraceDD,  // in: D_{k-1} -> D_k
  kTraceME,  // at: M_k -> E
  kTraceTransitions
};

/// The striped log-odds parameters the trace kernel reads, laid out for
/// one float lane count N; position k sits at stripe (k-1)%Q, lane
/// (k-1)/Q.  msc holds residue x's emission stripes at msc + x*Q*N.  tsc
/// interleaves the transitions HMMER-style: stripe q's kTraceTransitions
/// vectors are contiguous, row r at tsc + (q*kTraceTransitions + r)*N, so
/// one pointer walks them all.  Every slot that must not contribute holds
/// -inf: padding past M, the I transitions at k = M and the D transitions
/// into k = 1 — which is how the reference's forced -inf cells come out
/// of the same arithmetic.
struct TraceStripesView {
  const float* msc = nullptr;
  const float* tsc = nullptr;
  int Q = 0;
};

/// Caller-owned storage for one trace.  mmx/imx/dmx hold one DP row of
/// Q*N floats each (updated in place).  bp holds L+1 rows of Q*N/2
/// bytes: one nibble per cell in striped order (slot s in byte s/2, low
/// nibble when s is even) — the match predecessor in bits 0-1, the insert
/// choice in bit 2, the delete choice in bit 3.  be/bj/bc/bb hold L+1
/// entries: the row's exit node and the J, C and B choices.
struct TraceScratch {
  float* mmx = nullptr;
  float* imx = nullptr;
  float* dmx = nullptr;
  std::uint8_t* bp = nullptr;
  int* be = nullptr;
  std::uint8_t* bj = nullptr;
  std::uint8_t* bc = nullptr;
  std::uint8_t* bb = nullptr;
};

/// Store / OR the low N/2 bytes of a pack_nibbles result (lane 0's
/// nibble first), as one store on little-endian hosts.
template <int N>
inline void store_nibbles(std::uint8_t* dst, std::uint64_t bits) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, &bits, N / 2);
  } else {
    for (int b = 0; b < N / 2; ++b)
      dst[b] = static_cast<std::uint8_t>(bits >> (8 * b));
  }
}
template <int N>
inline void or_nibbles(std::uint8_t* dst, std::uint64_t bits) {
  for (int b = 0; b < N / 2; ++b)
    dst[b] = static_cast<std::uint8_t>(dst[b] | (bits >> (8 * b)));
}

/// Striped Viterbi with backpointers over N = V::kLanes float lanes.
/// Fills the scratch backpointers and returns the Viterbi score (nats);
/// the caller walks the pointers back (cpu/trace.cpp).
template <class V>
float trace_kernel(const TraceStripesView& stripes,
                   const hmm::SpecialScores& xs, const std::uint8_t* seq,
                   std::size_t L, const TraceScratch& scratch) {
  constexpr int N = V::kLanes;
  // Work on local copies: the backpointer stores are byte stores, which
  // may alias anything behind a reference, so reading the pointers
  // through the references would reload each of them after every store.
  const TraceStripesView st = stripes;
  const TraceScratch ws = scratch;
  static_assert(N % 2 == 0 && N <= 16, "one nibble per lane, 64-bit packs");
  FINEHMM_CHECK(L >= 1, "cannot trace an empty sequence");
  const int Q = st.Q;
  const std::size_t n = static_cast<std::size_t>(Q) * N;
  const std::size_t row_bytes = n / 2;
  auto stripe = [](float* v, int q) {
    return v + static_cast<std::size_t>(q) * N;
  };
  auto nibbles = [](std::uint8_t* row, int q) {
    return row + static_cast<std::size_t>(q) * (N / 2);
  };
  auto tsc = [&st](int q) {
    return st.tsc + static_cast<std::size_t>(q) * kTraceTransitions * N;
  };

  const V ninf = V::splat(kNegInf);
  const V zero = V::splat(0.0f);
  const V one = V::splat(1.0f);
  const V two = V::splat(2.0f);
  const V three = V::splat(3.0f);
  const V four = V::splat(4.0f);
  const V eight = V::splat(8.0f);

  std::fill(ws.mmx, ws.mmx + n, kNegInf);
  std::fill(ws.imx, ws.imx + n, kNegInf);
  std::fill(ws.dmx, ws.dmx + n, kNegInf);

  // Special-state values only feed the next row, so they live in scalars;
  // the per-row choices (all the traceback reads) are kept.
  float vN = 0.0f;
  float vB = xs.n_move;
  float vJ = kNegInf;
  float vC = kNegInf;
  ws.bb[0] = 0;

  for (std::size_t i = 1; i <= L; ++i) {
    const float* msr = st.msc + static_cast<std::size_t>(seq[i - 1]) * n;
    std::uint8_t* bp_row = ws.bp + i * row_bytes;
    const V xBv = V::splat(vB);
    V xEv = ninf;  // per-lane best exit score ...
    V xQv = zero;  // ... and the stripe it came from
    V qv = zero;   // this stripe's index, in every lane

    // Previous row's last stripe, lanes shifted up = the diagonal.
    V mpv = shift_lanes_up(V::load(stripe(ws.mmx, Q - 1)), kNegInf);
    V ipv = shift_lanes_up(V::load(stripe(ws.imx, Q - 1)), kNegInf);
    V dpv = shift_lanes_up(V::load(stripe(ws.dmx, Q - 1)), kNegInf);
    // This row's M and D one stripe back, same lane (the in-lane D chain).
    V m_left = ninf;
    V d_left = ninf;

    for (int q = 0; q < Q; ++q) {
      const std::size_t off = static_cast<std::size_t>(q) * N;
      const float* t = tsc(q);
      // Match: B / M / I / D predecessors from row i-1.
      V bv = add_f(xBv, V::load(t + kTraceBM * N));
      V c = add_f(mpv, V::load(t + kTraceMM * N));
      auto gt = gt_f(c, bv);
      bv = select_f(gt, c, bv);
      V code = select_f(gt, one, zero);
      c = add_f(ipv, V::load(t + kTraceIM * N));
      gt = gt_f(c, bv);
      bv = select_f(gt, c, bv);
      code = select_f(gt, two, code);
      c = add_f(dpv, V::load(t + kTraceDM * N));
      gt = gt_f(c, bv);
      bv = select_f(gt, c, bv);
      code = select_f(gt, three, code);
      const V mv = add_f(bv, V::load(msr + off));

      const V ex = add_f(mv, V::load(t + kTraceME * N));
      gt = gt_f(ex, xEv);
      xEv = select_f(gt, ex, xEv);
      xQv = select_f(gt, qv, xQv);
      qv = add_f(qv, one);

      // Stash previous-row stripes before overwriting (double buffer).
      mpv = V::load(stripe(ws.mmx, q));
      ipv = V::load(stripe(ws.imx, q));
      dpv = V::load(stripe(ws.dmx, q));

      const V im = add_f(mpv, V::load(t + kTraceMI * N));
      const V ii = add_f(ipv, V::load(t + kTraceII * N));
      gt = gt_f(ii, im);
      const V iv = select_f(gt, ii, im);
      code = select_f(gt, add_f(code, four), code);

      const V dm = add_f(m_left, V::load(t + kTraceMD * N));
      const V dd = add_f(d_left, V::load(t + kTraceDD * N));
      gt = gt_f(dd, dm);
      const V dv = select_f(gt, dd, dm);
      code = select_f(gt, add_f(code, eight), code);

      mv.store(stripe(ws.mmx, q));
      iv.store(stripe(ws.imx, q));
      dv.store(stripe(ws.dmx, q));
      store_nibbles<N>(nibbles(bp_row, q), pack_nibbles(code));
      m_left = mv;
      d_left = dv;
    }

    // Stripe 0's D from the previous lane's finished M(Q-1) and its
    // provisional D(Q-1); the sweep left these cells at -inf, bit clear.
    V dcur;
    {
      const V dm = add_f(shift_lanes_up(V::load(stripe(ws.mmx, Q - 1)),
                                        kNegInf),
                         V::load(tsc(0) + kTraceMD * N));
      const V dd = add_f(shift_lanes_up(V::load(stripe(ws.dmx, Q - 1)),
                                        kNegInf),
                         V::load(tsc(0) + kTraceDD * N));
      const auto gt = gt_f(dd, dm);
      dcur = select_f(gt, dd, dm);
      dcur.store(stripe(ws.dmx, 0));
      or_nibbles<N>(nibbles(bp_row, 0), pack_nibbles(select_f(gt, eight, zero)));
    }
    // Lazy-F: carry D(k-1) + tDD forward, wrapping into the next lane,
    // until a stripe where no lane improves.
    for (int q = 0;;) {
      int nq = q + 1;
      V carry;
      if (nq == Q) {
        nq = 0;
        carry = add_f(shift_lanes_up(dcur, kNegInf),
                      V::load(tsc(0) + kTraceDD * N));
      } else {
        carry = add_f(dcur, V::load(tsc(nq) + kTraceDD * N));
      }
      const V cur = V::load(stripe(ws.dmx, nq));
      const auto gt = gt_f(carry, cur);
      const std::uint64_t dbits = pack_nibbles(select_f(gt, eight, zero));
      if (dbits == 0) break;
      dcur = select_f(gt, carry, cur);
      dcur.store(stripe(ws.dmx, nq));
      or_nibbles<N>(nibbles(bp_row, nq), dbits);
      q = nq;
    }

#if FINEHMM_CHECKS_ENABLED
    // Fixpoint: no D(k-1) + tDD anywhere in the row beats D(k).
    for (int q = 0; q < Q; ++q) {
      const V prev = q == 0 ? shift_lanes_up(V::load(stripe(ws.dmx, Q - 1)),
                                             kNegInf)
                            : V::load(stripe(ws.dmx, q - 1));
      const V carry = add_f(prev, V::load(tsc(q) + kTraceDD * N));
      FINEHMM_DCHECK(
          pack_nibbles(select_f(gt_f(carry, V::load(stripe(ws.dmx, q))),
                                one, zero)) == 0,
          "trace Lazy-F did not reach its fixpoint");
    }
#endif

    // Exit argmax: lanes in order, strict greater = first k of the max.
    alignas(64) float xe[N];
    alignas(64) float xq[N];
    xEv.store(xe);
    xQv.store(xq);
    float xE = kNegInf;
    int xEk = 0;
    for (int j = 0; j < N; ++j) {
      if (xe[j] > xE) {
        xE = xe[j];
        xEk = j * Q + static_cast<int>(xq[j]) + 1;
      }
    }
    ws.be[i] = xEk;

    const float j_loop = vJ + xs.j_loop;
    const float j_new = xE + xs.e_j;
    ws.bj[i] = j_loop >= j_new ? 0 : 1;
    vJ = std::max(j_loop, j_new);

    const float c_loop = vC + xs.c_loop;
    const float c_new = xE + xs.e_c;
    ws.bc[i] = c_loop >= c_new ? 0 : 1;
    vC = std::max(c_loop, c_new);

    vN = vN + xs.n_loop;
    const float b_n = vN + xs.n_move;
    const float b_j = vJ + xs.j_move;
    ws.bb[i] = b_n >= b_j ? 0 : 1;
    vB = std::max(b_n, b_j);
  }
  return vC + xs.c_move;
}

// ---------------------------------------------------------------------
// Lanes-as-samples log-space Forward (model calibration).
//
// Calibration scores a few hundred random sequences that all have the
// same length, so each float lane carries one whole sample — the paper's
// warp-per-sequence tier at lane granularity — and lane j runs
// cpu::generic_forward's table-driven recurrence on sample j, operation
// for operation:
//   * add_scores(a, b) is a + b with -inf selected where either side is
//     -inf;
//   * LogSumTable::operator()(a, b) is the same ordered chain as selects:
//     the a == -inf and b == -inf tests, d = a - b, d >= 0, |d|, the
//     |d| >= kTableWidth cut-off, |d| * kScale, the truncating convert
//     and the read of the same process-wide table (lookup_f);
//   * msc(k, x_j) is a lookup_f of lane j's residue code in node k's row.
// Every IEEE operation a lane performs is one the scalar code performs,
// on the same operands and in the same order; selects move bits without
// rounding; no multiply feeds an add, so there is nothing to contract.
// The kernel leaves MXCSR alone (the scalar reference runs without
// flush-to-zero), so each lane's score is bitwise generic_forward's at
// every tier and width — unlike fwd_kernel, whose sum order follows the
// striping (docs/simd_dispatch.md §5).
// ---------------------------------------------------------------------

/// Forward scores (nats) of N = V::kLanes sequences of one length L, one
/// per lane: lane j's codes are seqs[j*L .. j*L + L).  dp is caller
/// scratch of 3*M*N floats; scores receives N floats, scores[j] bitwise
/// cpu::generic_forward(prof, seqs + j*L, L).
template <class V>
void fwd_lanes_kernel(const hmm::SearchProfile& prof,
                      const std::uint8_t* seqs, std::size_t L, float* dp,
                      float* scores) {
  constexpr int N = V::kLanes;
  FINEHMM_CHECK(L >= 1, "cannot score an empty sequence");
  const int M = prof.length();
  const std::size_t n = static_cast<std::size_t>(M) * N;
  float* const mmx = dp;  // M(k) at (k-1)*N, one row, updated in place
  float* const imx = dp + n;
  float* const dmx = dp + 2 * n;
  std::fill(dp, dp + 3 * n, kNegInf);

  const V ninf = V::splat(kNegInf);
  const V zero = V::splat(0.0f);
  const V width = V::splat(LogSumTable::kTableWidth);
  const V scale = V::splat(LogSumTable::kScale);
  const float* const table = LogSumTable::instance().data();
  const auto every_lane = ge_f(zero, zero);  // 0 >= 0 in every lane

  // add_scores with one lane-shared operand (a transition or special).
  auto add = [&](V a, float t) {
    if (t == kNegInf) return ninf;
    return select_f(ge_f(ninf, a), ninf, add_f(a, V::splat(t)));
  };
  // add_scores with two per-lane operands.
  auto add_v = [&](V a, V b) {
    const V r = select_f(ge_f(ninf, a), ninf, add_f(a, b));
    return select_f(ge_f(ninf, b), ninf, r);
  };
  // LogSumTable::operator()(a, b).  ge_f(ninf, x) is exactly x == -inf;
  // `near` is !(ad >= kTableWidth) for every ad the -inf tests let
  // through, and gates the gather so no lane reads outside the table.
  auto lse = [&](V a, V b) {
    const auto a_ninf = ge_f(ninf, a);
    const auto b_ninf = ge_f(ninf, b);
    const V d = sub_f(a, b);
    const auto d_pos = ge_f(d, zero);
    const V hi = select_f(d_pos, a, b);
    const V ad = select_f(d_pos, d, sub_f(zero, d));
    const auto near = gt_f(width, ad);
    const V corr = lookup_f(table, mul_f(ad, scale), near, zero);
    V r = select_f(near, add_f(hi, corr), hi);
    r = select_f(b_ninf, a, r);
    return select_f(a_ninf, b, r);
  };

  const auto xs = prof.xsc_for(static_cast<int>(L));
  V xN = zero;
  V xB = add_f(xN, V::splat(xs.n_move));
  V xJ = ninf;
  V xC = ninf;
  alignas(64) float codes[N];

  for (std::size_t i = 0; i < L; ++i) {
    for (int j = 0; j < N; ++j)
      codes[j] = static_cast<float>(seqs[static_cast<std::size_t>(j) * L + i]);
    const V xv = V::load(codes);
    V xE = ninf;
    V mp = ninf, ip = ninf, dpv = ninf;  // row i-1 at k-1
    V ml = ninf, dl = ninf;              // row i at k-1
    for (int k = 1; k <= M; ++k) {
      const std::size_t at = static_cast<std::size_t>(k - 1) * N;
      V m = add(xB, prof.tsc(k - 1, hmm::kPTBM));
      m = lse(m, add(mp, prof.tsc(k - 1, hmm::kPTMM)));
      m = lse(m, add(ip, prof.tsc(k - 1, hmm::kPTIM)));
      m = lse(m, add(dpv, prof.tsc(k - 1, hmm::kPTDM)));
      m = add_v(m, lookup_f(prof.msc_row(k), xv, every_lane, ninf));
      xE = lse(xE, add(m, prof.esc(k)));

      mp = V::load(mmx + at);
      ip = V::load(imx + at);
      dpv = V::load(dmx + at);
      const V iv = k < M ? lse(add(mp, prof.tsc(k, hmm::kPTMI)),
                               add(ip, prof.tsc(k, hmm::kPTII)))
                         : ninf;
      const V dv = k >= 2 ? lse(add(ml, prof.tsc(k - 1, hmm::kPTMD)),
                                add(dl, prof.tsc(k - 1, hmm::kPTDD)))
                          : ninf;
      m.store(mmx + at);
      iv.store(imx + at);
      dv.store(dmx + at);
      ml = m;
      dl = dv;
    }
    xJ = lse(add(xJ, xs.j_loop), add(xE, xs.e_j));
    xC = lse(add(xC, xs.c_loop), add(xE, xs.e_c));
    xN = add(xN, xs.n_loop);
    xB = lse(add(xN, xs.n_move), add(xJ, xs.j_move));
  }
  add(xC, xs.c_move).store(scores);
}

}  // namespace finehmm::cpu::simd_kernels
