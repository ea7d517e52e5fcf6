#include "cpu/stripes.hpp"

#include "bio/alphabet.hpp"

namespace finehmm::cpu {

namespace {

/// A fresh Q*N array per stripe row, every slot `pad`, with position k's
/// value at(k) placed for k = 1..M.
template <class T, class At>
void stripe(aligned_vector<T>& out, const Striping& s, int M, T pad,
            At&& at) {
  out.assign(s.size(), pad);
  for (int k = 1; k <= M; ++k) out[s.slot(k)] = at(k);
}

/// kKp residue rows of Q*N, residue x's position k from at(x, k).
template <class T, class At>
void stripe_rows(aligned_vector<T>& out, const Striping& s, int M, T pad,
                 At&& at) {
  out.assign(static_cast<std::size_t>(bio::kKp) * s.size(), pad);
  for (int x = 0; x < bio::kKp; ++x) {
    T* row = out.data() + static_cast<std::size_t>(x) * s.size();
    for (int k = 1; k <= M; ++k) row[s.slot(k)] = at(x, k);
  }
}

}  // namespace

MsvStripes::MsvStripes(const profile::MsvProfile& prof, int lanes)
    : s_(Striping::of(prof.length(), lanes)) {
  stripe_rows(rows_, s_, prof.length(), std::uint8_t{255},
              [&](int x, int k) { return prof.cost(x, k); });
}

VitStripes::VitStripes(const profile::VitProfile& prof, int lanes)
    : s_(Striping::of(prof.length(), lanes)) {
  const int M = prof.length();
  const std::int16_t pad = profile::kWordNegInf;
  stripe_rows(msc_, s_, M, pad, [&](int x, int k) { return prof.msc(x, k); });
  stripe(tmm_, s_, M, pad, [&](int k) { return prof.tmm_in(k); });
  stripe(tim_, s_, M, pad, [&](int k) { return prof.tim_in(k); });
  stripe(tdm_, s_, M, pad, [&](int k) { return prof.tdm_in(k); });
  stripe(tmi_, s_, M, pad, [&](int k) { return prof.tmi_at(k); });
  stripe(tii_, s_, M, pad, [&](int k) { return prof.tii_at(k); });
  stripe(tmd_, s_, M, pad, [&](int k) { return prof.tmd_out(k); });
  stripe(tdd_, s_, M, pad, [&](int k) { return prof.tdd_out(k); });
}

simd_kernels::VitStripesView VitStripes::view() const {
  simd_kernels::VitStripesView st;
  st.msc = msc_.data();
  st.tmm = tmm_.data();
  st.tim = tim_.data();
  st.tdm = tdm_.data();
  st.tmi = tmi_.data();
  st.tii = tii_.data();
  st.tmd = tmd_.data();
  st.tdd = tdd_.data();
  st.Q = s_.Q;
  return st;
}

FwdStripes::FwdStripes(const profile::FwdProfile& prof, int lanes)
    : s_(Striping::of(prof.length(), lanes)), entry_(prof.entry()) {
  const int M = prof.length();
  stripe_rows(odds_, s_, M, 0.0f,
              [&](int x, int k) { return prof.odds_at(x, k); });
  stripe(tmm_, s_, M, 0.0f, [&](int k) { return prof.tmm_at(k); });
  stripe(tim_, s_, M, 0.0f, [&](int k) { return prof.tim_at(k); });
  stripe(tdm_, s_, M, 0.0f, [&](int k) { return prof.tdm_at(k); });
  stripe(tmi_, s_, M, 0.0f, [&](int k) { return prof.tmi_at(k); });
  stripe(tii_, s_, M, 0.0f, [&](int k) { return prof.tii_at(k); });
  stripe(tmd_, s_, M, 0.0f, [&](int k) { return prof.tmd_in_at(k); });
  stripe(tdd_, s_, M, 0.0f, [&](int k) { return prof.tdd_in_at(k); });

  // Out-indexed: slot(k) <- the in-indexed value at k+1; position M (and
  // padding) keeps zero, terminating every Backward chain.
  auto next = [&](float (profile::FwdProfile::*at)(int) const) {
    return [&prof, at, M](int k) { return k < M ? (prof.*at)(k + 1) : 0.0f; };
  };
  stripe(tmm_out_, s_, M, 0.0f, next(&profile::FwdProfile::tmm_at));
  stripe(tim_out_, s_, M, 0.0f, next(&profile::FwdProfile::tim_at));
  stripe(tdm_out_, s_, M, 0.0f, next(&profile::FwdProfile::tdm_at));
  stripe(tmd_out_, s_, M, 0.0f, next(&profile::FwdProfile::tmd_in_at));
  stripe(tdd_out_, s_, M, 0.0f, next(&profile::FwdProfile::tdd_in_at));
}

simd_kernels::FwdStripesView FwdStripes::view() const {
  simd_kernels::FwdStripesView st;
  st.odds = odds_.data();
  st.tmm = tmm_.data();
  st.tim = tim_.data();
  st.tdm = tdm_.data();
  st.tmi = tmi_.data();
  st.tii = tii_.data();
  st.tmd = tmd_.data();
  st.tdd = tdd_.data();
  st.tmm_out = tmm_out_.data();
  st.tim_out = tim_out_.data();
  st.tdm_out = tdm_out_.data();
  st.tmd_out = tmd_out_.data();
  st.tdd_out = tdd_out_.data();
  st.entry = entry_;
  st.Q = s_.Q;
  return st;
}

}  // namespace finehmm::cpu
