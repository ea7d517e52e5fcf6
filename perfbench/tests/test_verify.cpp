// The verifier counts every way an operation can go wrong as a failure.
#include <gtest/gtest.h>

#include <cstring>

#include "server/protocol.hpp"
#include "verify.hpp"

namespace perfbench {
namespace {

using namespace finehmm;

server::SearchResultWire sample_reply() {
  server::SearchResultWire w;
  w.trace_id = 7;
  w.db_sequences = 100;
  w.db_residues = 36000;
  w.msv.n_in = 100;
  w.msv.n_passed = 3;
  w.msv.cells = 3.6e6;
  for (int i = 0; i < 3; ++i) {
    pipeline::Hit h;
    h.seq_index = static_cast<std::size_t>(10 * i);
    h.name = "seq" + std::to_string(i);
    h.fwd_bits = 30.5f - static_cast<float>(i);
    h.pvalue = 1e-9 * (i + 1);
    h.evalue = 1e-7 * (i + 1);
    w.hits.push_back(h);
  }
  return w;
}

server::RemoteResult ok_reply(server::SearchResultWire w) {
  server::RemoteResult r;
  r.status = server::ClientStatus::kOk;
  r.result = std::move(w);
  return r;
}

const std::vector<std::uint8_t>& reference() {
  static const std::vector<std::uint8_t> ref =
      normalized_search(sample_reply());
  return ref;
}

/// The tally after one operation with this reply.
Tally tally_of(const server::RemoteResult& r) {
  Tally t;
  t.add(classify(r, reference()));
  return t;
}

TEST(Verify, IdenticalReplyWithAnotherTraceIdIsOk) {
  server::SearchResultWire w = sample_reply();
  w.trace_id = 99;
  const Tally t = tally_of(ok_reply(w));
  EXPECT_EQ(t.counts[static_cast<int>(Outcome::kOk)], 1u);
  EXPECT_EQ(t.attempted, 1u);
  EXPECT_EQ(t.failed(), 0u);
}

TEST(Verify, FlippedHitIsAFailure) {
  server::SearchResultWire w = sample_reply();
  // One bit of one score: still a plausible reply, but not the reference.
  std::uint32_t bits = 0;
  std::memcpy(&bits, &w.hits[1].fwd_bits, sizeof bits);
  bits ^= 1u;
  std::memcpy(&w.hits[1].fwd_bits, &bits, sizeof bits);
  const Tally t = tally_of(ok_reply(w));
  EXPECT_EQ(t.counts[static_cast<int>(Outcome::kMismatch)], 1u);
  EXPECT_EQ(t.failed(), 1u);
}

TEST(Verify, DroppedReplyIsAFailure) {
  // The stream died before the reply came.
  Tally t = tally_of(ok_reply(sample_reply()));
  t.add(classify(server::RemoteResult{}, reference()));
  EXPECT_EQ(t.attempted, 2u);
  EXPECT_EQ(t.failed(), 1u);
  EXPECT_EQ(t.counts[static_cast<int>(Outcome::kDropped)], 1u);
}

TEST(Verify, OverloadIsAFailure) {
  server::RemoteResult r;
  r.status = server::ClientStatus::kOverloaded;
  r.overload = {64};
  const Tally t = tally_of(r);
  EXPECT_EQ(t.counts[static_cast<int>(Outcome::kOverload)], 1u);
  EXPECT_EQ(t.failed(), 1u);
}

TEST(Verify, DeadlineErrorAndDegradedAreFailures) {
  server::RemoteResult deadline, error;
  deadline.status = error.status = server::ClientStatus::kError;
  deadline.error = {server::ErrorCode::kDeadlineExpired, ""};
  error.error = {server::ErrorCode::kInternal, "boom"};
  server::SearchResultWire w = sample_reply();
  w.flags = server::kResultDegraded;
  EXPECT_EQ(classify(deadline, reference()), Outcome::kDeadline);
  EXPECT_EQ(classify(error, reference()), Outcome::kError);
  EXPECT_EQ(classify(ok_reply(w), reference()), Outcome::kDegraded);
  Tally t;
  for (const server::RemoteResult* r : {&deadline, &error})
    t.add(classify(*r, reference()));
  t.add(classify(ok_reply(w), reference()));
  EXPECT_EQ(t.attempted, 3u);
  EXPECT_EQ(t.failed(), 3u);
}

TEST(Verify, ScanIgnoresFusePlanButNotHits) {
  server::ScanResultWire ref;
  ref.db_sequences = 100;
  ref.models.push_back({"m0", sample_reply().hits});
  const std::vector<std::uint8_t> expected = normalized_scan(ref);
  server::RemoteScanResult got;
  got.status = server::ClientStatus::kOk;
  got.result = ref;
  got.result.trace_id = 5;
  got.result.fuse_groups = 3;
  got.result.lane_occupancy = 0.75;
  EXPECT_EQ(classify(got, expected), Outcome::kOk);
  got.result.models[0].hits.pop_back();
  EXPECT_EQ(classify(got, expected), Outcome::kMismatch);
  EXPECT_EQ(classify(server::RemoteScanResult{}, expected), Outcome::kDropped);
}

}  // namespace
}  // namespace perfbench
