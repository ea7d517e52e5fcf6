// Binary sequence database round trip and robustness, for both readers:
// the eager decoder (read_seq_db) and the zero-copy view (MappedSeqDb).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bio/fasta.hpp"
#include "bio/seq_db_io.hpp"
#include "bio/synthetic.hpp"
#include "util/error.hpp"

namespace {

using namespace finehmm;
using namespace finehmm::bio;

/// Self-deleting temp file holding the given bytes.  The path embeds a
/// process-wide counter plus the test name so concurrent ctest processes
/// (and sequential TempDbs within one test) never collide.
struct TempDb {
  std::string path;
  explicit TempDb(const std::string& bytes) {
    static int counter = 0;
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path = std::string("/tmp/finehmm_") +
           (info ? info->name() : "seqdb") + "_" +
           std::to_string(counter++) + ".fsqdb";
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ~TempDb() { std::remove(path.c_str()); }
};

std::string serialize(const SequenceDatabase& db) {
  std::ostringstream out(std::ios::binary);
  write_seq_db(out, db);
  return out.str();
}

SequenceDatabase mixed_db() {
  Pcg32 rng(47);
  SequenceDatabase db;
  for (int i = 0; i < 20; ++i)
    db.add(random_sequence(1 + rng.below(150), rng,
                           "seq_" + std::to_string(i)));
  db.add(Sequence::from_text("empty", ""));
  db.add(Sequence::from_text("degen", "ACDXBZJOU"));
  db.add(Sequence::from_text("", "ACD"));  // nameless is legal
  return db;
}

TEST(SeqDbIo, RoundTripPreservesEverything) {
  Pcg32 rng(41);
  SequenceDatabase db;
  for (int i = 0; i < 25; ++i)
    db.add(random_sequence(1 + rng.below(200), rng, "seq_" +
                                                        std::to_string(i)));
  // Include degenerate codes too.
  db.add(Sequence::from_text("degen", "ACDXBZJOU"));

  std::ostringstream out(std::ios::binary);
  write_seq_db(out, db);
  std::istringstream in(out.str(), std::ios::binary);
  auto back = read_seq_db(in);

  ASSERT_EQ(back.size(), db.size());
  EXPECT_EQ(back.total_residues(), db.total_residues());
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(back[i].name, db[i].name);
    EXPECT_EQ(back[i].codes, db[i].codes);
  }
}

TEST(SeqDbIo, SmallerThanFasta) {
  auto spec = SyntheticDbSpec::swissprot_like(0.0001);
  auto db = generate_database(spec);
  std::ostringstream bin(std::ios::binary);
  write_seq_db(bin, db);
  std::ostringstream fasta;
  write_fasta(fasta, db);
  EXPECT_LT(bin.str().size(), fasta.str().size() * 3 / 4);
}

TEST(SeqDbIo, RejectsGarbage) {
  std::istringstream in("not a database at all, sorry", std::ios::binary);
  EXPECT_THROW(read_seq_db(in), Error);
}

TEST(SeqDbIo, RejectsTruncation) {
  Pcg32 rng(43);
  SequenceDatabase db;
  for (int i = 0; i < 5; ++i) db.add(random_sequence(50, rng));
  std::ostringstream out(std::ios::binary);
  write_seq_db(out, db);
  std::string bytes = out.str();
  for (std::size_t frac = 1; frac <= 3; ++frac) {
    std::istringstream in(bytes.substr(0, bytes.size() * frac / 4),
                          std::ios::binary);
    EXPECT_THROW(read_seq_db(in), Error) << frac;
  }
}

TEST(SeqDbIo, TruncationErrorNamesTheField) {
  SequenceDatabase db;
  db.add(Sequence::from_text("a", "ACDEF"));
  std::string bytes = serialize(db);
  // Cut inside the residue words (keep header + index intact).
  std::istringstream in(bytes.substr(0, bytes.size() - 2),
                        std::ios::binary);
  try {
    read_seq_db(in);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("residue words"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// MappedSeqDb: the zero-copy reader must agree byte-for-byte with the
// eager decoder on the same file, on both backings.

TEST(MappedSeqDb, MatchesEagerReaderOnBothBackings) {
  auto db = mixed_db();
  TempDb file(serialize(db));
  for (auto backing :
       {MappedSeqDb::Backing::kAuto, MappedSeqDb::Backing::kBuffered}) {
    MappedSeqDb mapped(file.path, backing);
    ASSERT_EQ(mapped.size(), db.size());
    EXPECT_EQ(mapped.total_residues(), db.total_residues());
    EXPECT_EQ(mapped.max_length(), db.max_length());
    for (std::size_t i = 0; i < db.size(); ++i) {
      EXPECT_EQ(mapped.name(i), db[i].name) << i;
      ASSERT_EQ(mapped.length(i), db[i].length()) << i;
      auto packed = mapped.residues(i);
      for (std::size_t r = 0; r < db[i].length(); ++r)
        ASSERT_EQ(packed[r], db[i].codes[r]) << i << ":" << r;
    }
    auto materialized = mapped.materialize();
    ASSERT_EQ(materialized.size(), db.size());
    for (std::size_t i = 0; i < db.size(); ++i) {
      EXPECT_EQ(materialized[i].name, db[i].name);
      EXPECT_EQ(materialized[i].codes, db[i].codes);
    }
  }
}

TEST(MappedSeqDb, PrefersMmapWhereAvailable) {
  auto db = mixed_db();
  TempDb file(serialize(db));
  MappedSeqDb mapped(file.path);
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(mapped.mmap_backed());
#endif
  MappedSeqDb buffered(file.path, MappedSeqDb::Backing::kBuffered);
  EXPECT_FALSE(buffered.mmap_backed());
}

TEST(MappedSeqDb, MoveTransfersTheView) {
  auto db = mixed_db();
  TempDb file(serialize(db));
  for (auto backing :
       {MappedSeqDb::Backing::kAuto, MappedSeqDb::Backing::kBuffered}) {
    MappedSeqDb a(file.path, backing);
    MappedSeqDb b(std::move(a));
    ASSERT_EQ(b.size(), db.size());
    EXPECT_EQ(b.name(0), db[0].name);
    EXPECT_EQ(b.residues(0)[0], db[0].codes[0]);
    MappedSeqDb c(file.path, backing);
    c = std::move(b);
    ASSERT_EQ(c.size(), db.size());
    EXPECT_EQ(c.name(1), db[1].name);
  }
}

TEST(MappedSeqDb, EmptyDatabase) {
  TempDb file(serialize(SequenceDatabase{}));
  MappedSeqDb mapped(file.path);
  EXPECT_EQ(mapped.size(), 0u);
  EXPECT_EQ(mapped.total_residues(), 0u);
  EXPECT_EQ(mapped.max_length(), 0u);
}

TEST(MappedSeqDb, RejectsTruncationAtEveryPrefix) {
  SequenceDatabase db;
  Pcg32 rng(51);
  for (int i = 0; i < 3; ++i) db.add(random_sequence(20, rng));
  std::string bytes = serialize(db);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    TempDb file(bytes.substr(0, cut));
    EXPECT_THROW(MappedSeqDb m(file.path), Error) << "cut=" << cut;
  }
}

TEST(MappedSeqDb, RejectsGarbageAndBadMagic) {
  {
    TempDb file("not a database at all, sorry");
    EXPECT_THROW(MappedSeqDb m(file.path), Error);
  }
  {
    EXPECT_THROW(MappedSeqDb m("/tmp/finehmm_test_does_not_exist.fsqdb"),
                 Error);
  }
}

TEST(MappedSeqDb, RejectsCorruptResidueCodes) {
  SequenceDatabase db;
  db.add(Sequence::from_text("a", "ACDEFG"));
  std::string bytes = serialize(db);
  // The packed words are the last 4 bytes; force residue 0's 5-bit slot to
  // 31 (a pad code, invalid inside a sequence).
  bytes[bytes.size() - 4] = static_cast<char>(
      static_cast<unsigned char>(bytes[bytes.size() - 4]) | 0x1f);
  TempDb file(bytes);
  EXPECT_THROW(MappedSeqDb m(file.path), Error);
}

/// A one-sequence database whose residue word `word` (counted from the
/// first payload word) has 5-bit field `field` forced to `code`.
std::string with_residue_field(const std::string& text, std::size_t word,
                               unsigned field, std::uint32_t code) {
  SequenceDatabase db;
  db.add(Sequence::from_text("a", text));
  std::string bytes = serialize(db);
  const std::size_t n_words = (text.size() + 5) / 6;
  const std::size_t at = bytes.size() - 4 * (n_words - word);
  std::uint32_t w;
  std::memcpy(&w, bytes.data() + at, sizeof(w));
  w = (w & ~(0x1fu << (5 * field))) | (code << (5 * field));
  std::memcpy(bytes.data() + at, &w, sizeof(w));
  return bytes;
}

// Open-time validation tests whole words at once: every field position of
// a full word must be checked, codes 29..31 rejected and 28 kept.
TEST(MappedSeqDb, ValidatesEveryFieldOfAFullWord) {
  for (unsigned field = 0; field < 6; ++field) {
    for (std::uint32_t code : {29u, 30u, 31u}) {
      TempDb file(with_residue_field("ACDEFG", 0, field, code));
      EXPECT_THROW(MappedSeqDb m(file.path), Error)
          << "field=" << field << " code=" << code;
    }
    TempDb file(with_residue_field("ACDEFG", 0, field, 28));
    MappedSeqDb m(file.path);
    EXPECT_EQ(m.residues(0)[field], 28) << "field=" << field;
  }
}

// In a partial last word only the fields inside the sequence are codes;
// the pad fields past its length are never inspected.
TEST(MappedSeqDb, ValidatesOnlyTheLiveFieldsOfTheLastWord) {
  // "ACDEFGHI": word 1 holds residues 6 and 7, then four pad fields.
  for (std::uint32_t code : {29u, 30u}) {
    for (unsigned pad = 2; pad < 6; ++pad) {
      TempDb file(with_residue_field("ACDEFGHI", 1, pad, code));
      EXPECT_NO_THROW(MappedSeqDb m(file.path)) << "pad field " << pad;
    }
  }
  for (std::uint32_t code : {29u, 30u, 31u}) {
    TempDb file(with_residue_field("ACDEFGHI", 1, 1, code));
    EXPECT_THROW(MappedSeqDb m(file.path), Error) << "code=" << code;
  }
}

TEST(MappedSeqDb, RejectsWordCountMismatch) {
  SequenceDatabase db;
  db.add(Sequence::from_text("a", "ACDEFGH"));
  std::string bytes = serialize(db);
  // total_words sits 8 bytes before the (two-word) residue payload.
  bytes[bytes.size() - 2 * 4 - 8] ^= 1;
  TempDb file(bytes);
  EXPECT_THROW(MappedSeqDb m(file.path), Error);
}

}  // namespace
