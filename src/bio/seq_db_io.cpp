#include "bio/seq_db_io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <utility>

#include "bio/alphabet.hpp"
#include "bio/packing.hpp"
#include "util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FINEHMM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define FINEHMM_HAVE_MMAP 0
#endif

namespace finehmm::bio {

namespace {

constexpr char kMagic[4] = {'F', 'S', 'Q', 'D'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kMaxSequences = 1ull << 32;
constexpr std::uint32_t kMaxNameLen = 1 << 12;
constexpr std::uint32_t kMaxSeqLen = 1u << 28;

std::size_t words_for(std::uint32_t length) {
  // pack_residues emits one pad word for empty sequences.
  return length == 0 ? 1 : (length + kResiduesPerWord - 1) / kResiduesPerWord;
}

// Word-at-a-time residue validation.  A 5-bit code is >= 29 (invalid)
// exactly when its bits 4, 3 and 2 are set and bit 1 or bit 0 is, so
// shifting those bits down onto each field's bit 0 and AND-ing tests all
// six fields of a word at once.
static_assert(kKp == 29 && kBitsPerResidue == 5 && kResiduesPerWord == 6,
              "invalid_fields tests for codes 29..31 in six 5-bit fields");
/// Bit 0 of each of the six residue fields (bits 0, 5, 10, 15, 20, 25).
constexpr std::uint32_t kFieldLowBits = 0x02108421u;

/// Nonzero when a residue field selected by `fields` (a subset of
/// kFieldLowBits) holds a code >= kKp.
constexpr std::uint32_t invalid_fields(std::uint32_t w, std::uint32_t fields) {
  return (w >> 2) & (w >> 3) & (w >> 4) & ((w >> 1) | w) & fields;
}

/// True when all `length` residues in the packed words at `p` are valid
/// codes; pad fields past the length are not inspected.
bool residues_valid(const unsigned char* p, std::uint32_t length) {
  const std::size_t full = length / kResiduesPerWord;
  std::uint32_t bad = 0;
  for (std::size_t i = 0; i < full; ++i) {
    std::uint32_t w;
    std::memcpy(&w, p + i * sizeof(w), sizeof(w));
    bad |= invalid_fields(w, kFieldLowBits);
  }
  if (const std::size_t rem = length % kResiduesPerWord; rem != 0) {
    std::uint32_t w;
    std::memcpy(&w, p + full * sizeof(w), sizeof(w));
    const std::uint32_t live = (1u << (rem * kBitsPerResidue)) - 1;
    bad |= invalid_fields(w, kFieldLowBits & live);
  }
  return bad == 0;
}

template <class T>
void put(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Read exactly `n` bytes or throw naming the field that came up short.
void read_exact(std::istream& in, void* dst, std::size_t n, const char* what) {
  in.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(in.gcount()) != n || !in.good()) {
    throw Error("truncated sequence database: short read of " +
                std::string(what) + " (wanted " + std::to_string(n) +
                " bytes, got " + std::to_string(in.gcount()) + ")");
  }
}

template <class T>
T get(std::istream& in, const char* what) {
  T v;
  read_exact(in, &v, sizeof(T), what);
  return v;
}

}  // namespace

void write_seq_db(std::ostream& out, const SequenceDatabase& db) {
  out.write(kMagic, sizeof(kMagic));
  put<std::uint32_t>(out, kVersion);
  put<std::uint64_t>(out, db.size());

  std::uint64_t total_words = 0;
  for (const auto& s : db) {
    FH_REQUIRE(s.name.size() <= kMaxNameLen, "sequence name too long");
    put<std::uint32_t>(out, static_cast<std::uint32_t>(s.name.size()));
    out.write(s.name.data(), static_cast<std::streamsize>(s.name.size()));
    put<std::uint32_t>(out, static_cast<std::uint32_t>(s.length()));
    total_words += words_for(static_cast<std::uint32_t>(s.length()));
  }
  put<std::uint64_t>(out, total_words);
  for (const auto& s : db) {
    auto words = pack_residues(s.codes);
    out.write(reinterpret_cast<const char*>(words.data()),
              static_cast<std::streamsize>(words.size() * sizeof(std::uint32_t)));
  }
  FH_REQUIRE(out.good(), "sequence database write failed");
}

void write_seq_db_file(const std::string& path, const SequenceDatabase& db) {
  std::ofstream out(path, std::ios::binary);
  FH_REQUIRE_IO(out.good(), "cannot open sequence database for writing: " + path);
  write_seq_db(out, db);
}

SequenceDatabase read_seq_db(std::istream& in) {
  char magic[4];
  read_exact(in, magic, sizeof(magic), "magic");
  FH_REQUIRE(std::memcmp(magic, kMagic, 4) == 0,
             "not a finehmm sequence database (bad magic)");
  auto version = get<std::uint32_t>(in, "version");
  FH_REQUIRE(version == kVersion, "unsupported sequence database version");
  auto count = get<std::uint64_t>(in, "sequence count");
  FH_REQUIRE(count <= kMaxSequences, "implausible sequence count");

  std::vector<std::string> names(count);
  std::vector<std::uint32_t> lengths(count);
  std::uint64_t expect_words = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    auto name_len = get<std::uint32_t>(in, "name length");
    FH_REQUIRE(name_len <= kMaxNameLen, "implausible name length");
    names[i].resize(name_len);
    read_exact(in, names[i].data(), name_len, "sequence name");
    lengths[i] = get<std::uint32_t>(in, "sequence length");
    FH_REQUIRE(lengths[i] <= kMaxSeqLen, "implausible sequence length");
    expect_words += words_for(lengths[i]);
  }
  auto total_words = get<std::uint64_t>(in, "word count");
  FH_REQUIRE(total_words == expect_words,
             "sequence database word count mismatch");

  SequenceDatabase db;
  db.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::size_t n_words = words_for(lengths[i]);
    std::vector<std::uint32_t> words(n_words);
    read_exact(in, words.data(), n_words * sizeof(std::uint32_t),
               "residue words");
    Sequence s;
    s.name = std::move(names[i]);
    s.codes = unpack_residues(words.data(), lengths[i]);
    for (auto c : s.codes)
      FH_REQUIRE(is_valid(c), "corrupt residue code in sequence database");
    db.add(std::move(s));
  }
  return db;
}

SequenceDatabase read_seq_db_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FH_REQUIRE_IO(in.good(), "cannot open sequence database: " + path);
  return read_seq_db(in);
}

// ---------------------------------------------------------------------------
// MappedSeqDb

MappedSeqDb::MappedSeqDb(const std::string& path, Backing backing) {
#if FINEHMM_HAVE_MMAP
  if (backing == Backing::kAuto) {
    int fd = ::open(path.c_str(), O_RDONLY);
    FH_REQUIRE_IO(fd >= 0, "cannot open sequence database: " + path);
    struct stat st;
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      void* addr = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                          PROT_READ, MAP_PRIVATE, fd, 0);
      if (addr != MAP_FAILED) {
        base_ = static_cast<const unsigned char*>(addr);
        file_size_ = static_cast<std::size_t>(st.st_size);
        mmap_backed_ = true;
#if defined(MADV_SEQUENTIAL)
        ::madvise(addr, file_size_, MADV_SEQUENTIAL);
#endif
#if defined(MADV_WILLNEED)
        ::madvise(addr, file_size_, MADV_WILLNEED);
#endif
      }
    }
    ::close(fd);
  }
#else
  (void)backing;
#endif
  if (!mmap_backed_) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    FH_REQUIRE_IO(in.good(), "cannot open sequence database: " + path);
    auto end = in.tellg();
    FH_REQUIRE(end >= 0, "cannot size sequence database: " + path);
    fallback_.resize(static_cast<std::size_t>(end));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(fallback_.data()),
            static_cast<std::streamsize>(fallback_.size()));
    FH_REQUIRE(static_cast<std::size_t>(in.gcount()) == fallback_.size(),
               "short read while buffering sequence database: " + path);
    base_ = fallback_.data();
    file_size_ = fallback_.size();
  }
  try {
    parse_and_validate(path);
  } catch (...) {
    release();
    throw;
  }
}

MappedSeqDb::~MappedSeqDb() { release(); }

MappedSeqDb::MappedSeqDb(MappedSeqDb&& other) noexcept
    : base_(other.base_),
      file_size_(other.file_size_),
      mmap_backed_(other.mmap_backed_),
      fallback_(std::move(other.fallback_)),
      index_(std::move(other.index_)),
      total_residues_(other.total_residues_),
      max_length_(other.max_length_) {
  if (!mmap_backed_ && !fallback_.empty()) base_ = fallback_.data();
  other.base_ = nullptr;
  other.file_size_ = 0;
  other.mmap_backed_ = false;
}

MappedSeqDb& MappedSeqDb::operator=(MappedSeqDb&& other) noexcept {
  if (this != &other) {
    release();
    base_ = other.base_;
    file_size_ = other.file_size_;
    mmap_backed_ = other.mmap_backed_;
    fallback_ = std::move(other.fallback_);
    index_ = std::move(other.index_);
    total_residues_ = other.total_residues_;
    max_length_ = other.max_length_;
    if (!mmap_backed_ && !fallback_.empty()) base_ = fallback_.data();
    other.base_ = nullptr;
    other.file_size_ = 0;
    other.mmap_backed_ = false;
  }
  return *this;
}

void MappedSeqDb::release() noexcept {
#if FINEHMM_HAVE_MMAP
  if (mmap_backed_ && base_ != nullptr)
    ::munmap(const_cast<unsigned char*>(base_), file_size_);
#endif
  base_ = nullptr;
  file_size_ = 0;
  mmap_backed_ = false;
  fallback_.clear();
  index_.clear();
}

void MappedSeqDb::parse_and_validate(const std::string& path) {
  std::size_t off = 0;
  auto need = [&](std::size_t n, const char* what) {
    if (file_size_ - off < n || file_size_ < off) {
      throw Error("truncated sequence database " + path + ": " +
                  std::string(what) + " at byte " + std::to_string(off) +
                  " needs " + std::to_string(n) + " bytes, file has " +
                  std::to_string(file_size_ - off) + " left");
    }
  };
  auto get_u32 = [&](const char* what) {
    need(sizeof(std::uint32_t), what);
    std::uint32_t v;
    std::memcpy(&v, base_ + off, sizeof(v));
    off += sizeof(v);
    return v;
  };
  auto get_u64 = [&](const char* what) {
    need(sizeof(std::uint64_t), what);
    std::uint64_t v;
    std::memcpy(&v, base_ + off, sizeof(v));
    off += sizeof(v);
    return v;
  };

  need(sizeof(kMagic), "magic");
  FH_REQUIRE(std::memcmp(base_, kMagic, sizeof(kMagic)) == 0,
             "not a finehmm sequence database (bad magic): " + path);
  off += sizeof(kMagic);
  auto version = get_u32("version");
  FH_REQUIRE(version == kVersion,
             "unsupported sequence database version: " + path);
  auto count = get_u64("sequence count");
  FH_REQUIRE(count <= kMaxSequences, "implausible sequence count: " + path);
  // Each sequence needs at least 8 header bytes; reject counts that cannot
  // fit in the file before reserving index memory for them.
  FH_REQUIRE(count <= file_size_ / (2 * sizeof(std::uint32_t)),
             "sequence count exceeds file size: " + path);

  index_.resize(count);
  std::uint64_t expect_words = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    Entry& e = index_[i];
    e.name_len = get_u32("name length");
    FH_REQUIRE(e.name_len <= kMaxNameLen, "implausible name length: " + path);
    need(e.name_len, "sequence name");
    e.name_offset = off;
    off += e.name_len;
    e.length = get_u32("sequence length");
    FH_REQUIRE(e.length <= kMaxSeqLen, "implausible sequence length: " + path);
    expect_words += words_for(e.length);
    total_residues_ += e.length;
    if (e.length > max_length_) max_length_ = e.length;
  }
  auto total_words = get_u64("word count");
  FH_REQUIRE(total_words == expect_words,
             "sequence database word count mismatch: " + path);
  need(total_words * sizeof(std::uint32_t), "residue words");
  for (std::uint64_t i = 0; i < count; ++i) {
    index_[i].word_offset = off;
    off += words_for(index_[i].length) * sizeof(std::uint32_t);
  }

  // Validate every residue code once so scan kernels can index emission
  // tables straight from the packed stream.
  for (std::uint64_t i = 0; i < count; ++i) {
    FH_REQUIRE(residues_valid(base_ + index_[i].word_offset, index_[i].length),
               "corrupt residue code in sequence database: " + path +
                   " (sequence " + std::to_string(i) + ")");
  }
}

SequenceDatabase MappedSeqDb::materialize() const {
  SequenceDatabase db;
  db.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    Sequence s;
    s.name = std::string(name(i));
    s.codes.resize(length(i));
    unpack_into(residues(i), length(i), s.codes.data());
    db.add(std::move(s));
  }
  return db;
}

}  // namespace finehmm::bio
