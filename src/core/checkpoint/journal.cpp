#include "core/checkpoint/journal.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <new>

#include "util/bytes.hpp"
#include "util/env.hpp"

namespace encdns::core {
namespace {

constexpr char kMagic[8] = {'E', 'N', 'C', 'D', 'N', 'S', 'W', 'J'};
constexpr std::size_t kHeaderSize = 24;
constexpr std::size_t kRecordHeaderSize = 16;  // key_len, body_len, checksum

[[nodiscard]] std::string journal_path(const std::string& dir) {
  return dir + "/journal.bin";
}
[[nodiscard]] std::string commit_path(const std::string& dir) {
  return dir + "/journal.commit";
}

void fsync_file(std::FILE* file, const std::string& what) {
  if (std::fflush(file) != 0 || ::fsync(::fileno(file)) != 0)
    throw JournalError("checkpoint: fsync of " + what + " failed: " +
                       std::strerror(errno));
}

/// Durability for the rename publishing the commit pointer.
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;  // best effort; data fsyncs already happened
  (void)::fsync(fd);
  ::close(fd);
}

/// A file opened for resume, closed on scope exit.
class InputFile {
 public:
  explicit InputFile(std::string path)
      : path_(std::move(path)), fd_(::open(path_.c_str(), O_RDONLY | O_CLOEXEC)) {
    if (fd_ < 0)
      throw JournalError("checkpoint: cannot open " + path_ + " for resume");
  }
  ~InputFile() { ::close(fd_); }
  InputFile(const InputFile&) = delete;
  InputFile& operator=(const InputFile&) = delete;

  [[nodiscard]] std::uint64_t size() const {
    struct stat st {};
    if (::fstat(fd_, &st) != 0) fail();
    return static_cast<std::uint64_t>(st.st_size);
  }

  /// Reads the file's first `n` bytes into `out`; returns how many it held
  /// (fewer than `n` only if the file ends first).
  std::size_t read_prefix(std::uint8_t* out, std::size_t n) const {
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::pread(fd_, out + got, n - got, static_cast<off_t>(got));
      if (r == 0) break;
      if (r < 0) {
        if (errno == EINTR) continue;
        fail();
      }
      got += static_cast<std::size_t>(r);
    }
    return got;
  }

 private:
  [[noreturn]] void fail() const {
    throw JournalError("checkpoint: read of " + path_ + " failed");
  }

  std::string path_;
  int fd_;
};

[[nodiscard]] JournalError outside_file(std::uint64_t committed,
                                        std::uint64_t file_bytes) {
  return JournalError("checkpoint: commit pointer (" +
                      std::to_string(committed) +
                      " bytes) is outside the journal file (" +
                      std::to_string(file_bytes) + " bytes)");
}

/// An uninitialised buffer for `n` journal bytes, released with std::free.
/// Large ones ask for transparent huge pages: read into 4 KiB pages, a
/// 166 MB journal spends about 40% of its read in page faults, and freeing
/// it again takes ~13 ms; in 2 MiB pages both nearly vanish.
[[nodiscard]] std::uint8_t* allocate_prefix(std::size_t n) {
  constexpr std::size_t kHugePage = std::size_t{2} << 20;
  void* bytes = nullptr;
  if (n < kHugePage) {
    bytes = std::malloc(n);
  } else {
    const std::size_t rounded = (n + kHugePage - 1) / kHugePage * kHugePage;
    bytes = std::aligned_alloc(kHugePage, rounded);
    if (bytes != nullptr) (void)::madvise(bytes, rounded, MADV_HUGEPAGE);
  }
  if (bytes == nullptr) throw std::bad_alloc();
  return static_cast<std::uint8_t*>(bytes);
}

/// Advances two FNV-1a states over the same bytes: the sidecar's prefix
/// checksum and a record's own. The two multiply chains are independent, so
/// the CPU overlaps them and the pair costs about what one chain costs.
void fnv1a_both(const std::uint8_t* data, std::size_t size,
                std::uint64_t& prefix, std::uint64_t& record) noexcept {
  std::uint64_t a = prefix;
  std::uint64_t b = record;
  for (std::size_t i = 0; i < size; ++i) {
    a = (a ^ data[i]) * util::kFnv1aPrime;
    b = (b ^ data[i]) * util::kFnv1aPrime;
  }
  prefix = a;
  record = b;
}

}  // namespace

void Journal::FreeBytes::operator()(std::uint8_t* bytes) const noexcept {
  std::free(bytes);
}

Journal::Journal(std::string dir, std::uint64_t fingerprint, bool resume)
    : dir_(std::move(dir)), fingerprint_(fingerprint) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    throw JournalError("checkpoint: cannot create directory " + dir_ + ": " +
                       ec.message());
  if (const auto env = util::env_positive_int("ENCDNS_CHECKPOINT_KILL_AFTER"))
    kill_after_ = static_cast<std::uint64_t>(*env);

  if (resume) {
    load_existing(fingerprint);
  } else {
    write_header(fingerprint);
  }
}

Journal::~Journal() {
  if (file_ != nullptr) std::fclose(file_);
}

void Journal::write_header(std::uint64_t fingerprint) {
  file_ = std::fopen(journal_path(dir_).c_str(), "wb");
  if (file_ == nullptr)
    throw JournalError("checkpoint: cannot create " + journal_path(dir_));
  util::ByteWriter header;
  for (const char c : kMagic) header.u8(static_cast<std::uint8_t>(c));
  header.u32(kVersion);
  header.u32(0);  // flags, reserved
  header.u64(fingerprint);
  const auto& bytes = header.data();
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size())
    throw JournalError("checkpoint: header write failed");
  fsync_file(file_, "journal.bin");
  committed_bytes_ = bytes.size();
  running_hash_ = util::fnv1a_bytes(bytes.data(), bytes.size());
  // Publish a commit pointer for the empty journal immediately, so a kill
  // before the first phase commit still leaves a resumable directory.
  publish_commit_pointer();
}

void Journal::load_existing(std::uint64_t fingerprint) {
  // --- sidecar -------------------------------------------------------------
  std::string sidecar;
  {
    const InputFile side(commit_path(dir_));
    sidecar.resize(static_cast<std::size_t>(side.size()));
    sidecar.resize(side.read_prefix(
        reinterpret_cast<std::uint8_t*>(sidecar.data()), sidecar.size()));
  }
  char tag[32] = {0};
  char ver[16] = {0};
  unsigned long long committed = 0;
  unsigned long long side_hash = 0;
  unsigned long long side_fp = 0;
  if (std::sscanf(sidecar.c_str(), "%31s %15s %llu %llx %llx", tag, ver,
                  &committed, &side_hash, &side_fp) != 5 ||
      std::string_view(tag) != "encdns-journal-commit" ||
      std::string_view(ver) != "v1")
    throw JournalError("checkpoint: malformed commit sidecar in " + dir_);
  if (side_fp != fingerprint)
    throw JournalError(
        "checkpoint: configuration fingerprint mismatch — the journal in " +
        dir_ + " was written by a different study configuration");

  // --- journal bytes: the committed prefix, read once ----------------------
  // Bytes past the commit pointer are a torn append and are never examined.
  // No mmap: a mapped file could change after it was validated.
  {
    const InputFile file(journal_path(dir_));
    const std::uint64_t file_bytes = file.size();
    if (committed < kHeaderSize || committed > file_bytes)
      throw outside_file(committed, file_bytes);
    loaded_.reset(allocate_prefix(committed));
    const std::size_t got = file.read_prefix(loaded_.get(), committed);
    if (got < committed) throw outside_file(committed, got);
  }
  const std::uint8_t* bytes = loaded_.get();
  if (std::memcmp(bytes, kMagic, sizeof kMagic) != 0)
    throw JournalError("checkpoint: bad journal magic in " + dir_);
  util::ByteReader header(bytes + sizeof kMagic, kHeaderSize - sizeof kMagic);
  const std::uint32_t version = header.u32();
  (void)header.u32();  // flags
  const std::uint64_t file_fp = header.u64();
  if (version != kVersion)
    throw JournalError("checkpoint: journal version " +
                       std::to_string(version) + " is not the supported v" +
                       std::to_string(kVersion));
  if (file_fp != fingerprint)
    throw JournalError(
        "checkpoint: configuration fingerprint mismatch — the journal in " +
        dir_ + " was written by a different study configuration");

  // --- one pass: prefix checksum and record checksums together -------------
  // `hash` covers bytes [0, hashed). A record that fails to parse or to
  // check stops the walk, but the prefix checksum still decides which error
  // wins: a prefix that fails it is reported as such, as if it had been
  // checked first.
  std::vector<Record> records;
  std::uint64_t hash = util::fnv1a_bytes(bytes, kHeaderSize);
  std::size_t hashed = kHeaderSize;
  std::string corrupt;
  try {
    util::ByteReader reader(bytes + kHeaderSize, committed - kHeaderSize);
    while (!reader.done()) {
      const std::size_t at = committed - reader.remaining();
      const std::uint32_t key_len = reader.u32();
      const std::uint32_t body_len = reader.u32();
      const std::uint64_t record_hash = reader.u64();
      if (static_cast<std::uint64_t>(key_len) + body_len > reader.remaining())
        throw util::CodecError("record length exceeds committed prefix");
      const auto key = reader.view(key_len);
      const auto body = reader.view(body_len);
      hash = util::fnv1a_bytes(bytes + at, kRecordHeaderSize, hash);
      std::uint64_t check = util::kFnv1aBasis;  // over key || body, adjacent
      fnv1a_both(key.data(), key.size() + body.size(), hash, check);
      hashed = committed - reader.remaining();
      if (check != record_hash)
        throw util::CodecError("record checksum mismatch");
      records.push_back(
          Record{{reinterpret_cast<const char*>(key.data()), key.size()}, body});
    }
  } catch (const util::CodecError& e) {
    corrupt = e.what();
  }
  hash = util::fnv1a_bytes(bytes + hashed, committed - hashed, hash);
  if (hash != side_hash)
    throw JournalError(
        "checkpoint: committed journal prefix fails its checksum — refusing "
        "to resume from " + dir_);
  if (!corrupt.empty())
    throw JournalError("checkpoint: corrupt journal record (" + corrupt +
                       ") — refusing to resume from " + dir_);
  records_ = std::move(records);

  // --- reopen for append, discarding any torn tail ------------------------
  std::error_code ec;
  std::filesystem::resize_file(journal_path(dir_), committed, ec);
  if (ec)
    throw JournalError("checkpoint: cannot truncate torn journal tail: " +
                       ec.message());
  file_ = std::fopen(journal_path(dir_).c_str(), "ab");
  if (file_ == nullptr)
    throw JournalError("checkpoint: cannot reopen " + journal_path(dir_));
  committed_bytes_ = committed;
  running_hash_ = hash;
}

const Journal::Record* Journal::find_last(std::string_view key) const {
  if (appended_.find(key) != appended_.end())
    throw std::logic_error("checkpoint: find_last(\"" + std::string(key) +
                           "\") after this process appended that key — "
                           "appends are write-only");
  for (auto it = records_.rbegin(); it != records_.rend(); ++it)
    if (it->key == key) return &*it;
  return nullptr;
}

void Journal::append(std::string_view key, const std::vector<std::uint8_t>& body) {
  util::ByteWriter record;
  record.u32(static_cast<std::uint32_t>(key.size()));
  record.u32(static_cast<std::uint32_t>(body.size()));
  record.u64(util::fnv1a_bytes(
      body.data(), body.size(),
      util::fnv1a_bytes(reinterpret_cast<const std::uint8_t*>(key.data()),
                        key.size())));
  for (const char c : key) record.u8(static_cast<std::uint8_t>(c));
  const auto& head = record.data();
  // An empty body's data() may be null, which fwrite must not be given.
  if (std::fwrite(head.data(), 1, head.size(), file_) != head.size() ||
      (!body.empty() &&
       std::fwrite(body.data(), 1, body.size(), file_) != body.size()))
    throw JournalError("checkpoint: journal append failed");
  running_hash_ = util::fnv1a_bytes(head.data(), head.size(), running_hash_);
  running_hash_ = util::fnv1a_bytes(body.data(), body.size(), running_hash_);
  pending_bytes_ += head.size() + body.size();
  if (appended_.find(key) == appended_.end()) appended_.emplace(key);
}

void Journal::publish_commit_pointer() {
  char line[128];
  std::snprintf(line, sizeof line, "encdns-journal-commit v1 %" PRIu64
                " %016" PRIx64 " %016" PRIx64 "\n",
                committed_bytes_, running_hash_, fingerprint_);
  const std::string tmp = commit_path(dir_) + ".tmp";
  std::FILE* side = std::fopen(tmp.c_str(), "wb");
  if (side == nullptr)
    throw JournalError("checkpoint: cannot write commit sidecar in " + dir_);
  const std::size_t len = std::strlen(line);
  if (std::fwrite(line, 1, len, side) != len) {
    std::fclose(side);
    throw JournalError("checkpoint: commit sidecar write failed");
  }
  fsync_file(side, "journal.commit");
  std::fclose(side);
  if (std::rename(tmp.c_str(), commit_path(dir_).c_str()) != 0)
    throw JournalError("checkpoint: cannot publish commit pointer: " +
                       std::string(std::strerror(errno)));
  fsync_dir(dir_);
}

void Journal::commit() {
  fsync_file(file_, "journal.bin");
  committed_bytes_ += pending_bytes_;
  pending_bytes_ = 0;
  publish_commit_pointer();
  ++commit_count_;
  // Chaos hook: die the hard way right after the n-th durable commit.
  // tools/check.sh resumes the study from this exact state and diffs bytes.
  if (kill_after_ != 0 && commit_count_ >= kill_after_) {
    std::fprintf(stderr,
                 "checkpoint: ENCDNS_CHECKPOINT_KILL_AFTER=%" PRIu64
                 " reached, raising SIGKILL\n",
                 kill_after_);
    std::fflush(stderr);
    ::raise(SIGKILL);
  }
}

}  // namespace encdns::core
