// Write-ahead phase journal for checkpointed study execution (DESIGN.md §13).
//
// On-disk layout inside the checkpoint directory:
//
//   journal.bin     header | record | record | ... | (possibly torn tail)
//     header        magic "ENCDNSWJ" (8B) | u32 version | u32 flags |
//                   u64 config fingerprint                  — 24 bytes, LE
//     record        u32 key_len | u32 body_len | u64 fnv1a64(key||body) |
//                   key bytes | body bytes
//
//   journal.commit  one text line, atomically renamed into place AFTER the
//                   journal bytes are fsync'd:
//                     encdns-journal-commit v1 <committed_bytes>
//                       <fnv1a64_hex of bytes [0, committed)> <fingerprint_hex>
//
// The sidecar is the commit pointer: everything before `committed_bytes` is
// durable and checksummed; anything after it is a torn append from a crash
// and is truncated on reopen. Resume validation is strictly fail-closed —
// wrong magic/version/fingerprint, a sidecar that disagrees with the file,
// a checksum mismatch anywhere in the committed prefix, or a record that
// does not parse exactly all throw JournalError; a journal never half-loads.
//
// Resume reads the committed prefix once, into one owned buffer, and
// validates it in a single pass that advances the sidecar checksum and each
// record's checksum together; the loaded records are views into that buffer,
// so the bytes that were validated are exactly the bytes later decoded.
// Appends are write-only: a process never reads back what it appended (every
// phase loads its records before it first writes that key), so their bodies
// go to the file and nowhere else, and writer memory does not grow with the
// journal.
//
// ENCDNS_CHECKPOINT_KILL_AFTER=<n> is the chaos hook: the process SIGKILLs
// itself immediately after the n-th successful commit, which is how
// tools/check.sh proves kill-at-any-boundary + --resume is byte-identical.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace encdns::core {

/// Any checkpoint-directory problem that must prevent a resume.
class JournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Journal {
 public:
  static constexpr std::uint32_t kVersion = 1;

  /// Open `dir`'s journal. resume=false starts fresh (truncating any prior
  /// journal); resume=true validates and loads the committed records, then
  /// reopens for append with any torn tail discarded. The directory is
  /// created if missing.
  Journal(std::string dir, std::uint64_t fingerprint, bool resume);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// A loaded record: views into the validated buffer read at open, valid
  /// for the Journal's lifetime.
  struct Record {
    std::string_view key;
    std::span<const std::uint8_t> body;
  };

  /// The records committed when the journal was opened, in append order
  /// (later records with the same key supersede earlier ones; find_last
  /// implements that rule). This process's own appends are not listed.
  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }
  /// Newest loaded record for `key`, or null. Throws std::logic_error if
  /// this process has appended `key`: its newest body is in the file only,
  /// and returning the loaded one would hand back a stale record.
  [[nodiscard]] const Record* find_last(std::string_view key) const;

  /// Append a record to the write buffer. Not durable until commit().
  void append(std::string_view key, const std::vector<std::uint8_t>& body);

  /// Make every appended record durable: fsync the journal, then atomically
  /// publish the new commit pointer. On return the journal survives SIGKILL.
  void commit();

  [[nodiscard]] std::uint64_t commit_count() const noexcept {
    return commit_count_;
  }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  void write_header(std::uint64_t fingerprint);
  void load_existing(std::uint64_t fingerprint);
  void publish_commit_pointer();

  std::string dir_;
  std::uint64_t fingerprint_ = 0;
  std::FILE* file_ = nullptr;
  struct FreeBytes {
    void operator()(std::uint8_t* bytes) const noexcept;
  };
  std::unique_ptr<std::uint8_t[], FreeBytes> loaded_;  // prefix read at open
  std::vector<Record> records_;                        // views into loaded_
  std::set<std::string, std::less<>> appended_;  // keys this process wrote
  std::uint64_t committed_bytes_ = 0;  // durable prefix length
  std::uint64_t pending_bytes_ = 0;    // appended since last commit
  std::uint64_t running_hash_ = 0;     // fnv1a64 of all bytes written so far
  std::uint64_t commit_count_ = 0;
  std::uint64_t kill_after_ = 0;  // ENCDNS_CHECKPOINT_KILL_AFTER (0 = off)
};

}  // namespace encdns::core
