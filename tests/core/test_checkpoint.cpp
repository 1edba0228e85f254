// Write-ahead journal + StudyCheckpoint (DESIGN.md §13). The load-bearing
// property is fail-closed resume: a journal either loads exactly the records
// the killed process committed, or throws JournalError — it never half-loads
// — while a torn tail past the commit pointer is silently discarded (that is
// the SIGKILL-mid-append case the design exists for).
#include "core/checkpoint/checkpoint.hpp"
#include "core/checkpoint/journal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dns/query.hpp"
#include "support/fail_closed.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace encdns::core {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kFingerprint = 0x1122334455667788ull;

[[nodiscard]] std::vector<std::uint8_t> copy_of(
    std::span<const std::uint8_t> body) {
  return {body.begin(), body.end()};
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/encdns_ckpt_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string journal_file() const { return dir_ + "/journal.bin"; }
  [[nodiscard]] std::string commit_file() const { return dir_ + "/journal.commit"; }

  [[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path) const {
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
  }
  void write_file(const std::string& path,
                  const std::vector<std::uint8_t>& bytes) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  /// A journal with three committed records ("alpha" superseded once).
  void seed_journal() const {
    Journal journal(dir_, kFingerprint, /*resume=*/false);
    journal.append("alpha", {1, 2, 3});
    journal.append("beta", {4, 5});
    journal.commit();
    journal.append("alpha", {9, 9, 9});
    journal.commit();
  }

  std::string dir_;
};

TEST_F(CheckpointTest, CommittedRecordsSurviveReopen) {
  seed_journal();
  Journal journal(dir_, kFingerprint, /*resume=*/true);
  ASSERT_EQ(journal.records().size(), 3u);
  EXPECT_EQ(journal.records()[0].key, "alpha");
  EXPECT_EQ(journal.records()[1].key, "beta");
  const Journal::Record* last = journal.find_last("alpha");
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(copy_of(last->body), (std::vector<std::uint8_t>{9, 9, 9}));
  EXPECT_EQ(journal.find_last("gamma"), nullptr);
}

TEST_F(CheckpointTest, UncommittedAppendIsDiscardedOnReopen) {
  {
    Journal journal(dir_, kFingerprint, false);
    journal.append("alpha", {1});
    journal.commit();
    journal.append("torn", {2, 3, 4});  // no commit: dies before durable
  }
  Journal journal(dir_, kFingerprint, true);
  EXPECT_EQ(journal.records().size(), 1u);
  EXPECT_EQ(journal.find_last("torn"), nullptr);
}

TEST_F(CheckpointTest, TornTailBeyondCommitPointerIsTruncated) {
  seed_journal();
  // Simulate SIGKILL mid-append: garbage after the committed prefix.
  std::ofstream out(journal_file(), std::ios::binary | std::ios::app);
  out << "garbage bytes from a torn write";
  out.close();
  Journal journal(dir_, kFingerprint, true);
  EXPECT_EQ(journal.records().size(), 3u);
}

TEST_F(CheckpointTest, ResumeAfterTornTailTruncationCanAppendAgain) {
  seed_journal();
  std::ofstream(journal_file(), std::ios::binary | std::ios::app) << "torn";
  {
    Journal journal(dir_, kFingerprint, true);
    journal.append("gamma", {7});
    journal.commit();
  }
  Journal journal(dir_, kFingerprint, true);
  ASSERT_EQ(journal.records().size(), 4u);
  EXPECT_EQ(journal.records().back().key, "gamma");
}

TEST_F(CheckpointTest, ZeroLengthJournalFailsClosed) {
  seed_journal();
  write_file(journal_file(), {});
  EXPECT_THROW(Journal(dir_, kFingerprint, true), JournalError);
}

TEST_F(CheckpointTest, MissingJournalFailsClosed) {
  EXPECT_THROW(Journal(dir_, kFingerprint, true), JournalError);
}

TEST_F(CheckpointTest, MissingCommitSidecarFailsClosed) {
  seed_journal();
  fs::remove(commit_file());
  EXPECT_THROW(Journal(dir_, kFingerprint, true), JournalError);
}

TEST_F(CheckpointTest, JournalShorterThanCommitPointerFailsClosed) {
  seed_journal();
  auto bytes = read_file(journal_file());
  bytes.resize(bytes.size() - 1);
  write_file(journal_file(), bytes);
  EXPECT_THROW(Journal(dir_, kFingerprint, true), JournalError);
}

TEST_F(CheckpointTest, BitFlipInCommittedPrefixFailsClosed) {
  seed_journal();
  auto bytes = read_file(journal_file());
  bytes[bytes.size() / 2] ^= 0x40;
  write_file(journal_file(), bytes);
  EXPECT_THROW(Journal(dir_, kFingerprint, true), JournalError);
}

TEST_F(CheckpointTest, VersionSkewFailsClosed) {
  seed_journal();
  auto bytes = read_file(journal_file());
  bytes[8] ^= 0xFF;  // u32 version lives right after the 8-byte magic
  write_file(journal_file(), bytes);
  EXPECT_THROW(Journal(dir_, kFingerprint, true), JournalError);
}

TEST_F(CheckpointTest, WrongMagicFailsClosed) {
  seed_journal();
  auto bytes = read_file(journal_file());
  bytes[0] = 'X';
  write_file(journal_file(), bytes);
  EXPECT_THROW(Journal(dir_, kFingerprint, true), JournalError);
}

TEST_F(CheckpointTest, FingerprintMismatchFailsClosed) {
  seed_journal();
  EXPECT_THROW(Journal(dir_, kFingerprint ^ 1, true), JournalError);
}

TEST_F(CheckpointTest, RandomSingleBitCorruptionNeverHalfLoads) {
  seed_journal();
  const auto pristine_journal = read_file(journal_file());
  const auto pristine_commit = read_file(commit_file());
  util::Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 100; ++trial) {
    auto journal_bytes = pristine_journal;
    auto commit_bytes = pristine_commit;
    const bool hit_sidecar = rng.chance(0.3);
    auto& target = hit_sidecar ? commit_bytes : journal_bytes;
    const std::size_t at =
        static_cast<std::size_t>(rng.next() % target.size());
    target[at] ^= static_cast<std::uint8_t>(1u << (rng.next() % 8));
    write_file(journal_file(), journal_bytes);
    write_file(commit_file(), commit_bytes);
    try {
      Journal journal(dir_, kFingerprint, true);
      // A flip the validator tolerated must not have changed what loads:
      // the only acceptable outcomes are "throws" and "exact records".
      ASSERT_EQ(journal.records().size(), 3u) << "trial " << trial;
      EXPECT_EQ(copy_of(journal.find_last("alpha")->body),
                (std::vector<std::uint8_t>{9, 9, 9}))
          << "trial " << trial;
    } catch (const JournalError&) {
      // fail-closed: the expected outcome
    }
    write_file(journal_file(), pristine_journal);
    write_file(commit_file(), pristine_commit);
  }
  // The pristine pair must still load (the loop restored it).
  Journal journal(dir_, kFingerprint, true);
  EXPECT_EQ(journal.records().size(), 3u);
}

// One pass validates both checksums, but the errors keep the order of the
// two-pass loader: a prefix failing the sidecar checksum is reported as such
// even when a record inside it is broken too, and a record error surfaces
// only under a prefix that checks. The sidecar is re-published over edited
// bytes to reach each record error.
TEST_F(CheckpointTest, LoaderReportsThePrefixChecksumBeforeRecordErrors) {
  seed_journal();
  const auto pristine = read_file(journal_file());
  const auto republish = [&](const std::vector<std::uint8_t>& bytes,
                             std::size_t committed) {
    write_file(journal_file(), bytes);
    char line[128];
    std::snprintf(line, sizeof line,
                  "encdns-journal-commit v1 %zu %016llx %016llx\n", committed,
                  static_cast<unsigned long long>(
                      util::fnv1a_bytes(bytes.data(), committed)),
                  static_cast<unsigned long long>(kFingerprint));
    write_file(commit_file(), std::vector<std::uint8_t>(
                                  line, line + std::strlen(line)));
  };
  const auto error = [&] {
    try {
      Journal journal(dir_, kFingerprint, true);
    } catch (const JournalError& e) {
      return std::string(e.what());
    }
    return std::string("loaded");
  };
  constexpr std::size_t kFirstRecord = 24;  // after the file header

  auto bytes = pristine;
  bytes[kFirstRecord + 8] ^= 0x01;  // the first record's own checksum
  write_file(journal_file(), bytes);
  EXPECT_NE(error().find("fails its checksum"), std::string::npos) << error();
  republish(bytes, bytes.size());
  EXPECT_NE(error().find("corrupt journal record (record checksum mismatch)"),
            std::string::npos)
      << error();

  bytes = pristine;
  bytes[kFirstRecord + 4] = 0xFF;  // body_len overruns the prefix
  republish(bytes, bytes.size());
  EXPECT_NE(error().find("(record length exceeds committed prefix)"),
            std::string::npos)
      << error();

  republish(pristine, kFirstRecord + 5);  // the prefix ends inside a header
  EXPECT_NE(error().find("(bytes: truncated input (need 4, have 1))"),
            std::string::npos)
      << error();
}

// Appends are write-only: find_last serves the records loaded at open and
// refuses a key this process appended, whose newest body it no longer holds.
TEST_F(CheckpointTest, FindLastSeesLoadedRecordsAndRefusesOwnAppends) {
  seed_journal();
  {
    Journal journal(dir_, kFingerprint, true);
    ASSERT_NE(journal.find_last("alpha"), nullptr);
    journal.append("gamma", {7});
    journal.append("alpha", {8});
    EXPECT_THROW((void)journal.find_last("gamma"), std::logic_error);
    EXPECT_THROW((void)journal.find_last("alpha"), std::logic_error);
    ASSERT_NE(journal.find_last("beta"), nullptr);  // not appended: still served
    EXPECT_EQ(copy_of(journal.find_last("beta")->body),
              (std::vector<std::uint8_t>{4, 5}));
    EXPECT_EQ(journal.records().size(), 3u);  // appends are not listed
    journal.commit();
  }
  Journal journal(dir_, kFingerprint, true);
  ASSERT_EQ(journal.records().size(), 5u);
  EXPECT_EQ(copy_of(journal.find_last("alpha")->body),
            (std::vector<std::uint8_t>{8}));
  EXPECT_EQ(copy_of(journal.find_last("gamma")->body),
            (std::vector<std::uint8_t>{7}));
}

// --- the v1 on-disk format, pinned -------------------------------------------

[[nodiscard]] std::vector<std::uint8_t> fixture_skeleton() {
  std::vector<std::uint8_t> skeleton(40);
  for (std::size_t i = 0; i < skeleton.size(); ++i)
    skeleton[i] = static_cast<std::uint8_t>(i * 7);
  return skeleton;
}

/// The appends the committed fixture in tests/core/data/journal_v1 was
/// written with, by the journal code that held every body in memory.
void append_fixture_records(Journal& journal) {
  journal.append("phase:alpha", {1, 2, 3});
  journal.append("partial:beta", {});
  journal.commit();
  journal.append("phase:alpha", {9, 9, 9});
  journal.append("obs:skeleton", fixture_skeleton());
  journal.commit();
  journal.append("partial:beta", {0xFF});
  journal.commit();
}

[[nodiscard]] std::string fixture_file(const char* name) {
  return std::string(ENCDNS_JOURNAL_FIXTURE_DIR) + "/" + name;
}

TEST_F(CheckpointTest, V1FixtureLoadsItsExactRecords) {
  for (const char* name : {"journal.bin", "journal.commit"})
    fs::copy_file(fixture_file(name), dir_ + "/" + name);
  Journal journal(dir_, kFingerprint, true);
  const std::vector<std::pair<std::string, std::vector<std::uint8_t>>> expected =
      {{"phase:alpha", {1, 2, 3}},
       {"partial:beta", {}},
       {"phase:alpha", {9, 9, 9}},
       {"obs:skeleton", fixture_skeleton()},
       {"partial:beta", {0xFF}}};
  ASSERT_EQ(journal.records().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(journal.records()[i].key, expected[i].first) << "record " << i;
    EXPECT_EQ(copy_of(journal.records()[i].body), expected[i].second)
        << "record " << i;
  }
  EXPECT_EQ(journal.find_last("phase:alpha"), &journal.records()[2]);
  EXPECT_EQ(journal.find_last("partial:beta"), &journal.records()[4]);
}

TEST_F(CheckpointTest, V1WriterReproducesTheFixtureByteForByte) {
  {
    Journal journal(dir_, kFingerprint, false);
    append_fixture_records(journal);
  }
  EXPECT_EQ(read_file(journal_file()), read_file(fixture_file("journal.bin")));
  EXPECT_EQ(read_file(commit_file()), read_file(fixture_file("journal.commit")));
}

// --- fail-closed fuzzing of the loader ----------------------------------------

// Every strict prefix and every single-byte flip of journal.bin and of its
// sidecar either throws JournalError or loads exactly the committed records.
// The journal covers a superseded key, an empty body and a body over 64 KiB;
// the large body is sampled at a fixed stride, every other byte is visited.
TEST_F(CheckpointTest, LoaderFailsClosedOnEveryPrefixAndByteFlip) {
  std::vector<std::uint8_t> large(70000);
  for (std::size_t i = 0; i < large.size(); ++i)
    large[i] = static_cast<std::uint8_t>(util::mix64(i));
  const std::vector<std::pair<std::string, std::vector<std::uint8_t>>> expected =
      {{"phase:alpha", {1, 2, 3}},   {"partial:beta", {}},
       {"partial:gamma", large},     {"phase:alpha", {9, 9, 9}},
       {"obs:skeleton", {4, 5}},     {"partial:beta", {6}}};
  {
    Journal journal(dir_, kFingerprint, false);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      journal.append(expected[i].first, expected[i].second);
      if (i % 2 == 1) journal.commit();
    }
  }
  const auto pristine_journal = read_file(journal_file());
  const auto pristine_commit = read_file(commit_file());
  const auto large_at = static_cast<std::size_t>(
      std::search(pristine_journal.begin(), pristine_journal.end(),
                  large.begin(), large.end()) -
      pristine_journal.begin());
  ASSERT_LT(large_at, pristine_journal.size());
  constexpr std::size_t kStride = 1021;
  const auto sampled = [&](std::size_t i) {
    return i < large_at || i >= large_at + large.size() ||
           (i - large_at) % kStride == 0;
  };

  // Returns whether the load threw; a load that did not throw must be exact.
  const auto load = [&](const std::string& what) {
    try {
      Journal journal(dir_, kFingerprint, true);
      EXPECT_EQ(journal.records().size(), expected.size()) << what;
      for (std::size_t i = 0;
           i < std::min(expected.size(), journal.records().size()); ++i) {
        EXPECT_EQ(journal.records()[i].key, expected[i].first) << what;
        EXPECT_EQ(copy_of(journal.records()[i].body), expected[i].second)
            << what;
      }
      return false;
    } catch (const JournalError&) {
      return true;
    }
  };

  // The committed prefix has no slack: every prefix falls short of the
  // commit pointer and every flip breaks the prefix checksum.
  std::size_t journal_cases = 0;
  fuzz::for_each_prefix_and_flip(
      pristine_journal,
      [&](const std::vector<std::uint8_t>& mutated, const std::string& what) {
        write_file(journal_file(), mutated);
        write_file(commit_file(), pristine_commit);
        EXPECT_TRUE(load("journal.bin " + what)) << what;
        ++journal_cases;
      },
      sampled);
  EXPECT_GT(journal_cases, 2 * (large.size() / kStride));

  std::size_t sidecar_throws = 0;
  fuzz::for_each_prefix_and_flip(
      pristine_commit,
      [&](const std::vector<std::uint8_t>& mutated, const std::string& what) {
        write_file(journal_file(), pristine_journal);
        write_file(commit_file(), mutated);
        if (load("journal.commit " + what)) ++sidecar_throws;
      });
  EXPECT_GT(sidecar_throws, 0u);

  write_file(journal_file(), pristine_journal);
  write_file(commit_file(), pristine_commit);
  EXPECT_FALSE(load("pristine"));
}

TEST_F(CheckpointTest, KillAfterEnvSigkillsAtTheConfiguredCommit) {
  EXPECT_EXIT(
      {
        ::setenv("ENCDNS_CHECKPOINT_KILL_AFTER", "2", 1);
        Journal journal(dir_, kFingerprint, false);
        journal.append("a", {1});
        journal.commit();  // commit 1: survives
        journal.append("b", {2});
        journal.commit();  // commit 2: SIGKILL fires here
        std::_Exit(0);     // never reached
      },
      ::testing::KilledBySignal(SIGKILL), "");
}

// --- cursor / metrics codecs -------------------------------------------------

WorldCursor sample_cursor() {
  WorldCursor cursor;
  cursor.platform.rng.words = {1, 2, 3, 4};
  cursor.platform.rng.cached_normal = 0.25;
  cursor.platform.rng.has_cached_normal = true;
  cursor.platform.next_id = 42;
  cache::ExportedEntry entry;
  entry.key = "example.com|A|853";
  entry.expiry_s = 1234567;
  cache::CachedAnswer nxdomain;
  nxdomain.rcode = dns::RCode::kNxDomain;
  entry.wire = cache::encode_answer(nxdomain);
  cursor.caches.push_back({entry});
  cursor.caches.push_back({});  // second backend, empty cache
  return cursor;
}

TEST_F(CheckpointTest, CursorCodecRoundTripsByteIdentically) {
  util::ByteWriter w;
  encode_cursor(w, sample_cursor());
  util::ByteReader r(w.data());
  const WorldCursor decoded = decode_cursor(r);
  r.expect_done();
  EXPECT_EQ(decoded.platform.next_id, 42u);
  EXPECT_EQ(decoded.platform.rng.words[3], 4u);
  ASSERT_EQ(decoded.caches.size(), 2u);
  ASSERT_EQ(decoded.caches[0].size(), 1u);
  EXPECT_EQ(decoded.caches[0][0].key, "example.com|A|853");
  dns::RCode rcode = dns::RCode::kNoError;
  std::vector<dns::ResourceRecord> records;
  ASSERT_TRUE(cache::decode_answer_into(decoded.caches[0][0].wire, rcode, records));
  EXPECT_EQ(rcode, dns::RCode::kNxDomain);
  util::ByteWriter again;
  encode_cursor(again, decoded);
  EXPECT_EQ(again.data(), w.data());
}

TEST_F(CheckpointTest, TruncatedCursorFailsClosed) {
  util::ByteWriter w;
  encode_cursor(w, sample_cursor());
  util::ByteReader r(w.data().data(), w.size() - 3);
  EXPECT_THROW((void)decode_cursor(r), util::CodecError);
}

// The journal layout predates the slab cache: an entry's blob must still be
// exactly `Message{qr=1, rcode, answers}.encode(false)`, for every rdata
// shape, now that export copies the slot's bytes instead of re-encoding.
TEST_F(CheckpointTest, ExportedCacheBlobIsTheUncompressedAnswerMessage) {
  const dns::Name owner = *dns::Name::parse("shape.example");
  const dns::Name target = *dns::Name::parse("target.shape.example");
  dns::Ipv6Bytes v6{};
  v6[0] = 0x20;
  v6[1] = 0x01;
  v6[15] = 0x07;
  dns::SoaData soa;  // rname shares the owner's suffix: in-record pointers
  soa.mname = *dns::Name::parse("ns1.shape.example");
  soa.rname = *dns::Name::parse("hostmaster.shape.example");
  soa.serial = 2019030101;
  dns::ResourceRecord unknown;
  unknown.name = owner;
  unknown.type = static_cast<dns::RrType>(300);
  unknown.rdata = dns::RawData{1, 2, 3};

  std::vector<cache::CachedAnswer> answers(10);
  answers[0].answers = {dns::ResourceRecord::a(owner, util::Ipv4(192, 0, 2, 1), 60)};
  answers[1].answers = {dns::ResourceRecord::aaaa(owner, v6, 300)};
  answers[2].answers = {dns::ResourceRecord::cname(owner, target, 300),
                        dns::ResourceRecord::a(target, util::Ipv4(192, 0, 2, 2), 300)};
  answers[3].answers = {dns::ResourceRecord::ns(owner, target)};
  answers[4].answers = {dns::ResourceRecord::ptr(owner, target)};
  answers[5].answers = {dns::ResourceRecord::soa(owner, soa)};
  answers[6].answers = {dns::ResourceRecord::txt(owner, {"v=spf1 -all", ""}, 300)};
  answers[7].answers = {unknown};
  answers[8].rcode = dns::RCode::kNxDomain;  // negative: no records
  // answers[9]: NODATA

  cache::DnsCache cache;
  for (std::size_t i = 0; i < answers.size(); ++i)
    ASSERT_TRUE(cache.store("shape" + std::to_string(i) + "/1", answers[i], 0));

  WorldCursor cursor;
  cursor.caches.push_back(cache.export_entries());
  ASSERT_EQ(cursor.caches[0].size(), answers.size());
  util::ByteWriter w;
  encode_cursor(w, cursor);
  util::ByteReader r(w.data());
  const WorldCursor decoded = decode_cursor(r);
  for (const auto& entry : decoded.caches[0]) {
    const std::size_t i = std::stoul(entry.key.substr(5));
    dns::Message message;
    message.header.qr = true;
    message.header.rcode = answers[i].rcode;
    message.answers = answers[i].answers;
    EXPECT_EQ(entry.wire, message.encode(/*compress=*/false)) << entry.key;
  }
}

// Restore copies blobs into cache slots unexamined, so the journal decoder
// runs each one through the DNS decoder: garbage, a truncated message, or a
// full query (question section) all fail closed.
TEST_F(CheckpointTest, MalformedCacheBlobFailsClosed) {
  const dns::Message query =
      dns::make_query(*dns::Name::parse("example.com"), dns::RrType::kA, 7);
  auto truncated = cache::encode_answer(cache::CachedAnswer{
      dns::RCode::kNoError,
      {dns::ResourceRecord::a(*dns::Name::parse("example.com"),
                              util::Ipv4(192, 0, 2, 1))}});
  truncated.pop_back();
  for (const auto& bad : {std::vector<std::uint8_t>{0x00, 0x01, 0x02},
                          truncated, query.encode(false)}) {
    WorldCursor cursor = sample_cursor();
    cursor.caches[0][0].wire = bad;
    util::ByteWriter w;
    encode_cursor(w, cursor);
    util::ByteReader r(w.data());
    EXPECT_THROW((void)decode_cursor(r), util::CodecError);
  }

  WorldCursor cursor = sample_cursor();
  cursor.caches[0][0].wire = query.encode(false);
  {
    StudyCheckpoint checkpoint(dir_, kFingerprint, false);
    checkpoint.commit_phase_delta("scan_campaign", {1}, cursor, obs::Snapshot{});
  }
  StudyCheckpoint checkpoint(dir_, kFingerprint, true);
  EXPECT_THROW((void)checkpoint.load_phase_delta("scan_campaign"), JournalError);
}

// --- StudyCheckpoint over the journal ---------------------------------------

/// A phase's own metrics delta as a record carries it.
obs::Snapshot sample_delta(std::uint64_t queries) {
  obs::Snapshot delta;
  delta.counters.push_back({"test.checkpoint.queries", queries, false});
  return delta;
}

TEST_F(CheckpointTest, PhaseCommitRoundTripsStateAndCursor) {
  const std::vector<std::uint8_t> state = {0xDE, 0xAD, 0xBE, 0xEF};
  {
    StudyCheckpoint checkpoint(dir_, kFingerprint, false);
    checkpoint.commit_phase_delta("scan_campaign", state, sample_cursor(),
                                  sample_delta(5));
  }
  StudyCheckpoint checkpoint(dir_, kFingerprint, true);
  const auto loaded = checkpoint.load_phase_delta("scan_campaign");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->state, state);
  EXPECT_EQ(loaded->cursor.platform.next_id, 42u);
  const auto caches = export_section(loaded->caches);
  ASSERT_EQ(caches.size(), 2u);
  ASSERT_EQ(caches[0].size(), 1u);
  EXPECT_EQ(caches[0][0].expiry_s, 1234567);
  ASSERT_EQ(loaded->metrics.counters.size(), 1u);
  EXPECT_EQ(loaded->metrics.counters[0].value, 5u);
  EXPECT_FALSE(checkpoint.load_phase_delta("doh_discovery").has_value());
}

TEST_F(CheckpointTest, PartialsSupersedeAndPhaseWinsOverPartial) {
  const auto capture = [] {
    return sample_cursor();  // capture: cache contents at save time
  };
  {
    StudyCheckpoint checkpoint(dir_, kFingerprint, false);
    EXPECT_FALSE(checkpoint.load_partial_delta("performance").has_value());
    EXPECT_FALSE(checkpoint.has_partial("performance"));
    auto hook = checkpoint.phase_delta_hook("performance", sample_cursor(),
                                            capture);
    EXPECT_FALSE(hook->load().has_value());
    hook->save({1});
    hook->save({2, 2});
    // Appends are write-only: the saves are read back after a reopen.
    EXPECT_THROW((void)checkpoint.load_partial_delta("performance"),
                 std::logic_error);
  }
  {
    StudyCheckpoint checkpoint(dir_, kFingerprint, true);
    EXPECT_TRUE(checkpoint.has_partial("performance"));
    auto resumed = checkpoint.load_partial_delta("performance");
    ASSERT_TRUE(resumed.has_value());
    // The hook hands over the record the caller decoded; it does not decode
    // the partial a second time.
    auto hook = checkpoint.phase_delta_hook("performance", resumed->cursor,
                                            capture, std::move(resumed));
    EXPECT_EQ(hook->load().value(), (std::vector<std::uint8_t>{2, 2}));
    checkpoint.commit_phase_delta("performance", {3, 3, 3}, sample_cursor(),
                                  obs::Snapshot{});
  }
  StudyCheckpoint checkpoint(dir_, kFingerprint, true);
  const auto loaded = checkpoint.load_phase_delta("performance");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->state, (std::vector<std::uint8_t>{3, 3, 3}));
}

TEST_F(CheckpointTest, PartialPreCursorKeepsThePrePhasePlatformPosition) {
  // The hybrid-cursor contract: platform cursors in a partial are the
  // pre-phase ones (the prologue re-runs on resume), even though cache
  // contents are captured at save time.
  {
    StudyCheckpoint checkpoint(dir_, kFingerprint, false);
    WorldCursor pre = sample_cursor();
    pre.platform.next_id = 100;
    auto hook = checkpoint.phase_delta_hook("netflow", pre, [&] {
      WorldCursor advanced = sample_cursor();
      advanced.platform.next_id = 999;  // platform moved mid-phase
      advanced.caches[0][0].expiry_s = 77;     // cache state moved too
      return advanced;
    });
    hook->save({1});
  }
  StudyCheckpoint checkpoint(dir_, kFingerprint, true);
  const auto rewound = checkpoint.load_partial_delta("netflow");
  ASSERT_TRUE(rewound.has_value());
  EXPECT_EQ(rewound->cursor.platform.next_id, 100u);  // pre-phase, not 999
  EXPECT_EQ(export_section(rewound->caches)[0][0].expiry_s, 77);  // at-save
}

}  // namespace
}  // namespace encdns::core
