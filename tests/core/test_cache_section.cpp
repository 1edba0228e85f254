// Relative cache sections of the checkpoint journal (DESIGN.md §13): each
// cursor record's cache section is encoded against the resolved section of
// the previous record of the same phase. The load-bearing properties are
// exactness (decoding a chain gives every export back, entry for entry and
// byte for byte, in order), linear size (an unchanged export costs a
// constant number of bytes), and fail-closed decoding (a section that
// reaches outside its base, overruns its count, names an unknown op, or
// carries a malformed answer throws instead of decoding wrongly).
#include "core/checkpoint/checkpoint.hpp"
#include "core/checkpoint/journal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "cache/dns_cache.hpp"
#include "dns/query.hpp"
#include "obs/metrics.hpp"
#include "support/fail_closed.hpp"
#include "util/bytes.hpp"
#include "util/fields.hpp"
#include "util/rng.hpp"

namespace encdns::core {
namespace {

namespace fs = std::filesystem;

using Caches = std::vector<std::vector<cache::ExportedEntry>>;

constexpr std::uint64_t kFingerprint = 0x5EC7105EC7105EC7ull;

void expect_same_caches(const Caches& got, const Caches& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t b = 0; b < want.size(); ++b) {
    ASSERT_EQ(got[b].size(), want[b].size()) << what << ", backend " << b;
    for (std::size_t i = 0; i < want[b].size(); ++i) {
      EXPECT_EQ(got[b][i].key, want[b][i].key) << what << ", entry " << i;
      EXPECT_EQ(got[b][i].expiry_s, want[b][i].expiry_s) << what;
      EXPECT_EQ(got[b][i].wire, want[b][i].wire) << what;
    }
  }
}

[[nodiscard]] cache::CachedAnswer random_answer(util::Rng& rng,
                                                const dns::Name& owner) {
  static constexpr std::uint32_t kTtls[] = {1, 30, 300, 3600};
  const std::uint32_t ttl = kTtls[rng.below(4)];
  cache::CachedAnswer answer;
  switch (rng.below(5)) {
    case 0:
      answer.rcode = dns::RCode::kNxDomain;
      break;
    case 1:
      break;  // NODATA
    case 2: {
      const dns::Name target = *owner.prefixed_with("edge");
      answer.answers.push_back(dns::ResourceRecord::cname(owner, target, ttl));
      answer.answers.push_back(dns::ResourceRecord::a(
          target, util::Ipv4(192, 0, 2, static_cast<std::uint8_t>(rng.below(256))),
          ttl));
      break;
    }
    default:
      for (std::uint64_t i = 0, n = 1 + rng.below(3); i < n; ++i)
        answer.answers.push_back(dns::ResourceRecord::a(
            owner, util::Ipv4(198, 51, 100, static_cast<std::uint8_t>(i)), ttl));
  }
  return answer;
}

/// One chain of sections as a journal holds it: every record's bytes stay
/// alive (later sections' copy runs point into them), and each record is
/// decoded against the resolved section of the one before.
class Chain {
 public:
  void append_and_check(const Caches& caches, const std::string& what) {
    util::ByteWriter w;
    encoder_.encode(w, caches);
    records_.push_back(w.take());
    util::ByteReader r(records_.back());
    CacheSection next;
    decode_cache_section(r, resolved_, next);
    EXPECT_NO_THROW(r.expect_done()) << what;
    expect_same_caches(export_section(next), caches, what);
    resolved_ = std::move(next);
  }

  /// A new process takes the chain over: its encoder starts from the
  /// section it resolved out of the journal.
  void restart() {
    encoder_ = CacheSectionEncoder{};
    encoder_.rebase(resolved_);
  }

  [[nodiscard]] const std::vector<std::vector<std::uint8_t>>& records() const {
    return records_;
  }

 private:
  CacheSectionEncoder encoder_;
  CacheSection resolved_;
  std::vector<std::vector<std::uint8_t>> records_;
};

// A seeded history of stores, refreshes, promoting lookups, expiry and the
// odd clear over two backends, exported after every step both by owner and
// in full; each export extends its own chain, which must decode back to
// every export exactly. Every so often a new "process" takes over the
// chain from its resolved section, as a resume does.
void run_history(std::size_t shards, std::uint64_t seed) {
  SCOPED_TRACE("shards " + std::to_string(shards) + ", seed " +
               std::to_string(seed));
  cache::CacheConfig config;
  config.shards = shards;
  config.max_entries = shards * 4;  // small enough to evict
  config.negative_ttl_s = 60;
  cache::DnsCache backends[2] = {cache::DnsCache(config), cache::DnsCache(config)};

  std::vector<std::string> keys;
  std::vector<dns::Name> names;
  for (std::size_t i = 0; i < 3 * config.max_entries + 3; ++i) {
    const std::string name = "h" + std::to_string(i) + ".test";
    keys.push_back(name + "/1");
    names.push_back(*dns::Name::parse(name));
  }
  obs::PhaseTally phase;
  obs::PhaseTally other;
  Chain by_owner;
  Chain full;
  util::Rng rng(seed);
  std::int64_t now = 5000;
  std::vector<dns::ResourceRecord> out;
  for (int step = 0; step < 160; ++step) {
    const std::string what = "step " + std::to_string(step);
    cache::DnsCache& cache = backends[rng.below(2)];
    const std::size_t k = rng.below(keys.size());
    const obs::ScopedTally scope(rng.chance(0.7) ? &phase : &other);
    const std::uint64_t op = rng.below(100);
    if (op < 45) {
      (void)cache.store(keys[k], random_answer(rng, names[k]), now);  // or refresh
    } else if (op < 75) {
      (void)cache.lookup(keys[k], now, out);  // a hit promotes
    } else if (op < 88) {
      now += static_cast<std::int64_t>(rng.below(400));  // entries expire
    } else if (op < 90) {
      cache.clear();
    }  // else: nothing changes
    if (rng.below(40) == 0) {
      by_owner.restart();
      full.restart();
    }
    by_owner.append_and_check({backends[0].export_entries(&phase),
                               backends[1].export_entries(&phase)},
                              what + " (by owner)");
    full.append_and_check(
        {backends[0].export_entries(), backends[1].export_entries()},
        what + " (full)");
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(CacheSection, ChainsOfRealCacheHistoriesDecodeExactly) {
  for (const std::size_t shards : {1u, 4u, 16u})
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      run_history(shards, seed * 104729 + shards);
      if (HasFailure()) return;
    }
}

TEST(CacheSection, UnchangedExportsCostConstantBytes) {
  cache::CacheConfig config;
  config.shards = 4;
  cache::DnsCache backends[2] = {cache::DnsCache(config), cache::DnsCache(config)};
  util::Rng rng(42);
  for (int i = 0; i < 300; ++i) {
    const std::string name = "u" + std::to_string(i) + ".test";
    ASSERT_TRUE(backends[i % 2].store(
        name + "/1", random_answer(rng, *dns::Name::parse(name)), 0));
  }
  const Caches caches{backends[0].export_entries(), backends[1].export_entries()};
  Chain chain;
  for (int k = 0; k < 8; ++k) chain.append_and_check(caches, "record " + std::to_string(k));
  std::size_t whole = 4;
  for (const auto& backend : caches) {
    whole += 4 + 5;  // entry count, one literal run header
    for (const auto& entry : backend)
      whole += 16 + entry.key.size() + entry.wire.size();
  }
  const auto& records = chain.records();
  EXPECT_EQ(records[0].size(), whole);
  // Per backend: the entry count and one copy run of the whole base.
  for (std::size_t k = 1; k < records.size(); ++k)
    EXPECT_EQ(records[k].size(), 4u + 2 * (4 + 9)) << "record " << k;
}

// --- structured mutations -----------------------------------------------------

/// A cursor's fixed fields (its platform cursor), zeroed.
void write_cursor_head(util::ByteWriter& w) {
  proxy::ProxyCursor zeroed;
  zeroed.next_id = 0;
  util::write(w, zeroed);
}

void write_entry(util::ByteWriter& w, const std::string& key,
                 const std::vector<std::uint8_t>& wire) {
  w.str(key);
  w.i64(777);
  w.blob(wire);
}

[[nodiscard]] std::vector<std::uint8_t> good_wire(std::uint8_t last_octet) {
  return cache::encode_answer(cache::CachedAnswer{
      dns::RCode::kNoError,
      {dns::ResourceRecord::a(*dns::Name::parse("m.test"),
                              util::Ipv4(192, 0, 2, last_octet))}});
}

/// The base every mutated section below is written against: one backend
/// holding three entries.
[[nodiscard]] Caches mutation_base() {
  Caches caches(1);
  for (std::uint8_t i = 0; i < 3; ++i)
    caches[0].push_back({"m" + std::to_string(i) + ".test/1", good_wire(i), 777});
  return caches;
}

struct Mutation {
  const char* name;
  const char* error;  // what the decoder's error message must name
  std::function<void(util::ByteWriter&)> section;
};

[[nodiscard]] std::vector<Mutation> mutations() {
  const auto copy = [](util::ByteWriter& w, std::uint32_t start,
                       std::uint32_t len) {
    w.u8(0);
    w.u32(start);
    w.u32(len);
  };
  const auto literal = [](util::ByteWriter& w, std::uint32_t len) {
    w.u8(1);
    w.u32(len);
  };
  dns::Message query =
      dns::make_query(*dns::Name::parse("m.test"), dns::RrType::kA, 7);
  std::vector<std::uint8_t> truncated = good_wire(9);
  truncated.pop_back();
  constexpr const char* kOutside = "outside its base";
  constexpr const char* kMisfit = "does not fit the entry count";
  constexpr const char* kWire = "malformed wire message";
  std::vector<Mutation> cases = {
      {"copy starting at the base's end", kOutside,
       [=](util::ByteWriter& w) { w.u32(1); w.u32(1); copy(w, 3, 1); }},
      {"copy running past the base's end", kOutside,
       [=](util::ByteWriter& w) { w.u32(1); w.u32(3); copy(w, 1, 3); }},
      {"copy from a wrapped-around start", kOutside,
       [=](util::ByteWriter& w) { w.u32(1); w.u32(2); copy(w, 0xFFFFFFFFu, 2); }},
      {"copy from a backend the base lacks", kOutside,
       [=](util::ByteWriter& w) {
         w.u32(2); w.u32(0); w.u32(1); copy(w, 0, 1);
         w.u64(0);  // trailing input, so the entry count itself is plausible
       }},
      {"empty copy run", kMisfit,
       [=](util::ByteWriter& w) { w.u32(1); w.u32(1); copy(w, 0, 0); copy(w, 0, 1); }},
      {"copy overrunning the entry count", kMisfit,
       [=](util::ByteWriter& w) { w.u32(1); w.u32(2); copy(w, 0, 3); }},
      {"copy runs repeating the base", "take more entries than the base",
       [=](util::ByteWriter& w) {
         w.u32(1); w.u32(6); copy(w, 0, 3); copy(w, 0, 3);
         for (int i = 0; i < 6; ++i) w.u64(0);  // the count itself is plausible
       }},
      {"entry count beyond base plus remaining/16", "exceeds its base",
       [=](util::ByteWriter& w) { w.u32(1); w.u32(4); copy(w, 0, 3); }},
      {"backend count beyond the input", "exceeds remaining input",
       [=](util::ByteWriter& w) { w.u32(0x10000000u); }},
      {"unknown op tag 2", "unknown op tag",
       [=](util::ByteWriter& w) { w.u32(1); w.u32(1); w.u8(2); w.u32(0); w.u32(1); }},
      {"unknown op tag 0xFF", "unknown op tag",
       [=](util::ByteWriter& w) { w.u32(1); w.u32(1); w.u8(0xFF); w.u32(0); w.u32(1); }},
      {"literal run overrunning the entry count", kMisfit,
       [=](util::ByteWriter& w) {
         w.u32(1); w.u32(1); literal(w, 2);
         write_entry(w, "x.test/1", good_wire(1));
         write_entry(w, "y.test/1", good_wire(2));
       }},
      {"empty literal run", kMisfit,
       [=](util::ByteWriter& w) { w.u32(1); w.u32(1); literal(w, 0); copy(w, 0, 1); }},
      {"literal wire that is not a message", kWire,
       [=](util::ByteWriter& w) {
         w.u32(1); w.u32(1); literal(w, 1);
         write_entry(w, "x.test/1", {0x00, 0x01, 0x02});
       }},
      {"literal wire truncated", kWire,
       [=](util::ByteWriter& w) {
         w.u32(1); w.u32(1); literal(w, 1);
         write_entry(w, "x.test/1", truncated);
       }},
      {"literal wire carrying a question", kWire,
       [=](util::ByteWriter& w) {
         w.u32(1); w.u32(1); literal(w, 1);
         write_entry(w, "x.test/1", query.encode(false));
       }},
      {"literal entry cut short", "exceeds remaining input",
       [=](util::ByteWriter& w) { w.u32(1); w.u32(1); literal(w, 1); w.str("x"); }},
  };
  return cases;
}

/// Runs `decode` and requires it to throw `Error` whose message names
/// `expected` — the check that rejected the input, not a later one.
template <typename Error, typename Decode>
void expect_rejected(Decode&& decode, const char* expected, const char* name) {
  try {
    decode();
    ADD_FAILURE() << name << ": decoded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << name << ": " << e.what();
  }
}

TEST(CacheSection, StructuredMutationsThrowInsteadOfDecoding) {
  // The base, resolved the way a journal read resolves it.
  util::ByteWriter first;
  CacheSectionEncoder encoder;
  encoder.encode(first, mutation_base());
  util::ByteReader first_reader(first.data());
  CacheSection base;
  decode_cache_section(first_reader, CacheSection{}, base);
  for (const Mutation& mutation : mutations()) {
    util::ByteWriter w;
    mutation.section(w);
    util::ByteReader r(w.data());
    CacheSection out;
    expect_rejected<util::CodecError>(
        [&] { decode_cache_section(r, base, out); }, mutation.error,
        mutation.name);
  }
  // The well-formed neighbour of those cases decodes: copy(0, 3) of the base.
  util::ByteWriter w;
  w.u32(1);
  w.u32(3);
  w.u8(0);
  w.u32(0);
  w.u32(3);
  util::ByteReader r(w.data());
  CacheSection out;
  decode_cache_section(r, base, out);
  expect_same_caches(export_section(out), mutation_base(), "copy(0, 3)");
}

// --- through the journal ------------------------------------------------------

class CacheSectionJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/encdns_section_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& name) const {
    std::ifstream in(dir_ + "/" + name, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }
  void write_file(const std::string& name,
                  const std::vector<std::uint8_t>& bytes) const {
    std::ofstream out(dir_ + "/" + name, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  /// A fresh journal holding exactly `records`, committed.
  void write_journal(
      const std::vector<std::pair<std::string, std::vector<std::uint8_t>>>& records)
      const {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    Journal journal(dir_, kFingerprint, /*resume=*/false);
    for (const auto& [key, body] : records) journal.append(key, body);
    journal.commit();
  }

  std::string dir_;
};

/// The cursor a phase would capture after `step` blocks: entries come and
/// go, and the survivors keep their relative order, as in an LRU export.
[[nodiscard]] WorldCursor cursor_at(int step) {
  WorldCursor cursor;
  cursor.platform.next_id = 11;
  cursor.caches.resize(2);
  for (int i = step; i < step + 5; ++i)
    cursor.caches[i % 2].push_back(
        {"c" + std::to_string(i) + ".test/1",
         good_wire(static_cast<std::uint8_t>(i)), 1000 + i});
  return cursor;
}

// Every strict prefix and every byte flip of a journal holding a three-record
// chain (and of its sidecar) fails closed or loads the newest record exactly.
TEST_F(CacheSectionJournalTest, ChainJournalFailsClosedOnEveryPrefixAndByteFlip) {
  {
    StudyCheckpoint checkpoint(dir_, kFingerprint, /*resume=*/false);
    int step = 0;
    auto hook = checkpoint.phase_delta_hook("netflow", WorldCursor{},
                                            [&] { return cursor_at(step); });
    for (step = 0; step < 3; ++step)
      hook->save({static_cast<std::uint8_t>(step)});
  }
  const auto pristine_journal = read_file("journal.bin");
  const auto pristine_commit = read_file("journal.commit");

  // Returns whether opening or loading threw; a load that did not throw
  // must give back the newest partial exactly.
  const auto load = [&](const std::string& what) {
    try {
      StudyCheckpoint checkpoint(dir_, kFingerprint, /*resume=*/true);
      EXPECT_EQ(checkpoint.journal().records().size(), 3u) << what;
      const auto loaded = checkpoint.load_partial_delta("netflow");
      EXPECT_TRUE(loaded.has_value()) << what;
      if (!loaded) return false;
      EXPECT_EQ(loaded->state, std::vector<std::uint8_t>{2}) << what;
      expect_same_caches(export_section(loaded->caches), cursor_at(2).caches, what);
      return false;
    } catch (const JournalError&) {
      return true;
    }
  };

  std::size_t journal_cases = 0;
  fuzz::for_each_prefix_and_flip(
      pristine_journal,
      [&](const std::vector<std::uint8_t>& mutated, const std::string& what) {
        write_file("journal.bin", mutated);
        write_file("journal.commit", pristine_commit);
        EXPECT_TRUE(load("journal.bin " + what)) << what;
        ++journal_cases;
      });
  EXPECT_EQ(journal_cases, 2 * pristine_journal.size());
  fuzz::for_each_prefix_and_flip(
      pristine_commit,
      [&](const std::vector<std::uint8_t>& mutated, const std::string& what) {
        write_file("journal.bin", pristine_journal);
        write_file("journal.commit", mutated);
        (void)load("journal.commit " + what);
      });
  write_file("journal.bin", pristine_journal);
  write_file("journal.commit", pristine_commit);
  EXPECT_FALSE(load("pristine"));

  // The chain really is relative: the later records copy the entries the
  // earlier ones carried instead of repeating them.
  const Journal journal(dir_, kFingerprint, /*resume=*/true);
  ASSERT_EQ(journal.records().size(), 3u);
  EXPECT_LT(journal.records()[2].body.size(), journal.records()[0].body.size());
}

[[nodiscard]] std::vector<std::uint8_t> partial_delta_body(
    const std::function<void(util::ByteWriter&)>& section) {
  util::ByteWriter w;
  w.u8(13);  // partial
  write_cursor_head(w);
  section(w);
  util::write(w, obs::Snapshot{}, std::vector<std::uint8_t>{1});
  return w.take();
}

// The decoder's CodecError reaches the caller as a JournalError, whichever
// record of the chain it comes from. (Inside a record the metrics and state
// follow the section, so a count check may pass there and a later check
// reject the same bytes.)
TEST_F(CacheSectionJournalTest, StructuredMutationsFailTheLoadClosed) {
  const auto first = partial_delta_body([](util::ByteWriter& w) {
    CacheSectionEncoder encoder;
    encoder.encode(w, mutation_base());
  });
  for (const Mutation& mutation : mutations()) {
    write_journal({{"partial:performance", first},
                   {"partial:performance", partial_delta_body(mutation.section)}});
    StudyCheckpoint checkpoint(dir_, kFingerprint, /*resume=*/true);
    expect_rejected<JournalError>(
        [&] { (void)checkpoint.load_partial_delta("performance"); },
        "corrupt partial-delta record", mutation.name);
  }
  // A broken record early in the chain fails the load of a later one.
  const auto malformed = partial_delta_body([](util::ByteWriter& w) {
    w.u32(1);
    w.u32(1);
    w.u8(1);
    w.u32(1);
    write_entry(w, "x.test/1", {0x00, 0x01, 0x02});
  });
  write_journal({{"partial:performance", malformed},
                 {"partial:performance", first}});
  StudyCheckpoint checkpoint(dir_, kFingerprint, /*resume=*/true);
  expect_rejected<JournalError>(
      [&] { (void)checkpoint.load_partial_delta("performance"); },
      "malformed wire message", "malformed first record");
}

// Records in a retired layout fail closed at the kind check: the
// whole-section journal's kinds 1–4 (every cache entry repeated in every
// record), the serial schedule's absolute kinds 6–7 (a phase record led by
// an `ordered` flag), kinds 8–9, whose cursors carried a resolver-cache
// tally, and kinds 10–11, whose cursors carried both platforms.
TEST_F(CacheSectionJournalTest, WholeSectionRecordsFailClosed) {
  const auto whole_section_body = [](std::uint8_t kind, bool ordered_flag) {
    util::ByteWriter w;
    w.u8(kind);
    if (ordered_flag) w.boolean(true);
    write_cursor_head(w);
    for (int field = 0; field < 6; ++field) w.u64(0);  // the retired tally
    const Caches caches = mutation_base();
    w.u32(static_cast<std::uint32_t>(caches.size()));
    for (const auto& backend : caches) {
      w.u32(static_cast<std::uint32_t>(backend.size()));
      for (const auto& entry : backend) write_entry(w, entry.key, entry.wire);
    }
    util::write(w, obs::Snapshot{}, std::vector<std::uint8_t>{1});
    return w.take();
  };
  struct Case {
    const char* key;
    std::uint8_t kind;
    bool ordered_flag;
    std::function<void(StudyCheckpoint&)> load;
  };
  const auto phase = [](StudyCheckpoint& c) {
    (void)c.load_phase_delta("netflow");
  };
  const auto partial = [](StudyCheckpoint& c) {
    (void)c.load_partial_delta("netflow");
  };
  const Case cases[] = {
      {"phase:netflow", 1, true, phase},    {"partial:netflow", 2, false, partial},
      {"phase:netflow", 3, false, phase},   {"partial:netflow", 4, false, partial},
      {"phase:netflow", 6, true, phase},    {"partial:netflow", 7, false, partial},
      {"phase:netflow", 8, false, phase},   {"partial:netflow", 9, false, partial},
      {"phase:netflow", 10, false, phase},  {"partial:netflow", 11, false, partial},
  };
  for (const Case& c : cases) {
    write_journal({{c.key, whole_section_body(c.kind, c.ordered_flag)}});
    StudyCheckpoint checkpoint(dir_, kFingerprint, /*resume=*/true);
    try {
      c.load(checkpoint);
      ADD_FAILURE() << "kind " << int{c.kind} << " loaded";
    } catch (const JournalError& e) {
      EXPECT_NE(std::string(e.what()).find("wrong kind tag"), std::string::npos)
          << e.what();
    }
  }
}

// A phase resumed in a new process encodes its next record against the
// partial it loaded, so its chain spans both processes and the next record
// carries only what changed.
TEST_F(CacheSectionJournalTest, ResumedPhaseContinuesItsChain) {
  {
    StudyCheckpoint checkpoint(dir_, kFingerprint, /*resume=*/false);
    auto hook = checkpoint.phase_delta_hook("reachability_global", WorldCursor{},
                                            [] { return cursor_at(0); });
    hook->save({1});
  }
  {
    StudyCheckpoint checkpoint(dir_, kFingerprint, /*resume=*/true);
    auto resumed = checkpoint.load_partial_delta("reachability_global");
    ASSERT_TRUE(resumed.has_value());
    auto hook = checkpoint.phase_delta_hook("reachability_global",
                                            resumed->cursor,
                                            [] { return cursor_at(1); },
                                            std::move(resumed));
    EXPECT_EQ(hook->load().value(), std::vector<std::uint8_t>{1});
    hook->save({2});
  }
  {
    StudyCheckpoint checkpoint(dir_, kFingerprint, /*resume=*/true);
    auto resumed = checkpoint.load_partial_delta("reachability_global");
    ASSERT_TRUE(resumed.has_value());
    EXPECT_EQ(resumed->state, std::vector<std::uint8_t>{2});
    expect_same_caches(export_section(resumed->caches), cursor_at(1).caches,
                       "partial 2");
    checkpoint.commit_phase_delta("reachability_global", {3}, cursor_at(1),
                                  obs::Snapshot{});
  }
  StudyCheckpoint checkpoint(dir_, kFingerprint, /*resume=*/true);
  const auto loaded = checkpoint.load_phase_delta("reachability_global");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->state, std::vector<std::uint8_t>{3});
  expect_same_caches(export_section(loaded->caches), cursor_at(1).caches,
                     "phase record");
  // cursor_at(1) keeps four of cursor_at(0)'s five entries: the second
  // partial carries one literal entry, and the phase record, equal to the
  // second partial, is all copy runs.
  const auto& records = checkpoint.journal().records();
  ASSERT_EQ(records.size(), 4u);  // two partials, the phase, the skeleton
  EXPECT_LT(records[1].body.size(), records[0].body.size());
  EXPECT_LT(records[2].body.size(), records[1].body.size());
}

}  // namespace
}  // namespace encdns::core
