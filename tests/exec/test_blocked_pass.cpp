// The blocked-pass loop (DESIGN.md §7): one property suite for the policy
// every checkpointed phase shares — executed-prefix folds under cancellation,
// thread-count-invariant sim-budget cuts, kill/resume equivalence, and where
// the loop loads and saves.
#include "exec/blocked_pass.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace encdns::exec {
namespace {

constexpr std::size_t kUnits = 37;  // nine full blocks and a short one
constexpr std::size_t kBlock = 4;

std::uint64_t unit_value(std::size_t unit) { return util::mix64(unit); }
sim::Millis unit_sim(std::size_t unit) {
  return sim::Millis{static_cast<double>(1 + unit % 7)};
}

std::vector<std::uint64_t> prefix(std::size_t units) {
  std::vector<std::uint64_t> values;
  for (std::size_t u = 0; u < units; ++u) values.push_back(unit_value(u));
  return values;
}

struct Killed {};

/// In-memory checkpoint hook that logs its calls and can die after a save.
class RecordingHook : public CheckpointHook {
 public:
  explicit RecordingHook(std::vector<std::string>& events) : events_(&events) {}

  std::optional<std::vector<std::uint8_t>> load() override {
    events_->push_back("load");
    return resume;
  }
  void save(const std::vector<std::uint8_t>& state) override {
    events_->push_back("save");
    saves.push_back(state);
    if (saves.size() == kill_after) throw Killed{};
  }

  std::optional<std::vector<std::uint8_t>> resume;
  std::vector<std::vector<std::uint8_t>> saves;
  std::size_t kill_after = 0;  // 0 = never

 private:
  std::vector<std::string>* events_;
};

/// A pass over kUnits synthetic units whose accumulator is the list of
/// folded unit values, in fold order.
struct Pass {
  std::vector<std::uint64_t> folded;
  std::vector<std::string> events;
  std::set<std::thread::id> fold_threads;
  std::function<void(const Block&)> before_block;
  std::function<void(std::size_t unit)> in_unit;

  std::size_t run(WorkerPool* pool, CancelToken* cancel, CheckpointHook* hook) {
    std::vector<std::uint64_t> partials;
    return run_blocked_pass({
        .units = kUnits,
        .block = kBlock,
        .pool = pool,
        .thread_count = 1,
        .cancel = cancel,
        .checkpoint = hook,
        .run =
            [&](const Block& block) {
              events.push_back("block");
              if (before_block) before_block(block);
              partials.assign(block.count, 0);
              return block.run_shards([&](std::size_t i) {
                partials[i] = unit_value(block.first + i);
                if (in_unit) in_unit(block.first + i);
              });
            },
        .fold =
            [&](const Block& block, std::size_t executed) {
              fold_threads.insert(std::this_thread::get_id());
              sim::Millis sim{0.0};
              for (std::size_t i = 0; i < executed; ++i) {
                folded.push_back(partials[i]);
                sim += unit_sim(block.first + i);
              }
              return sim;
            },
        .encode =
            [&](util::ByteWriter& w, std::size_t done) {
              w.u64(done);
              w.u32(static_cast<std::uint32_t>(folded.size()));
              for (const std::uint64_t value : folded) w.u64(value);
            },
        .decode =
            [&](util::ByteReader& r) {
              const auto done = static_cast<std::size_t>(r.u64());
              folded.resize(r.count(8));
              for (std::uint64_t& value : folded) value = r.u64();
              return done;
            },
    });
  }
};

std::size_t saved_done(const std::vector<std::uint8_t>& state) {
  util::ByteReader r(state);
  return static_cast<std::size_t>(r.u64());
}

TEST(BlockedPass, FoldsEveryUnitInOrderOnTheCallingThreadAndSavesBetweenBlocks) {
  WorkerPool pool(4);
  Pass pass;
  RecordingHook hook(pass.events);
  EXPECT_EQ(pass.run(&pool, nullptr, &hook), kUnits);
  EXPECT_EQ(pass.folded, prefix(kUnits));
  EXPECT_EQ(pass.fold_threads, std::set{std::this_thread::get_id()});
  // Ten blocks, a save between each pair, none after the last block.
  ASSERT_EQ(hook.saves.size(), 9u);
  for (std::size_t k = 0; k < hook.saves.size(); ++k)
    EXPECT_EQ(saved_done(hook.saves[k]), (k + 1) * kBlock);
  EXPECT_EQ(pass.events.back(), "block");
}

TEST(BlockedPass, CancelAtEveryBlockLeavesThatPrefixAndSavesNothingAfter) {
  for (std::size_t k = 0; k * kBlock < kUnits; ++k) {
    CancelToken token;
    Pass pass;
    RecordingHook hook(pass.events);
    pass.before_block = [&](const Block& block) {
      if (block.first == k * kBlock) token.cancel("test");
    };
    WorkerPool pool(3);
    EXPECT_EQ(pass.run(&pool, &token, &hook), k * kBlock) << "block " << k;
    EXPECT_EQ(pass.folded, prefix(k * kBlock)) << "block " << k;
    ASSERT_EQ(hook.saves.size(), k) << "block " << k;
    if (k > 0) {
      EXPECT_EQ(saved_done(hook.saves.back()), k * kBlock);
    }
    EXPECT_EQ(pass.events.back(), "block") << "block " << k;
  }
}

TEST(BlockedPass, CancelInsideABlockKeepsTheExecutedPrefix) {
  for (std::size_t cut = 0; cut < kUnits; ++cut) {
    CancelToken token;
    Pass pass;
    RecordingHook hook(pass.events);
    pass.in_unit = [&](std::size_t unit) {
      if (unit == cut) token.cancel("test");
    };
    WorkerPool pool(1);  // inline: units run in order, so the cut is exact
    EXPECT_EQ(pass.run(&pool, &token, &hook), cut + 1) << "unit " << cut;
    EXPECT_EQ(pass.folded, prefix(cut + 1)) << "unit " << cut;
    ASSERT_EQ(hook.saves.size(), cut / kBlock) << "unit " << cut;
    EXPECT_EQ(pass.events.back(), "block") << "unit " << cut;
  }
}

TEST(BlockedPass, SimBudgetCutsTheSameBlocksAtOneTwoAndEightThreads) {
  for (const double budget_ms : {1.0, 9.0, 30.0, 61.0, 200.0}) {
    // Sim time is spent only at block merges, so a block runs whole or not
    // at all: the pass stops at the first block that starts over budget.
    std::size_t expected = 0;
    double spent = 0.0;
    while (expected < kUnits && spent < budget_ms) {
      const std::size_t end = std::min(expected + kBlock, kUnits);
      for (; expected < end; ++expected) spent += unit_sim(expected).value;
    }
    for (const unsigned threads : {1u, 2u, 8u}) {
      CancelToken token;
      token.set_sim_budget(sim::Millis{budget_ms});
      WorkerPool pool(threads);
      Pass pass;
      EXPECT_EQ(pass.run(&pool, &token, nullptr), expected)
          << budget_ms << " ms at " << threads << " threads";
      EXPECT_EQ(pass.folded, prefix(expected))
          << budget_ms << " ms at " << threads << " threads";
    }
  }
}

TEST(BlockedPass, KillAfterEverySaveResumesToTheUninterruptedRun) {
  WorkerPool pool(2);
  Pass reference;
  RecordingHook reference_hook(reference.events);
  ASSERT_EQ(reference.run(&pool, nullptr, &reference_hook), kUnits);

  for (std::size_t k = 1; k <= reference_hook.saves.size(); ++k) {
    Pass victim;
    RecordingHook dying(victim.events);
    dying.kill_after = k;
    EXPECT_THROW((void)victim.run(&pool, nullptr, &dying), Killed);

    Pass resumed;
    RecordingHook hook(resumed.events);
    hook.resume = dying.saves.back();
    EXPECT_EQ(resumed.run(&pool, nullptr, &hook), kUnits) << "kill " << k;
    EXPECT_EQ(resumed.folded, reference.folded) << "kill " << k;
    std::vector<std::vector<std::uint8_t>> saves = dying.saves;
    saves.insert(saves.end(), hook.saves.begin(), hook.saves.end());
    EXPECT_EQ(saves, reference_hook.saves) << "kill " << k;
  }
}

TEST(BlockedPass, LoadRunsOnceBeforeTheFirstBlock) {
  for (const bool resume : {false, true}) {
    Pass pass;
    RecordingHook hook(pass.events);
    if (resume) {
      util::ByteWriter w;
      w.u64(2 * kBlock);
      w.u32(0);
      hook.resume = w.take();
    }
    (void)pass.run(nullptr, nullptr, &hook);
    ASSERT_FALSE(pass.events.empty());
    EXPECT_EQ(pass.events.front(), "load");
    EXPECT_EQ(std::count(pass.events.begin(), pass.events.end(), "load"), 1);
  }
}

}  // namespace
}  // namespace encdns::exec
