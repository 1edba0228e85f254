// The §5.2 NetflowStudy's group-boundary checkpoints (DESIGN.md §13, §16):
// resuming from any saved group gives the uninterrupted result, a corrupted
// partial fails closed, and the partial-state decoder rejects each state the
// active-day bitmap cannot represent, naming the check it failed.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/checkpoint_hook.hpp"
#include "support/traffic_reference.hpp"
#include "traffic/netflow_study.hpp"
#include "util/bytes.hpp"
#include "util/fields.hpp"

namespace encdns::traffic {
namespace {

class MemoryHook : public exec::CheckpointHook {
 public:
  std::optional<std::vector<std::uint8_t>> load() override { return state_; }
  void save(const std::vector<std::uint8_t>& state) override {
    state_ = state;
    saved_.push_back(state);
  }
  std::optional<std::vector<std::uint8_t>> state_;
  std::vector<std::vector<std::uint8_t>> saved_;
};

// Four months with Cloudflare and Quad9 traffic, the scanner probes and a
// few hundred client /24s: every part of the partial state is populated.
NetflowStudyConfig short_config() {
  NetflowStudyConfig config;
  config.backbone.start = util::Date{2018, 6, 1};
  config.backbone.end = util::Date{2018, 10, 1};
  config.backbone.tail_blocks = 600;
  config.backbone.medium_blocks = 40;
  return config;
}

std::vector<std::uint8_t> result_bytes(const NetflowStudyResults& results) {
  return util::encode(results);
}

NetflowStudyResults run(NetflowStudyConfig config, MemoryHook* hook) {
  config.checkpoint = hook;
  return NetflowStudy(config, big_resolver_address_list()).run();
}

const std::vector<std::vector<std::uint8_t>>& saved_states() {
  static const auto states = [] {
    MemoryHook hook;
    (void)run(short_config(), &hook);
    return hook.saved_;
  }();
  return states;
}

TEST(NetflowStudy, ResumeFromGroupCheckpointMatchesUninterruptedRun) {
  const auto uninterrupted = result_bytes(run(short_config(), nullptr));

  // Saving at every group boundary (3 saves for 4 groups) changes nothing.
  MemoryHook hook;
  EXPECT_EQ(result_bytes(run(short_config(), &hook)), uninterrupted);
  ASSERT_EQ(hook.saved_.size(), 3u);
  EXPECT_EQ(hook.saved_, saved_states());

  // Resuming from each boundary — as after a SIGKILL there — lands on the
  // same bytes, and saves the later boundaries' states again.
  for (std::size_t g = 0; g < hook.saved_.size(); ++g) {
    MemoryHook resume;
    resume.state_ = hook.saved_[g];
    EXPECT_EQ(result_bytes(run(short_config(), &resume)), uninterrupted)
        << "resumed after group " << g + 1;
    const std::vector<std::vector<std::uint8_t>> later(
        hook.saved_.begin() + static_cast<std::ptrdiff_t>(g) + 1,
        hook.saved_.end());
    EXPECT_EQ(resume.saved_, later) << "resumed after group " << g + 1;
  }
}

TEST(NetflowStudy, CorruptCheckpointFailsClosed) {
  const std::vector<std::uint8_t>& state = saved_states().back();
  const auto resume_from = [](std::vector<std::uint8_t> bytes) {
    MemoryHook hook;
    hook.state_ = std::move(bytes);
    (void)run(short_config(), &hook);
  };
  // A torn tail.
  std::vector<std::uint8_t> torn(state.begin(), state.end() - 1);
  EXPECT_THROW(resume_from(torn), util::CodecError);
  // A flipped bit in the checksummed block sketch.
  const auto parsed = reference::NetflowState::parse(state);
  std::vector<std::uint8_t> flipped = state;
  flipped[state.size() - parsed.sketch_and_detector.size() + 20] ^= 0x10;
  EXPECT_THROW(resume_from(flipped), util::CodecError);
  // A trailing byte.
  std::vector<std::uint8_t> extended = state;
  extended.push_back(0);
  EXPECT_THROW(resume_from(extended), util::CodecError);
}

// The saved state is written field by field in the parent layout: re-encoding
// the parsed fields reproduces it, and the active days are the sorted day
// list of each block.
TEST(NetflowStudy, SavedStateKeepsTheSortedDayListLayout) {
  for (const auto& state : saved_states()) {
    const auto parsed = reference::NetflowState::parse(state);
    EXPECT_EQ(parsed.encode(), state);
    ASSERT_FALSE(parsed.blocks.empty());
    for (const auto& block : parsed.blocks) {
      ASSERT_FALSE(block.days.empty());
      EXPECT_EQ(block.days.front(), block.first);
      EXPECT_EQ(block.days.back(), block.last);
    }
  }
}

// Resume from `state` with one field changed, and expect the decoder to
// name `check`.
template <typename Mutate>
void expect_resume_rejected(Mutate mutate, const std::string& check) {
  auto parsed = reference::NetflowState::parse(saved_states().back());
  mutate(parsed);
  MemoryHook hook;
  hook.state_ = parsed.encode();
  try {
    (void)run(short_config(), &hook);
    ADD_FAILURE() << "resumed; expected a CodecError naming \"" << check << "\"";
  } catch (const util::CodecError& e) {
    EXPECT_NE(std::string(e.what()).find(check), std::string::npos)
        << "error \"" << e.what() << "\" does not name \"" << check << "\"";
  }
}

std::int64_t window_start() { return short_config().backbone.start.to_days(); }
std::int64_t window_end() { return short_config().backbone.end.to_days(); }

// The block with the most active days: room to reorder and duplicate.
reference::NetflowState::Block& busiest(reference::NetflowState& state) {
  auto* best = &state.blocks.front();
  for (auto& block : state.blocks)
    if (block.days.size() > best->days.size()) best = &block;
  return *best;
}

TEST(NetflowStudy, ActiveDayBeforeTheWindowFailsClosed) {
  expect_resume_rejected(
      [](reference::NetflowState& s) {
        auto& block = busiest(s);
        block.days.front() = window_start() - 1;
        block.first = block.days.front();
      },
      "active day outside the window");
}

TEST(NetflowStudy, ActiveDayAtTheWindowEndFailsClosed) {
  expect_resume_rejected(
      [](reference::NetflowState& s) {
        auto& block = busiest(s);
        block.days.back() = window_end();
        block.last = block.days.back();
      },
      "active day outside the window");
}

TEST(NetflowStudy, UnsortedActiveDaysFailClosed) {
  expect_resume_rejected(
      [](reference::NetflowState& s) {
        auto& days = busiest(s).days;
        ASSERT_GE(days.size(), 2u);
        std::swap(days[0], days[1]);
      },
      "active days not strictly ascending");
}

TEST(NetflowStudy, DuplicatedActiveDaysFailClosed) {
  expect_resume_rejected(
      [](reference::NetflowState& s) {
        auto& days = busiest(s).days;
        ASSERT_GE(days.size(), 2u);
        days[1] = days[0];
      },
      "active days not strictly ascending");
}

TEST(NetflowStudy, FirstSeenAfterLastSeenFailsClosed) {
  expect_resume_rejected(
      [](reference::NetflowState& s) {
        auto& block = busiest(s);
        std::swap(block.first, block.last);
      },
      "first seen after last");
}

TEST(NetflowStudy, MoreActiveDaysThanTheWindowFailsClosed) {
  expect_resume_rejected(
      [](reference::NetflowState& s) {
        auto& days = busiest(s).days;
        days.clear();
        for (std::int64_t d = window_start(); d <= window_end(); ++d)
          days.push_back(d);
      },
      "more active days than the window");
}

TEST(NetflowStudy, BlocksOutOfOrderFailClosed) {
  expect_resume_rejected(
      [](reference::NetflowState& s) {
        ASSERT_GE(s.blocks.size(), 2u);
        std::swap(s.blocks[0], s.blocks[1]);
      },
      "blocks not in ascending order");
}

TEST(NetflowStudy, MonthOutsideTheWindowFailsClosed) {
  expect_resume_rejected(
      [](reference::NetflowState& s) {
        s.cloudflare_monthly[util::Date{2019, 3, 1}] = 1;
      },
      "month 2019-03-01 outside the window");
}

}  // namespace
}  // namespace encdns::traffic
