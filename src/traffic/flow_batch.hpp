// Columnar (SoA) flow-record batches (DESIGN.md §16).
//
// The streaming NetFlow engines generate and fold flows in batches instead
// of materialising one heap `RawFlow`/`FlowRecord` per record. A FlowBatch
// owns nine parallel columns; `clear()` keeps the columns' capacity, so a
// per-shard batch follows the same warm-reuse discipline as the exec-layer
// ScratchArena buffers (PR 5/6): after the first day on a shard, filling a
// batch allocates nothing.
//
// `row(i)` materialises a RawFlow value on the stack for consumers that
// still speak the record-at-a-time interface (NetflowCollector,
// ScanDetector); the aggregation loops read the columns they need directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "traffic/netflow.hpp"
#include "util/date.hpp"
#include "util/ipv4.hpp"

namespace encdns::traffic {

class FlowBatch {
 public:
  void reserve(std::size_t rows) {
    src_.reserve(rows);
    dst_.reserve(rows);
    src_port_.reserve(rows);
    dst_port_.reserve(rows);
    protocol_.reserve(rows);
    packets_.reserve(rows);
    bytes_.reserve(rows);
    complete_.reserve(rows);
    day_.reserve(rows);
  }

  /// Drop the rows, keep the capacity (warm reuse across days).
  void clear() noexcept {
    src_.clear();
    dst_.clear();
    src_port_.clear();
    dst_port_.clear();
    protocol_.clear();
    packets_.clear();
    bytes_.clear();
    complete_.clear();
    day_.clear();
  }

  void push(const RawFlow& flow) {
    src_.push_back(flow.src.value());
    dst_.push_back(flow.dst.value());
    src_port_.push_back(flow.src_port);
    dst_port_.push_back(flow.dst_port);
    protocol_.push_back(flow.protocol);
    packets_.push_back(flow.packets);
    bytes_.push_back(flow.bytes);
    complete_.push_back(flow.complete_session ? 1 : 0);
    day_.push_back(static_cast<std::int32_t>(flow.date.to_days()));
  }

  [[nodiscard]] RawFlow row(std::size_t i) const {
    RawFlow flow;
    flow.src = util::Ipv4{src_[i]};
    flow.dst = util::Ipv4{dst_[i]};
    flow.src_port = src_port_[i];
    flow.dst_port = dst_port_[i];
    flow.protocol = protocol_[i];
    flow.packets = packets_[i];
    flow.bytes = bytes_[i];
    flow.complete_session = complete_[i] != 0;
    flow.date = util::Date::from_days(day_[i]);
    return flow;
  }

  [[nodiscard]] std::size_t size() const noexcept { return src_.size(); }
  [[nodiscard]] bool empty() const noexcept { return src_.empty(); }

  // Column accessors for the streaming fold loops (and the codec).
  [[nodiscard]] const std::vector<std::uint32_t>& src() const noexcept { return src_; }
  [[nodiscard]] const std::vector<std::uint32_t>& dst() const noexcept { return dst_; }
  [[nodiscard]] const std::vector<std::uint16_t>& src_port() const noexcept { return src_port_; }
  [[nodiscard]] const std::vector<std::uint16_t>& dst_port() const noexcept { return dst_port_; }
  [[nodiscard]] const std::vector<std::uint8_t>& protocol() const noexcept { return protocol_; }
  [[nodiscard]] const std::vector<std::uint32_t>& packets() const noexcept { return packets_; }
  [[nodiscard]] const std::vector<std::uint64_t>& bytes() const noexcept { return bytes_; }
  [[nodiscard]] const std::vector<std::uint8_t>& complete() const noexcept { return complete_; }
  [[nodiscard]] const std::vector<std::int32_t>& day() const noexcept { return day_; }

  /// Live column capacity in bytes — the engine's deterministic peak-memory
  /// accounting charges the batch at its high-water capacity, not its
  /// current row count.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return src_.capacity() * sizeof(std::uint32_t) +
           dst_.capacity() * sizeof(std::uint32_t) +
           src_port_.capacity() * sizeof(std::uint16_t) +
           dst_port_.capacity() * sizeof(std::uint16_t) +
           protocol_.capacity() * sizeof(std::uint8_t) +
           packets_.capacity() * sizeof(std::uint32_t) +
           bytes_.capacity() * sizeof(std::uint64_t) +
           complete_.capacity() * sizeof(std::uint8_t) +
           day_.capacity() * sizeof(std::int32_t);
  }

 private:
  std::vector<std::uint32_t> src_;
  std::vector<std::uint32_t> dst_;
  std::vector<std::uint16_t> src_port_;
  std::vector<std::uint16_t> dst_port_;
  std::vector<std::uint8_t> protocol_;
  std::vector<std::uint32_t> packets_;
  std::vector<std::uint64_t> bytes_;
  std::vector<std::uint8_t> complete_;
  std::vector<std::int32_t> day_;
};

}  // namespace encdns::traffic
