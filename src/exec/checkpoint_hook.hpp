// The seam between phase execution and the write-ahead journal
// (DESIGN.md §13). Phases do not know about files, checksums or commit
// sidecars; they see an opaque byte-blob store they load once and save to.
// The core layer provides the implementation (core/checkpoint); tests use
// trivial in-memory hooks.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/bytes.hpp"

namespace encdns::exec {

/// Per-phase persistence hook. `load()` is called once, before the phase
/// starts executing shards: a non-empty result is the phase-local state
/// saved by a previous (killed) run, and the phase resumes after the last
/// completed block instead of from scratch. `save()` is called at block
/// boundaries with the serialized state-so-far; the implementation must make
/// it durable before returning (write-ahead discipline). `reject()` is
/// called, and throws, when the state load() returned fails to decode; by
/// default it rethrows the decoder's error.
class CheckpointHook {
 public:
  virtual ~CheckpointHook() = default;
  [[nodiscard]] virtual std::optional<std::vector<std::uint8_t>> load() = 0;
  virtual void save(const std::vector<std::uint8_t>& state) = 0;
  [[noreturn]] virtual void reject(const util::CodecError& error) { throw error; }
};

}  // namespace encdns::exec
