#include "exec/blocked_pass.hpp"

#include <algorithm>

namespace encdns::exec {

std::size_t run_blocked_pass(const BlockedPass& pass) {
  std::size_t done = 0;
  if (pass.checkpoint != nullptr) {
    if (const auto state = pass.checkpoint->load()) {
      try {
        util::ByteReader r(*state);
        done = pass.decode(r);
        r.expect_done();
      } catch (const util::CodecError& e) {
        pass.checkpoint->reject(e);
      }
    }
  }
  PoolLease pool(pass.pool, pass.thread_count);
  bool cancelled = pass.cancel != nullptr && pass.cancel->cancelled();
  while (done < pass.units && !cancelled) {
    const Block block(done, std::min(pass.block, pass.units - done), pool,
                      pass.cancel);
    const std::size_t executed = pass.run(block);
    const sim::Millis sim = pass.fold(block, executed);
    done += executed;
    if (pass.cancel != nullptr) {
      pass.cancel->spend_sim(sim);
      cancelled = executed < block.count || pass.cancel->cancelled();
    }
    if (pass.checkpoint != nullptr && !cancelled && done < pass.units) {
      util::ByteWriter w;
      pass.encode(w, done);
      pass.checkpoint->save(w.take());
    }
  }
  return done;
}

}  // namespace encdns::exec
