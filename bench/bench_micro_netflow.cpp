// Microbenchmark: the per-flow halves of the §5.2 fused pass (it streams
// ~13.8M raw flows through both): packet sampling and the scan detector.
#include <benchmark/benchmark.h>

#include "traffic/netflow.hpp"
#include "traffic/scan_detector.hpp"
#include "util/rng.hpp"

namespace {

using namespace encdns;

void BM_CollectorObserve(benchmark::State& state) {
  const traffic::NetflowCollector collector(1.0 / 3000.0);
  util::Rng sampling(util::mix64(1));
  util::Rng rng(2);
  traffic::FlowHeader flow;
  flow.src = util::Ipv4{114, 0, 0, 1};
  flow.dst = util::Ipv4{1, 1, 1, 1};
  flow.dst_port = 853;
  flow.packets = 18;
  flow.bytes = 2000;
  flow.complete_session = true;
  for (auto _ : state) {
    flow.src = util::Ipv4{static_cast<std::uint32_t>(rng.next())};
    benchmark::DoNotOptimize(collector.observe(flow, sampling));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CollectorObserve);

void BM_DetectorObserve(benchmark::State& state) {
  traffic::ScanDetector detector;
  util::Rng rng(3);
  traffic::FlowHeader flow;
  flow.dst_port = 853;
  flow.packets = 18;
  flow.complete_session = true;
  for (auto _ : state) {
    flow.src = util::Ipv4{static_cast<std::uint32_t>(0x72000000u | rng.below(4096))};
    flow.dst = util::Ipv4{static_cast<std::uint32_t>(rng.next())};
    detector.observe(flow);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DetectorObserve);

}  // namespace

BENCHMARK_MAIN();
