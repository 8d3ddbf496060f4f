// Micro-benchmarks for the simulation substrate (google-benchmark): event
// queue throughput, timer churn, and end-to-end packet forwarding cost on
// the Figure 10 topology.
#include <benchmark/benchmark.h>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "topo/figure10.hpp"

namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int n = state.range(0);
  for (auto _ : state) {
    sharq::sim::Simulator simu(1);
    for (int i = 0; i < n; ++i) {
      simu.after(static_cast<double>((i * 7919) % 1000),
                 [] { benchmark::DoNotOptimize(0); }, "bench.tick");
    }
    simu.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000)->Arg(1000000);

// Steady-state "hold" pattern (the protocol's shape: a bounded pending
// set with every pop scheduling a successor).
void BM_EventQueueSteadyState(benchmark::State& state) {
  const int pending = state.range(0);
  sharq::sim::Simulator simu(1);
  int i = 0;
  for (int j = 0; j < pending; ++j) {
    simu.after(static_cast<double>((j * 7919) % 1000), [] {}, "bench.hold");
  }
  for (auto _ : state) {
    simu.after(static_cast<double>((i++ * 7919) % 1000),
               [] { benchmark::DoNotOptimize(0); }, "bench.tick");
    simu.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSteadyState)->Arg(1000)->Arg(100000);

void BM_TimerRearm(benchmark::State& state) {
  sharq::sim::Simulator simu;
  sharq::sim::Timer t(simu);
  for (auto _ : state) {
    t.arm(1.0, [] {});
  }
  t.cancel();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimerRearm);

struct Probe final : sharq::net::MessageBase {};

void BM_Figure10Multicast(benchmark::State& state) {
  sharq::sim::Simulator simu(1);
  sharq::net::Network net(simu);
  sharq::topo::Figure10 topo = sharq::topo::make_figure10(net);
  const auto ch = net.create_channel();
  for (auto r : topo.receivers) net.subscribe(ch, r);
  auto msg = std::make_shared<Probe>();
  for (auto _ : state) {
    net.send(topo.source, ch, sharq::net::TrafficClass::kData, 1000, msg);
    simu.run();
  }
  // 112 receivers reached per send.
  state.SetItemsProcessed(state.iterations() * 112);
}
BENCHMARK(BM_Figure10Multicast);

}  // namespace

BENCHMARK_MAIN();
