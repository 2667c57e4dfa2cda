// E-K1 — google-benchmark microbenchmarks of the simulation substrate:
// ChannelSet algebra, grid and reuse-plan construction, and end-to-end
// simulated-call throughput of the full world.
#include <benchmark/benchmark.h>

#include "cell/grid.hpp"
#include "cell/reuse.hpp"
#include "cell/spectrum.hpp"
#include "runner/experiment.hpp"

namespace {

using namespace dca;

void BM_ChannelSetAlgebra(benchmark::State& state) {
  cell::ChannelSet a(512), b(512);
  for (int i = 0; i < 512; i += 3) a.insert(i);
  for (int i = 0; i < 512; i += 5) b.insert(i);
  for (auto _ : state) {
    auto c = (a | b) - (a & b);
    benchmark::DoNotOptimize(c.size());
    benchmark::DoNotOptimize(c.first());
  }
}
BENCHMARK(BM_ChannelSetAlgebra);

void BM_ChannelSetIteration(benchmark::State& state) {
  cell::ChannelSet a(512);
  for (int i = 0; i < 512; i += 7) a.insert(i);
  for (auto _ : state) {
    int sum = 0;
    for (auto c = a.first(); c != cell::kNoChannel; c = a.next_after(c)) sum += c;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_ChannelSetIteration);

void BM_GridConstruction(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  for (auto _ : state) {
    cell::HexGrid g(side, side, 2);
    benchmark::DoNotOptimize(g.max_interference_degree());
  }
}
BENCHMARK(BM_GridConstruction)->Arg(8)->Arg(16)->Arg(32);

void BM_ReusePlanValidation(benchmark::State& state) {
  const cell::HexGrid g(16, 16, 2);
  const auto plan = cell::ReusePlan::cluster(g, 70, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.validate(g));
  }
}
BENCHMARK(BM_ReusePlanValidation);

void BM_EndToEndSimulatedMinute(benchmark::State& state) {
  // Full-system throughput: one simulated minute of the adaptive scheme at
  // moderate load on the paper-scale grid.
  runner::ScenarioConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  cfg.n_channels = 70;
  cfg.cluster = 7;
  cfg.duration = sim::minutes(1);
  cfg.warmup = 0;
  for (auto _ : state) {
    const auto r = runner::run_uniform(cfg, runner::Scheme::kAdaptive, 0.6);
    benchmark::DoNotOptimize(r.agg.offered);
    if (r.violations != 0) state.SkipWithError("invariant violated");
  }
}
BENCHMARK(BM_EndToEndSimulatedMinute)->Unit(benchmark::kMillisecond);

}  // namespace
