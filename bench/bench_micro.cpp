// Micro benchmarks (google-benchmark) of the kernels the debug cycle leans
// on: truth-table algebra, BDD operations, SCG specialization, frame
// diffing, netlist simulation and the ISOP used by the BLIF writer.
#include <benchmark/benchmark.h>

#include "bitstream/builder.h"
#include "debug/flow.h"
#include "genbench/genbench.h"
#include "logic/bdd.h"
#include "logic/sop.h"
#include "logic/truth_table.h"
#include "sim/compiled_simulator.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace {

using namespace fpgadbg;

logic::TruthTable random_tt(int vars, Rng& rng) {
  logic::TruthTable t(vars);
  for (std::size_t i = 0; i < t.num_bits(); ++i) t.set_bit(i, rng.next_bool());
  return t;
}

void BM_TruthTableAnd(benchmark::State& state) {
  Rng rng(1);
  const auto a = random_tt(static_cast<int>(state.range(0)), rng);
  const auto b = random_tt(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a & b);
  }
}
BENCHMARK(BM_TruthTableAnd)->Arg(6)->Arg(10)->Arg(14);

void BM_TruthTableCofactor(benchmark::State& state) {
  Rng rng(2);
  const auto f = random_tt(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.cofactor1(0));
  }
}
BENCHMARK(BM_TruthTableCofactor)->Arg(6)->Arg(12);

void BM_IsopRoundTrip(benchmark::State& state) {
  Rng rng(3);
  const auto f = random_tt(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(logic::tt_to_isop(f));
  }
}
BENCHMARK(BM_IsopRoundTrip)->Arg(4)->Arg(6)->Arg(8);

void BM_BddIte(benchmark::State& state) {
  for (auto _ : state) {
    logic::BddManager mgr(16);
    logic::BddRef f = mgr.one();
    for (int v = 0; v < 16; ++v) {
      f = mgr.bdd_and(f, v % 2 ? mgr.var(v) : mgr.nvar(v));
    }
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_BddIte);

void BM_BddEvaluate(benchmark::State& state) {
  logic::BddManager mgr(32);
  logic::BddRef f = mgr.zero();
  for (int v = 0; v < 32; ++v) f = mgr.bdd_xor(f, mgr.var(v));
  BitVec assignment(32);
  for (int v = 0; v < 32; v += 3) assignment.set(static_cast<std::size_t>(v), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.evaluate(f, assignment));
  }
}
BENCHMARK(BM_BddEvaluate);

struct OfflineFixture {
  debug::OfflineResult offline;
  OfflineFixture() {
    genbench::CircuitSpec spec{"micro", 10, 8, 6, 60, 4, 5, 501};
    debug::OfflineOptions options;
    options.instrument.trace_width = 8;
    offline = debug::run_offline(genbench::generate(spec), options);
  }
  static OfflineFixture& get() {
    static OfflineFixture fixture;
    return fixture;
  }
};

void BM_ScgSpecialize(benchmark::State& state) {
  auto& offline = OfflineFixture::get().offline;
  const auto& inst = offline.instrumented;
  const auto assignment = inst.select_signals({inst.lane_signals[0][1]});
  for (auto _ : state) {
    benchmark::DoNotOptimize(offline.pconf->specialize(assignment));
  }
  state.counters["param_bits"] = static_cast<double>(
      offline.pconf->num_parameterized_bits());
}
BENCHMARK(BM_ScgSpecialize);

void BM_FrameDiff(benchmark::State& state) {
  auto& offline = OfflineFixture::get().offline;
  const auto& inst = offline.instrumented;
  const auto a =
      offline.pconf->specialize(inst.select_signals({inst.lane_signals[0][0]}));
  const auto b =
      offline.pconf->specialize(inst.select_signals({inst.lane_signals[0][1]}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.memory.changed_frames(b.memory));
  }
}
BENCHMARK(BM_FrameDiff);

void BM_SimulatorStep(benchmark::State& state) {
  genbench::CircuitSpec spec{"simstep", 12, 8, 8,
                             static_cast<std::size_t>(state.range(0)), 5, 6,
                             502};
  const auto nl = genbench::generate(spec);
  sim::NetlistSimulator simulator(nl);
  Rng rng(7);
  std::vector<bool> inputs(nl.inputs().size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = rng.next_bool();
    simulator.set_inputs(inputs);
    simulator.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SimulatorStep)->Arg(100)->Arg(1000);

// One stimulus vector per step, as the debug session's emulated DUT sees
// it: bool inputs, one broadcast sweep per cycle.
void BM_CompiledSimulatorStep(benchmark::State& state) {
  genbench::CircuitSpec spec{"parstep", 12, 8, 8,
                             static_cast<std::size_t>(state.range(0)), 5, 6,
                             504};
  const auto nl = genbench::generate(spec);
  sim::CompiledSimulator simulator(nl);
  Rng rng(8);
  std::vector<bool> inputs(nl.inputs().size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = rng.next_bool();
    simulator.set_inputs(inputs);
    simulator.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CompiledSimulatorStep)->Arg(100)->Arg(1000)->Arg(10000);

// The session's turn: one loaded configuration rewritten in place, back
// and forth between two signal selections.
void BM_ScgSpecializeIncremental(benchmark::State& state) {
  auto& offline = OfflineFixture::get().offline;
  const auto& inst = offline.instrumented;
  const BitVec a = inst.select_params({inst.lane_signals[0][0]});
  const BitVec b = inst.select_params({inst.lane_signals[0][1]});
  bitstream::ConfigMemory loaded = offline.pconf->specialize(a).memory;
  bool flip = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        offline.pconf->respecialize(loaded, flip ? b : a, flip ? a : b));
    flip = !flip;
  }
}
BENCHMARK(BM_ScgSpecializeIncremental);

void BM_TconMapSmall(benchmark::State& state) {
  genbench::CircuitSpec spec{"mapbench", 10, 8, 4, 60, 4, 5, 503};
  const auto nl = genbench::generate(spec);
  const auto inst = debug::parameterize_signals(nl, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(map::tcon_map(inst.netlist));
  }
}
BENCHMARK(BM_TconMapSmall);

}  // namespace
