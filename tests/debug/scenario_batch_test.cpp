// Campaign-level invariants of the batched scenario engine: per-scenario
// signatures must not depend on how a campaign is chunked into batch passes
// or sharded across threads, and fault differentials must isolate exactly
// the scenarios that were faulted.
#include "debug/scenario_batch.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "debug/flow.h"
#include "debug/session.h"
#include "genbench/genbench.h"
#include "sim/mapped_simulator.h"
#include "support/error.h"

namespace fpgadbg::debug {
namespace {

using netlist::Netlist;

Netlist campaign_design(std::uint64_t seed) {
  genbench::CircuitSpec spec{"scnb", 12, 10, 8, 180, 5, 6, 331 * seed};
  return genbench::generate(spec);
}

TEST(ScenarioBatch, SignaturesInvariantAcrossBatchWidths) {
  const Netlist nl = campaign_design(1);
  ScenarioBatchOptions options;
  options.scenarios = 256;  // 4 scenario blocks
  options.cycles = 32;
  std::vector<ScenarioBatchResult> results;
  for (std::size_t width : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    options.blocks_per_pass = width;
    results.push_back(run_scenario_batch(nl, options));
  }
  EXPECT_EQ(results[0].passes, 4u);
  EXPECT_EQ(results[2].passes, 1u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(diverging_scenarios(results[0], results[i]).empty())
        << "blocks_per_pass " << results[i].blocks_per_pass;
  }
}

TEST(ScenarioBatch, FaultDifferentialIsolatesTargetScenarios) {
  const Netlist nl = campaign_design(3);
  ScenarioBatchOptions options;
  options.scenarios = 128;
  options.cycles = 48;
  const auto clean = run_scenario_batch(nl, options);

  // Invert an output driver in scenarios 5 and 77 only.
  auto faulted_options = options;
  for (std::size_t scenario : {std::size_t{5}, std::size_t{77}}) {
    ScenarioFault f;
    f.fault.node = nl.outputs()[0];
    f.fault.type = sim::FaultType::kInvert;
    f.scenario = scenario;
    faulted_options.faults.push_back(f);
  }
  const auto faulted = run_scenario_batch(nl, faulted_options);
  EXPECT_EQ(faulted.faulted_scenarios, 2u);
  const auto div = diverging_scenarios(clean, faulted);
  EXPECT_EQ(div, (std::vector<std::size_t>{5, 77}));
}

TEST(ScenarioBatch, DivergenceRequiresEqualScenarioCounts) {
  const Netlist nl = campaign_design(4);
  ScenarioBatchOptions options;
  options.cycles = 4;
  options.scenarios = 64;
  const auto a = run_scenario_batch(nl, options);
  options.scenarios = 128;
  const auto b = run_scenario_batch(nl, options);
  EXPECT_THROW(diverging_scenarios(a, b), Error);
}

/// `mn` with the functions of `inverted` complemented: a kInvert fault on
/// each of those cells, built into the netlist.
map::MappedNetlist with_inverted_cells(const map::MappedNetlist& mn,
                                       const std::vector<map::CellId>& inverted) {
  map::MappedNetlist out(mn.model_name());
  for (map::CellId id = 0; id < mn.num_cells(); ++id) {
    const map::MCell& c = mn.cell(id);
    switch (c.kind) {
      case map::MKind::kConst0:
      case map::MKind::kInput:
      case map::MKind::kParam:
        out.add_source(c.kind, c.name);
        break;
      case map::MKind::kLatchOut:
        for (const map::MLatch& l : mn.latches()) {
          if (l.output == id) out.add_latch_source(c.name, l.init_value);
        }
        break;
      default: {
        const bool invert = std::find(inverted.begin(), inverted.end(),
                                      id) != inverted.end();
        out.add_cell(c.kind, c.name, c.data_inputs, c.param_inputs,
                     invert ? ~c.function : c.function);
      }
    }
  }
  for (std::size_t i = 0; i < mn.latches().size(); ++i) {
    out.set_latch_input(i, mn.latches()[i].input);
  }
  for (std::size_t o = 0; o < mn.outputs().size(); ++o) {
    out.add_output(mn.outputs()[o], mn.output_names()[o]);
  }
  return out;
}

TEST(ScenarioBatch, SignaturesMatchScalarOracle) {
  // The signature definition, pinned against one interpreted scalar
  // simulator per scenario: scenario s sees bit s % 64 of block s / 64's
  // stimulus word for each input, every parameter at 0, and the auto
  // faults (a kInvert on the first logic cells driving outputs, fault i in
  // scenario 2i + 1); its signature is FNV-1a over its output bits, output
  // by output after each cycle's step.
  genbench::CircuitSpec spec{"scno", 8, 6, 4, 48, 3, 5, 91};
  OfflineOptions offline_options;
  offline_options.instrument.trace_width = 6;
  offline_options.run_pnr = false;
  const map::MappedNetlist mn =
      run_offline(genbench::generate(spec), offline_options).mapping.netlist;
  ASSERT_GT(mn.params().size(), 0u);
  ScenarioBatchOptions options;
  options.scenarios = 128;
  options.cycles = 20;
  options.seed = 0x0dd5eed;
  options.blocks_per_pass = 1;
  options.auto_faults = 2;
  const ScenarioBatchResult result = run_scenario_batch(mn, options);
  ASSERT_EQ(result.signatures.size(), options.scenarios);
  ASSERT_EQ(result.passes, 2u);

  std::vector<map::CellId> faulted;
  for (map::CellId id : mn.outputs()) {
    if (faulted.size() < options.auto_faults && !mn.is_source(id)) {
      faulted.push_back(id);
    }
  }
  ASSERT_EQ(faulted.size(), options.auto_faults);
  std::vector<map::MappedNetlist> designs;  // [0] clean, [1 + i] fault i
  designs.push_back(with_inverted_cells(mn, {}));
  for (map::CellId id : faulted) designs.push_back(with_inverted_cells(mn, {id}));
  EXPECT_EQ(result.faulted_scenarios, faulted.size());

  const std::vector<bool> zeros(mn.params().size(), false);
  for (std::size_t s = 0; s < options.scenarios; ++s) {
    std::size_t design = 0;
    for (std::size_t i = 0; i < faulted.size(); ++i) {
      if (s == 2 * i + 1) design = 1 + i;
    }
    sim::MappedSimulator oracle(designs[design], sim::SimBackend::kInterpreted);
    oracle.set_params(zeros);
    std::uint64_t signature = 0xcbf29ce484222325ULL;
    std::vector<bool> inputs(mn.inputs().size());
    for (std::uint64_t cycle = 0; cycle < options.cycles; ++cycle) {
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        inputs[i] = (scenario_stimulus_word(options.seed, i, cycle, s / 64) >>
                     (s % 64)) & 1U;
      }
      oracle.set_inputs(inputs);
      oracle.step();
      for (std::size_t o = 0; o < mn.outputs().size(); ++o) {
        signature = (signature ^ (oracle.output(o) ? 1U : 0U)) *
                    0x100000001b3ULL;
      }
    }
    ASSERT_EQ(result.signatures[s], signature) << "scenario " << s;
  }
}

TEST(ScenarioBatch, SessionEntryPointRunsOnMappedDut) {
  genbench::CircuitSpec spec{"scns", 8, 6, 4, 36, 3, 5, 77};
  OfflineOptions offline_options;
  offline_options.instrument.trace_width = 6;
  const auto offline = run_offline(genbench::generate(spec), offline_options);
  DebugSession session(offline);
  ScenarioBatchOptions options;
  options.scenarios = 128;
  options.cycles = 16;
  options.auto_faults = 1;
  const auto result = session.run_scenario_batch(options);
  EXPECT_EQ(result.scenarios, 128u);
  EXPECT_EQ(result.signatures.size(), 128u);
  EXPECT_GE(result.faulted_scenarios, 1u);
  EXPECT_GT(result.scenario_cycles_per_sec, 0.0);
}

}  // namespace
}  // namespace fpgadbg::debug
