#include "debug/scenario_batch.h"

#include <algorithm>

#include "sim/batch_simulator.h"
#include "support/error.h"
#include "support/stopwatch.h"
#include "support/telemetry.h"

namespace fpgadbg::debug {

namespace {

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Faults a campaign applies, resolved against the design's program once.
/// Auto-faults prefer output-driving ops (guaranteed observable at the
/// primary outputs) and fall back to arbitrary logic nodes.
std::vector<ScenarioFault> resolve_faults(const sim::SimProgram& prog,
                                          const ScenarioBatchOptions& options,
                                          std::size_t scenarios) {
  std::vector<ScenarioFault> faults = options.faults;
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t id : prog.outputs) {
    if (candidates.size() >= options.auto_faults) break;
    if (id < prog.num_design_nodes && prog.op_of_node[id] != sim::kNoOp) {
      candidates.push_back(id);
    }
  }
  for (std::uint32_t id = 0;
       id < prog.num_design_nodes && candidates.size() < options.auto_faults;
       ++id) {
    if (prog.node_kind[id] != sim::SimProgram::SlotKind::kLogic) continue;
    if (std::find(candidates.begin(), candidates.end(), id) !=
        candidates.end()) {
      continue;
    }
    candidates.push_back(id);
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    ScenarioFault f;
    f.fault.node = candidates[i];
    f.fault.type = sim::FaultType::kInvert;
    f.scenario = (2 * i + 1) % scenarios;
    faults.push_back(f);
  }
  return faults;
}

ScenarioBatchResult drive(sim::BatchSimulator& sim,
                          const ScenarioBatchOptions& options) {
  constexpr std::size_t kLanes = sim::BatchSimulator::kLanesPerBlock;
  const sim::SimProgram& prog = sim.program();
  const std::size_t total_blocks =
      std::max<std::size_t>(1, (options.scenarios + kLanes - 1) / kLanes);
  const std::size_t scenarios = total_blocks * kLanes;
  const std::size_t B = sim.blocks();
  const std::size_t passes = (total_blocks + B - 1) / B;
  const std::vector<ScenarioFault> faults =
      resolve_faults(prog, options, scenarios);

  ScenarioBatchResult result;
  result.scenarios = scenarios;
  result.cycles = options.cycles;
  result.blocks_per_pass = B;
  result.passes = passes;
  result.signatures.assign(scenarios, sim::kSignatureOffsetBasis);

  // Live progress at pass cadence: a campaign of thousands of scenarios is
  // exactly the long-running loop the introspection server exists for.
  telemetry::ProgressReporter progress("debug.scenario_batch");
  progress.set_total(scenarios);
  static telemetry::Gauge& throughput_gauge =
      telemetry::metrics().gauge("sim.batch.scenarios_per_sec");

  Stopwatch timer;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const std::size_t block0 = pass * B;
    const std::size_t valid =
        std::min(B, total_blocks - block0);  // last pass may be partial
    sim.reset();
    sim.clear_faults();
    for (const ScenarioFault& f : faults) {
      if (f.scenario == sim::kAllScenarios) {
        sim.inject_fault(f.fault, sim::kAllScenarios);
        continue;
      }
      const std::size_t g = f.scenario / kLanes;
      if (g >= block0 && g < block0 + valid) {
        sim.inject_fault(f.fault,
                         (g - block0) * kLanes + f.scenario % kLanes);
      }
    }
    result.faulted_scenarios += sim.num_faulted_scenarios();
    for (std::uint64_t cycle = 0; cycle < options.cycles; ++cycle) {
      for (std::size_t i = 0; i < prog.inputs.size(); ++i) {
        for (std::size_t b = 0; b < valid; ++b) {
          sim.set_input_word(
              prog.inputs[i], b,
              scenario_stimulus_word(options.seed, i, cycle, block0 + b));
        }
      }
      sim.step();
      sim.fold_output_signatures(result.signatures.data() + block0 * kLanes,
                                 valid);
    }
    const std::size_t scenarios_done =
        std::min(scenarios, (block0 + valid) * kLanes);
    const double elapsed = timer.elapsed_seconds();
    const double rate = elapsed > 0.0
                            ? static_cast<double>(scenarios_done) / elapsed
                            : 0.0;
    progress.advance(scenarios_done);
    progress.field("faulted", static_cast<double>(result.faulted_scenarios));
    progress.field("throughput_scenarios_per_sec", rate);
    // High-water mark: concurrent campaigns race, the best rate wins.
    throughput_gauge.set_max(rate);
  }
  result.seconds = timer.elapsed_seconds();
  result.scenario_cycles_per_sec =
      result.seconds > 0.0 ? static_cast<double>(scenarios) *
                                 static_cast<double>(options.cycles) /
                                 result.seconds
                           : 0.0;
  telemetry::metrics()
      .histogram("debug.scenario.batch_seconds")
      .observe(result.seconds);
  return result;
}

sim::BatchSimOptions engine_options(const ScenarioBatchOptions& options) {
  constexpr std::size_t kLanes = sim::BatchSimulator::kLanesPerBlock;
  const std::size_t total_blocks =
      std::max<std::size_t>(1, (options.scenarios + kLanes - 1) / kLanes);
  sim::BatchSimOptions engine;
  engine.blocks = options.blocks_per_pass != 0 ? options.blocks_per_pass : 64;
  engine.blocks = std::min(engine.blocks, total_blocks);
  return engine;
}

}  // namespace

std::uint64_t scenario_stimulus_word(std::uint64_t seed, std::size_t input,
                                     std::uint64_t cycle, std::size_t block) {
  // One splitmix draw per (input, cycle, block): stateless, so a scenario's
  // stimulus never depends on the batch width.
  return splitmix64(seed ^ (static_cast<std::uint64_t>(input) << 40) ^
                    (cycle << 16) ^ static_cast<std::uint64_t>(block));
}

ScenarioBatchResult run_scenario_batch(const netlist::Netlist& nl,
                                       const ScenarioBatchOptions& options) {
  sim::BatchSimulator sim(nl, engine_options(options));
  return drive(sim, options);
}

ScenarioBatchResult run_scenario_batch(const map::MappedNetlist& mn,
                                       const ScenarioBatchOptions& options) {
  // A campaign never sets a parameter, so it runs the design specialized on
  // the all-zero assignment: every TCON a wire or a constant, every TLUT a
  // plain LUT.
  sim::BatchSimulator sim(
      sim::lower_program(mn, std::vector<bool>(mn.params().size(), false)),
      engine_options(options));
  return drive(sim, options);
}

std::vector<std::size_t> diverging_scenarios(const ScenarioBatchResult& a,
                                             const ScenarioBatchResult& b) {
  FPGADBG_REQUIRE(a.signatures.size() == b.signatures.size(),
                  "campaign results cover different scenario counts");
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < a.signatures.size(); ++s) {
    if (a.signatures[s] != b.signatures[s]) out.push_back(s);
  }
  telemetry::metrics()
      .gauge("debug.scenario.diverging")
      .set(static_cast<double>(out.size()));
  return out;
}

}  // namespace fpgadbg::debug
