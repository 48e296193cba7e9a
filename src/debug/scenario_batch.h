// Session-side scenario campaigns over the batched simulator.
//
// A scenario campaign drives S independent pseudo-random stimulus streams
// (plus optional per-scenario fault injections) through one design and
// reduces every scenario's output trace to a 64-bit signature.  Stimulus
// bits are a stateless function of (seed, input, cycle, scenario), so the
// same scenario sees the same stimulus no matter how the campaign is
// chunked into batch passes — signatures are comparable across batch
// widths, engines, and processes.
//
// The signature of scenario s (block s / 64, lane s % 64) is FNV-1a over
// its output bits: it starts at sim::kSignatureOffsetBasis, and after each
// cycle's step, for each output o in declaration order,
//   sig = (sig ^ bit_o) * sim::kSignaturePrime,
// where input i of that cycle carried bit s % 64 of
// scenario_stimulus_word(seed, i, cycle, s / 64).
//
// A campaign never sets a parameter: every parameter is 0, whatever a
// debug session has observed.  The mapped-netlist entry point therefore
// runs the design specialized on the all-zero assignment (every TCON a
// wire or a constant, every TLUT a plain LUT; see sim/sim_program.h), whose
// outputs equal the generic design's with its parameters held at 0.
//
// Differential consumers (fpgadbg campaign, backend A/B checks) run the
// same campaign twice under different configurations and diff the
// signature vectors with diverging_scenarios().
#pragma once

#include <cstdint>
#include <vector>

#include "map/mapped_netlist.h"
#include "netlist/netlist.h"
#include "sim/fault.h"

namespace fpgadbg::debug {

struct ScenarioFault {
  sim::Fault fault;
  /// Target scenario index, or sim::kAllScenarios for every scenario.
  std::size_t scenario = 0;
};

struct ScenarioBatchOptions {
  /// Total independent scenarios; rounded up to a multiple of 64 (one
  /// scenario block).
  std::size_t scenarios = 4096;
  /// Cycles stepped per scenario.
  std::size_t cycles = 256;
  /// Seed of the stateless stimulus function.
  std::uint64_t seed = 0x5eed;
  /// Scenario blocks evaluated per simulator pass; 0 means 64.
  std::size_t blocks_per_pass = 0;
  /// Ignored: campaigns run on the calling thread.  Kept only because
  /// perfbench/cpp/campaign_ops.cpp assigns it.
  std::size_t num_threads = 1;
  /// Explicit fault list (applied where the target scenario falls).
  std::vector<ScenarioFault> faults;
  /// Convenience for smoke/profiling runs: inject this many kInvert faults,
  /// on the logic nodes driving outputs first (in output order), then on the
  /// lowest-numbered other logic nodes; fault i targets scenario 2*i + 1 —
  /// odd scenarios become faulted universes, even stay clean.
  std::size_t auto_faults = 0;
};

struct ScenarioBatchResult {
  std::size_t scenarios = 0;
  std::size_t cycles = 0;
  std::size_t blocks_per_pass = 0;
  std::size_t passes = 0;
  std::size_t faulted_scenarios = 0;
  /// Per-scenario FNV-1a over the output bit trace (defined above),
  /// comparable across batch widths.
  std::vector<std::uint64_t> signatures;
  double seconds = 0.0;
  double scenario_cycles_per_sec = 0.0;
};

/// The stimulus word for one input of one scenario block on one cycle (bit
/// l = scenario block*64 + l).  Stateless: depends only on the arguments.
std::uint64_t scenario_stimulus_word(std::uint64_t seed, std::size_t input,
                                     std::uint64_t cycle, std::size_t block);

ScenarioBatchResult run_scenario_batch(const netlist::Netlist& nl,
                                       const ScenarioBatchOptions& options);
ScenarioBatchResult run_scenario_batch(const map::MappedNetlist& mn,
                                       const ScenarioBatchOptions& options);

/// Scenario indices whose signatures differ between two campaign results
/// (the differential-testing primitive).  Requires equal scenario counts.
std::vector<std::size_t> diverging_scenarios(const ScenarioBatchResult& a,
                                             const ScenarioBatchResult& b);

}  // namespace fpgadbg::debug
