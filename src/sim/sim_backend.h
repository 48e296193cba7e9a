// Simulation backend selection.
//
// The debug session's emulated DUT (MappedSimulator) and equivalence
// checking pick their engine through this enum: the per-node truth-table
// interpreters stay available as the oracle, while the compiled levelized
// engine is the default fast path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace fpgadbg::sim {

enum class SimBackend : std::uint8_t {
  kInterpreted,  ///< walk the netlist per node (NetlistSimulator-style oracle)
  kCompiled,     ///< lowered levelized program (CompiledSimulator; equivalence
                 ///< checking runs BatchSimulator)
};

std::string to_string(SimBackend backend);

}  // namespace fpgadbg::sim
