// Random-simulation equivalence checking between flow stages.
//
// Synthesis and mapping must preserve function; these helpers drive both
// representations with the same random input/parameter streams and compare
// primary outputs cycle by cycle.  Signals are matched by name, so the
// netlists must share input/param/output naming (all our passes preserve
// names).
//
// Backend selection: with SimBackend::kCompiled (the default) each design
// runs on one BatchSimulator block — 64 independent sequential stimulus
// streams advance per step, so `vectors` random vectors cost
// ceil(vectors / 64) evaluation sweeps.  kInterpreted retains the original
// one-vector-at-a-time interpreters as the oracle path.
#pragma once

#include <string>

#include "map/mapped_netlist.h"
#include "netlist/netlist.h"
#include "sim/sim_backend.h"
#include "support/rng.h"

namespace fpgadbg::sim {

struct EquivalenceReport {
  bool equivalent = true;
  std::uint64_t vectors_checked = 0;
  std::string first_mismatch;  ///< human-readable description, if any
};

/// Compare two netlists over at least `vectors` random stimulus steps
/// (sequential: latches are clocked between vectors).
EquivalenceReport check_equivalence(const netlist::Netlist& a,
                                    const netlist::Netlist& b,
                                    std::uint64_t vectors, Rng& rng,
                                    SimBackend backend);

/// Compare a netlist against its technology-mapped form.
EquivalenceReport check_equivalence(const netlist::Netlist& a,
                                    const map::MappedNetlist& b,
                                    std::uint64_t vectors, Rng& rng,
                                    SimBackend backend);

inline EquivalenceReport check_equivalence(const netlist::Netlist& a,
                                           const netlist::Netlist& b,
                                           std::uint64_t vectors, Rng& rng) {
  return check_equivalence(a, b, vectors, rng, SimBackend::kCompiled);
}

inline EquivalenceReport check_equivalence(const netlist::Netlist& a,
                                           const map::MappedNetlist& b,
                                           std::uint64_t vectors, Rng& rng) {
  return check_equivalence(a, b, vectors, rng, SimBackend::kCompiled);
}

}  // namespace fpgadbg::sim
