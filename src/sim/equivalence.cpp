#include "sim/equivalence.h"

#include <bit>
#include <sstream>

#include "sim/batch_simulator.h"
#include "sim/mapped_simulator.h"
#include "sim/simulator.h"
#include "support/error.h"

namespace fpgadbg::sim {

namespace {

/// Drives two simulators with identical stimulus and compares outputs.
/// SimB must expose the same set_input/set_param/step/output interface.
template <typename SimA, typename SimB, typename NamesA>
EquivalenceReport run_lockstep(SimA& sa, SimB& sb, const NamesA& input_names,
                               const NamesA& param_names,
                               const std::vector<std::string>& out_names,
                               std::uint64_t vectors, Rng& rng) {
  EquivalenceReport report;
  // Parameters change rarely; re-randomize them every 16 vectors.
  std::vector<bool> params(param_names.size(), false);
  for (std::uint64_t v = 0; v < vectors; ++v) {
    if (v % 16 == 0) {
      for (std::size_t p = 0; p < params.size(); ++p) {
        params[p] = rng.next_bool();
        sa.set_param_by_name(param_names[p], params[p]);
        sb.set_param_by_name(param_names[p], params[p]);
      }
    }
    for (const auto& name : input_names) {
      const bool bit = rng.next_bool();
      sa.set_input_by_name(name, bit);
      sb.set_input_by_name(name, bit);
    }
    sa.sim.step();
    sb.sim.step();
    const auto oa = sa.sim.output_values();
    const auto ob = sb.sim.output_values();
    for (std::size_t i = 0; i < oa.size(); ++i) {
      if (oa[i] != ob[i]) {
        report.equivalent = false;
        std::ostringstream os;
        os << "output '" << out_names[i] << "' differs at vector " << v
           << ": " << oa[i] << " vs " << ob[i];
        report.first_mismatch = os.str();
        report.vectors_checked = v + 1;
        return report;
      }
    }
  }
  report.vectors_checked = vectors;
  return report;
}

/// Word-parallel lockstep: 64 independent sequential streams advance per
/// step, so the requested vector count costs ceil(vectors / 64) evaluation
/// sweeps on each side.
template <typename DrvA, typename DrvB>
EquivalenceReport run_lockstep_words(DrvA& sa, DrvB& sb,
                                     const std::vector<std::string>& input_names,
                                     const std::vector<std::string>& param_names,
                                     const std::vector<std::string>& out_names,
                                     std::uint64_t vectors, Rng& rng) {
  EquivalenceReport report;
  const std::uint64_t steps = (vectors + 63) / 64;
  for (std::uint64_t s = 0; s < steps; ++s) {
    // Parameters are quasi-static per stream; re-randomize them every 16
    // steps (the scalar path's every-16-vectors cadence, per lane).
    if (s % 16 == 0) {
      for (const auto& name : param_names) {
        const std::uint64_t word = rng.next_u64();
        sa.set_param_word_by_name(name, word);
        sb.set_param_word_by_name(name, word);
      }
    }
    for (const auto& name : input_names) {
      const std::uint64_t word = rng.next_u64();
      sa.set_input_word_by_name(name, word);
      sb.set_input_word_by_name(name, word);
    }
    sa.sim.step();
    sb.sim.step();
    for (std::size_t i = 0; i < out_names.size(); ++i) {
      const std::uint64_t wa = sa.sim.output_word(i, 0);
      const std::uint64_t wb = sb.sim.output_word(i, 0);
      if (wa != wb) {
        const int lane = std::countr_zero(wa ^ wb);
        report.equivalent = false;
        std::ostringstream os;
        os << "output '" << out_names[i] << "' differs at step " << s
           << " lane " << lane << ": " << ((wa >> lane) & 1) << " vs "
           << ((wb >> lane) & 1);
        report.first_mismatch = os.str();
        report.vectors_checked = s * 64 + 64;
        return report;
      }
    }
  }
  report.vectors_checked = steps * 64;
  return report;
}

struct NetlistDriver {
  explicit NetlistDriver(const netlist::Netlist& nl) : sim(nl) {}
  void set_input_by_name(const std::string& name, bool v) {
    sim.set_input(name, v);
  }
  void set_param_by_name(const std::string& name, bool v) {
    const auto id = sim.netlist().find(name);
    FPGADBG_REQUIRE(id.has_value(), "unknown param: " + name);
    sim.set_param(*id, v);
  }
  NetlistSimulator sim;
};

struct MappedDriver {
  explicit MappedDriver(const map::MappedNetlist& mn)
      : sim(mn, SimBackend::kInterpreted) {}
  void set_input_by_name(const std::string& name, bool v) {
    sim.set_input(name, v);
  }
  void set_param_by_name(const std::string& name, bool v) {
    const auto id = sim.netlist().find(name);
    FPGADBG_REQUIRE(id.has_value(), "unknown param: " + name);
    sim.set_param(*id, v);
  }
  MappedSimulator sim;
};

/// One BatchSimulator block (64 lanes) over a netlist or a mapped netlist.
template <typename Design>
struct BatchDriver {
  explicit BatchDriver(const Design& d) : design(&d), sim(d) {}
  void set_input_word_by_name(const std::string& name, std::uint64_t w) {
    const auto id = design->find(name);
    FPGADBG_REQUIRE(id.has_value(), "unknown input: " + name);
    sim.set_input_word(*id, 0, w);
  }
  void set_param_word_by_name(const std::string& name, std::uint64_t w) {
    const auto id = design->find(name);
    FPGADBG_REQUIRE(id.has_value(), "unknown param: " + name);
    sim.set_param_word(*id, 0, w);
  }
  const Design* design;
  BatchSimulator sim;
};

std::vector<std::string> names_of(const netlist::Netlist& nl,
                                  const std::vector<netlist::NodeId>& ids) {
  std::vector<std::string> names;
  names.reserve(ids.size());
  for (auto id : ids) names.push_back(nl.name(id));
  return names;
}

}  // namespace

EquivalenceReport check_equivalence(const netlist::Netlist& a,
                                    const netlist::Netlist& b,
                                    std::uint64_t vectors, Rng& rng,
                                    SimBackend backend) {
  FPGADBG_REQUIRE(a.outputs().size() == b.outputs().size(),
                  "output count mismatch");
  if (backend == SimBackend::kCompiled) {
    BatchDriver<netlist::Netlist> da(a);
    BatchDriver<netlist::Netlist> db(b);
    return run_lockstep_words(da, db, names_of(a, a.inputs()),
                              names_of(a, a.params()), a.output_names(),
                              vectors, rng);
  }
  NetlistDriver da(a);
  NetlistDriver db(b);
  return run_lockstep(da, db, names_of(a, a.inputs()), names_of(a, a.params()),
                      a.output_names(), vectors, rng);
}

EquivalenceReport check_equivalence(const netlist::Netlist& a,
                                    const map::MappedNetlist& b,
                                    std::uint64_t vectors, Rng& rng,
                                    SimBackend backend) {
  FPGADBG_REQUIRE(a.outputs().size() == b.outputs().size(),
                  "output count mismatch");
  if (backend == SimBackend::kCompiled) {
    BatchDriver<netlist::Netlist> da(a);
    BatchDriver<map::MappedNetlist> db(b);
    return run_lockstep_words(da, db, names_of(a, a.inputs()),
                              names_of(a, a.params()), a.output_names(),
                              vectors, rng);
  }
  NetlistDriver da(a);
  MappedDriver db(b);
  return run_lockstep(da, db, names_of(a, a.inputs()), names_of(a, a.params()),
                      a.output_names(), vectors, rng);
}

}  // namespace fpgadbg::sim
