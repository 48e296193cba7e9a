// Scenario-throughput benchmark: the structure-of-arrays batch engine at
// increasing batch widths, on generated benchmarks of increasing size.
// Every configuration evaluates the SAME 4096 scenarios (64 scenario blocks
// x 64 lanes) with the same stateless stimulus function, so outputs must be
// bit-identical across batch widths — verified here with the library
// campaign's per-scenario signatures (debug::run_scenario_batch at each
// rung's width) before any speedup is reported.  The timed rungs drive the
// engine alone, without the campaign's signature fold.  The ladder: 1 block
// -> 16 blocks -> 64 blocks.  A final differential rung injects a fault into
// odd scenarios only and checks that exactly those universes diverge.  Emits
// BENCH_scenarios.json; acceptance is >= 12x scenario*cycles per second for
// the 64-block engine over the 1-block engine on the largest design.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"
#include "debug/scenario_batch.h"
#include "genbench/genbench.h"
#include "sim/batch_simulator.h"
#include "support/stopwatch.h"
#include "support/telemetry.h"

using namespace fpgadbg;

namespace {

constexpr std::uint64_t kSeed = 0xba7c4;

/// Seconds for the SoA engine at B blocks per pass (B*64 scenarios per
/// program walk) to run the ladder's scenarios.
double run_batched(const netlist::Netlist& nl, std::size_t blocks_per_pass,
                   std::size_t total_blocks, std::size_t cycles) {
  sim::BatchSimOptions opt;
  opt.blocks = blocks_per_pass;
  sim::BatchSimulator bs(nl, opt);
  const auto& inputs = bs.program().inputs;
  const std::size_t outputs = bs.program().outputs.size();
  const std::size_t passes =
      (total_blocks + blocks_per_pass - 1) / blocks_per_pass;
  std::uint64_t sink = 0;
  Stopwatch timer;
  for (std::size_t p = 0; p < passes; ++p) {
    const std::size_t block0 = p * blocks_per_pass;
    bs.reset();
    for (std::uint64_t c = 0; c < cycles; ++c) {
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        for (std::size_t b = 0; b < blocks_per_pass; ++b) {
          bs.set_input_word(
              inputs[i], b,
              debug::scenario_stimulus_word(kSeed, i, c, block0 + b));
        }
      }
      bs.step();
      for (std::size_t o = 0; o < outputs; ++o) {
        const sim::BatchSimulator::BatchView view = bs.output_view(o);
        for (std::size_t b = 0; b < blocks_per_pass; ++b) {
          sink ^= view.word(b);
        }
      }
    }
  }
  const double seconds = timer.elapsed_seconds();
  if (sink == 0x5eed5eed) std::printf("(unlikely)\n");
  return seconds;
}

struct ConfigRow {
  std::string label;
  std::size_t blocks = 1;
  double seconds = 0.0;
  double rate = 0.0;
  double speedup = 1.0;
  bool identical = true;
};

struct DesignRow {
  std::string name;
  std::size_t gates = 0;
  std::vector<ConfigRow> configs;
  double speedup_64blk = 0.0;
  bool identical_outputs = true;
  std::size_t fault_divergent = 0;
  bool fault_clean_intact = true;
};

}  // namespace

int main() {
  const bool quick = std::getenv("FPGADBG_QUICK") != nullptr;
  const std::size_t total_blocks = 64;  // 4096 scenarios
  const std::size_t cycles = quick ? 64 : 256;

  std::vector<genbench::CircuitSpec> specs = {
      {"scen200", 16, 12, 8, 200, 5, 6, 311},
      {"scen800", 20, 14, 12, 800, 6, 6, 312},
      {"scen2400", 24, 16, 16, 2400, 7, 6, 313},
  };
  if (quick) specs.resize(2);

  std::printf("=== scenario engine: SoA batch width ladder "
              "(%zu scenarios x %zu cycles) ===\n\n",
              total_blocks * 64, cycles);
  std::printf("%-9s | %12s | %12s | %12s | %7s\n", "design", "1 blk",
              "16 blk", "64 blk", "speedup");

  std::vector<DesignRow> rows;
  bool all_ok = true;
  for (const auto& spec : specs) {
    const auto nl = genbench::generate(spec);
    DesignRow row;
    row.name = spec.name;
    row.gates = spec.num_gates;

    // Timed runs (no signature collection on the clock), then an untimed
    // verification campaign per configuration at the same width, whose
    // per-scenario signatures must match the first rung's.
    struct Cfg {
      const char* label;
      std::size_t blocks;
    };
    const std::vector<Cfg> cfgs = {
        {"batch_1blk", 1},
        {"batch_16blk", 16},
        {"batch_64blk", 64},
    };
    std::vector<std::uint64_t> reference;
    for (const Cfg& cfg : cfgs) {
      const double seconds =
          run_batched(nl, cfg.blocks, total_blocks, cycles);
      debug::ScenarioBatchOptions vopt;
      vopt.scenarios = total_blocks * 64;
      vopt.cycles = cycles;
      vopt.seed = kSeed;
      vopt.blocks_per_pass = cfg.blocks;
      const auto verify = debug::run_scenario_batch(nl, vopt);
      ConfigRow c;
      c.label = cfg.label;
      c.blocks = cfg.blocks;
      c.seconds = seconds;
      c.rate = static_cast<double>(total_blocks * 64) *
               static_cast<double>(cycles) / seconds;
      if (reference.empty()) {
        reference = verify.signatures;
      } else {
        c.identical = verify.signatures == reference;
        row.identical_outputs = row.identical_outputs && c.identical;
      }
      c.speedup = row.configs.empty() ? 1.0
                                      : c.rate / row.configs.front().rate;
      row.configs.push_back(std::move(c));
    }
    row.speedup_64blk = row.configs.back().speedup;

    // Differential rung: invert an output-driving node in every odd
    // scenario (the batch mixes 2048 clean and 2048 faulted universes in
    // the same passes); exactly the odd universes must diverge from the
    // clean campaign.
    {
      const sim::SimProgram prog = sim::lower_program(nl);
      std::uint32_t fault_node = sim::kNoOp;
      for (std::uint32_t id : prog.outputs) {
        if (prog.op_of_node[id] != sim::kNoOp) {
          fault_node = id;
          break;
        }
      }
      debug::ScenarioBatchOptions copt;
      copt.scenarios = total_blocks * 64;
      copt.cycles = quick ? 32 : 64;
      copt.seed = kSeed;
      copt.blocks_per_pass = 64;
      const auto clean = debug::run_scenario_batch(nl, copt);
      for (std::size_t s = 1; s < copt.scenarios; s += 2) {
        debug::ScenarioFault f;
        f.fault.node = fault_node;
        f.fault.type = sim::FaultType::kInvert;
        f.scenario = s;
        copt.faults.push_back(f);
      }
      const auto faulted = debug::run_scenario_batch(nl, copt);
      const auto div = debug::diverging_scenarios(clean, faulted);
      row.fault_divergent = div.size();
      row.fault_clean_intact = div.size() == copt.scenarios / 2;
      for (std::size_t s : div) {
        if (s % 2 == 0) row.fault_clean_intact = false;
      }
    }

    std::printf("%-9s | %10.3fs | %10.3fs | %10.3fs | %6.1fx%s\n",
                row.name.c_str(), row.configs[0].seconds,
                row.configs[1].seconds, row.configs[2].seconds,
                row.speedup_64blk,
                row.identical_outputs ? "" : "  MISMATCH");
    std::printf("%-9s   fault rung: %zu/%zu odd scenarios diverged, even "
                "scenarios %s\n",
                "", row.fault_divergent, total_blocks * 64 / 2,
                row.fault_clean_intact ? "bit-identical" : "CORRUPTED");
    all_ok = all_ok && row.identical_outputs && row.fault_clean_intact;
    rows.push_back(std::move(row));
  }

  const double final_speedup = rows.back().speedup_64blk;
  std::printf("\nlargest design (%s): %.1fx scenario*cycles/sec over the "
              "1-block batch (acceptance: >= 12x) %s\n",
              rows.back().name.c_str(), final_speedup,
              final_speedup >= 12.0 ? "PASS" : "FAIL");
  if (final_speedup < 12.0) all_ok = false;

  // BENCH_scenarios.json: the ladder rows plus the full metrics snapshot
  // (same layout convention as the other bench artifacts).
  {
    std::ofstream out("BENCH_scenarios.json");
    out << "{\n  \"benchmark\": \"scenarios\",\n"
        << "  \"scenarios\": " << total_blocks * 64 << ",\n"
        << "  \"cycles\": " << cycles << ",\n  \"runs\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const DesignRow& r = rows[i];
      out << (i ? ",\n    " : "\n    ");
      out << "{\"name\": \"" << r.name << "\", \"gates\": " << r.gates
          << ", \"identical_outputs\": "
          << (r.identical_outputs ? "true" : "false")
          << ", \"speedup_64blk\": " << r.speedup_64blk
          << ",\n     \"fault_divergent\": " << r.fault_divergent
          << ", \"fault_clean_intact\": "
          << (r.fault_clean_intact ? "true" : "false")
          << ",\n     \"configs\": [";
      for (std::size_t c = 0; c < r.configs.size(); ++c) {
        const ConfigRow& cf = r.configs[c];
        out << (c ? ",\n       " : "\n       ");
        out << "{\"label\": \"" << cf.label << "\", \"blocks\": " << cf.blocks
            << ", \"seconds\": " << cf.seconds << ", \"scenario_cycles_per_sec\": " << cf.rate
            << ", \"speedup\": " << cf.speedup << ", \"identical\": "
            << (cf.identical ? "true" : "false") << "}";
      }
      out << "\n     ]}";
    }
    out << "\n  ],\n  \"metrics\": ";
    telemetry::metrics().write_json(out);
    out << "}\n";
    std::fprintf(stderr, "wrote BENCH_scenarios.json\n");
  }

  return all_ok ? 0 : 1;
}
