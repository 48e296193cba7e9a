// Differential tests pinning the SoA batch engine to the NetlistSimulator
// oracle: every output bit of every scenario must match a NetlistSimulator
// fed that scenario's lane of every input and parameter word — clean, under
// block-granular faults, and at the degenerate width B = 1.  Plus the
// invariants that make batched campaigns trustworthy: per-scenario fault
// isolation, thread-count invisibility, snapshot shape checking, and loud
// bounds failures.
#include "sim/batch_simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "genbench/genbench.h"
#include "sim/simulator.h"
#include "support/error.h"
#include "support/rng.h"

namespace fpgadbg::sim {
namespace {

using netlist::Netlist;
using netlist::NodeId;

constexpr std::size_t kBlocks = 4;
constexpr std::size_t kLanes = BatchSimulator::kLanesPerBlock;

genbench::CircuitSpec small_spec(std::uint64_t seed) {
  return genbench::CircuitSpec{"batch150", 12, 10, 8, 150, 4, 6,
                               321 * seed};
}

/// One NetlistSimulator per scenario of a `blocks`-block batch; scenario s
/// is oracles[s].
std::vector<NetlistSimulator> lane_oracles(const Netlist& nl,
                                           std::size_t blocks) {
  std::vector<NetlistSimulator> oracles;
  oracles.reserve(blocks * kLanes);
  for (std::size_t s = 0; s < blocks * kLanes; ++s) oracles.emplace_back(nl);
  return oracles;
}

/// Injects `fault` into every lane of `block`.
void inject_block_fault(std::vector<NetlistSimulator>& oracles,
                        std::size_t block, const Fault& fault) {
  for (std::size_t l = 0; l < kLanes; ++l) {
    oracles[block * kLanes + l].inject_fault(fault);
  }
}

/// Drives `cycles` of per-block random stimulus words through the batch and
/// bit l of each word through oracle l of that block, asserting every output
/// bit of every scenario matches every cycle.
void expect_matches_oracle(const Netlist& nl, BatchSimulator& batch,
                           std::vector<NetlistSimulator>& oracles, int cycles,
                           std::uint64_t seed) {
  const std::size_t blocks = batch.blocks();
  ASSERT_EQ(oracles.size(), batch.num_scenarios());
  Rng rng(seed);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (NodeId p : nl.params()) {
      for (std::size_t b = 0; b < blocks; ++b) {
        const std::uint64_t w = rng.next_u64();
        batch.set_param_word(p, b, w);
        for (std::size_t l = 0; l < kLanes; ++l) {
          oracles[b * kLanes + l].set_param(p, (w >> l) & 1);
        }
      }
    }
    for (NodeId in : nl.inputs()) {
      for (std::size_t b = 0; b < blocks; ++b) {
        const std::uint64_t w = rng.next_u64();
        batch.set_input_word(in, b, w);
        for (std::size_t l = 0; l < kLanes; ++l) {
          oracles[b * kLanes + l].set_input(in, (w >> l) & 1);
        }
      }
    }
    batch.step();
    for (NetlistSimulator& oracle : oracles) oracle.step();
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      for (std::size_t s = 0; s < oracles.size(); ++s) {
        ASSERT_EQ(batch.output_value(o, s), oracles[s].output(o))
            << "cycle " << cycle << " output " << o << " block "
            << s / kLanes << " lane " << s % kLanes;
      }
    }
  }
}

// The test names predate the oracle reference (the batch was checked against
// the compiled engine's word mode, since deleted); they are kept so the
// tests' ids stay stable.
TEST(BatchSimulator, CleanBatchMatchesIndependentCompiledRuns) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Netlist nl = genbench::generate(small_spec(seed));
    BatchSimulator batch(nl, BatchSimOptions{.blocks = kBlocks});
    std::vector<NetlistSimulator> oracles = lane_oracles(nl, kBlocks);
    expect_matches_oracle(nl, batch, oracles, 30, seed + 5);
  }
}

TEST(BatchSimulator, FaultedBlocksMatchFaultedCompiledRuns) {
  // Fault universe: block 1 gets an invert, block 3 a stuck-at-1 plus a
  // flip-on-cycle; blocks 0 and 2 stay clean.  The batch must reproduce all
  // four universes in one pass.
  const Netlist nl =
      genbench::generate(genbench::CircuitSpec{"batch400", 16, 12, 12, 400,
                                               5, 6, 322});
  const auto& topo = nl.topo_order();
  const Fault invert{topo[topo.size() / 2], FaultType::kInvert, 0};
  const Fault stuck{topo[topo.size() / 3], FaultType::kStuckAt1, 0};
  const Fault flip{topo[2 * topo.size() / 3], FaultType::kFlipOnCycle, 6};

  BatchSimulator batch(nl, BatchSimOptions{.blocks = kBlocks});
  std::vector<NetlistSimulator> oracles = lane_oracles(nl, kBlocks);

  auto block_mask = [](std::size_t block) {
    std::vector<std::uint64_t> mask(kBlocks, 0);
    mask[block] = ~0ULL;
    return mask;
  };
  batch.inject_fault_masked(invert, block_mask(1));
  inject_block_fault(oracles, 1, invert);
  batch.inject_fault_masked(stuck, block_mask(3));
  batch.inject_fault_masked(flip, block_mask(3));
  inject_block_fault(oracles, 3, stuck);
  inject_block_fault(oracles, 3, flip);
  EXPECT_EQ(batch.num_faulted_scenarios(), 2 * kLanes);

  expect_matches_oracle(nl, batch, oracles, 16, 99);

  // Clearing faults re-merges every universe with the clean oracles.
  batch.clear_faults();
  for (NetlistSimulator& oracle : oracles) oracle.clear_faults();
  EXPECT_EQ(batch.num_faulted_scenarios(), 0u);
  expect_matches_oracle(nl, batch, oracles, 8, 100);
}

TEST(BatchSimulator, PerScenarioFaultTouchesExactlyOneLane) {
  const Netlist nl = genbench::generate(small_spec(7));
  const Fault fault{nl.topo_order().back(), FaultType::kInvert, 0};
  // faulted: scenario 70 only (block 1, lane 6); clean: no faults.
  BatchSimulator clean(nl, BatchSimOptions{.blocks = kBlocks});
  BatchSimulator faulted(nl, BatchSimOptions{.blocks = kBlocks});
  const std::size_t scenario = BatchSimulator::kLanesPerBlock + 6;
  faulted.inject_fault(fault, scenario);
  EXPECT_EQ(faulted.num_faulted_scenarios(), 1u);

  Rng rng(41);
  bool diverged = false;
  for (int cycle = 0; cycle < 20; ++cycle) {
    for (NodeId in : nl.inputs()) {
      for (std::size_t b = 0; b < kBlocks; ++b) {
        const std::uint64_t w = rng.next_u64();
        clean.set_input_word(in, b, w);
        faulted.set_input_word(in, b, w);
      }
    }
    clean.step();
    faulted.step();
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      for (std::size_t s = 0; s < clean.num_scenarios(); ++s) {
        if (s == scenario) {
          diverged |= clean.output_value(o, s) != faulted.output_value(o, s);
        } else {
          ASSERT_EQ(clean.output_value(o, s), faulted.output_value(o, s))
              << "cycle " << cycle << " output " << o << " scenario " << s;
        }
      }
    }
  }
  EXPECT_TRUE(diverged) << "invert on an output driver never observed";
}

TEST(BatchSimulator, SnapshotRoundTripReplays) {
  const Netlist nl = genbench::generate(small_spec(3));
  BatchSimulator batch(nl, BatchSimOptions{.blocks = kBlocks});
  Rng rng(23);
  std::vector<std::vector<std::uint64_t>> stimulus;
  for (int cycle = 0; cycle < 8; ++cycle) {
    auto& words = stimulus.emplace_back();
    for (NodeId in : nl.inputs()) {
      for (std::size_t b = 0; b < kBlocks; ++b) {
        words.push_back(rng.next_u64());
        batch.set_input_word(in, b, words.back());
      }
    }
    batch.step();
  }
  const auto snap = batch.snapshot();
  EXPECT_EQ(snap.version, BatchSimulator::kSnapshotVersion);
  EXPECT_EQ(snap.blocks, kBlocks);
  EXPECT_EQ(snap.cycle, 8u);

  auto replay = [&](std::vector<std::uint64_t>& trace) {
    for (int cycle = 0; cycle < 4; ++cycle) {
      std::size_t w = 0;
      for (NodeId in : nl.inputs()) {
        for (std::size_t b = 0; b < kBlocks; ++b) {
          batch.set_input_word(
              in, b, stimulus[static_cast<std::size_t>(cycle)][w++]);
        }
      }
      batch.step();
      for (std::size_t b = 0; b < kBlocks; ++b) {
        trace.push_back(batch.output_word(0, b));
      }
    }
  };
  std::vector<std::uint64_t> ahead, rewound;
  replay(ahead);
  batch.restore(snap);
  EXPECT_EQ(batch.cycle(), 8u);
  replay(rewound);
  EXPECT_EQ(ahead, rewound);
}

TEST(BatchSimulator, RestoreRejectsWrongShape) {
  const Netlist nl = genbench::generate(small_spec(2));
  BatchSimulator batch(nl, BatchSimOptions{.blocks = kBlocks});
  batch.step();
  const auto good = batch.snapshot();
  {
    auto bad = good;
    bad.version = 99;
    EXPECT_THROW(batch.restore(bad), Error);
  }
  {
    auto bad = good;  // snapshot from a different batch width
    bad.blocks = kBlocks * 2;
    EXPECT_THROW(batch.restore(bad), Error);
  }
  {
    auto bad = good;
    bad.latch_words.pop_back();
    EXPECT_THROW(batch.restore(bad), Error);
  }
  batch.restore(good);  // the untampered snapshot still restores
  EXPECT_EQ(batch.cycle(), 1u);
}

TEST(BatchSimulator, BoundsChecksFailLoudly) {
  const Netlist nl = genbench::generate(small_spec(1));
  BatchSimulator batch(nl, BatchSimOptions{.blocks = kBlocks});
  const NodeId in = nl.inputs().front();
  EXPECT_THROW(batch.set_input_word(1u << 20, 0, 0), Error);
  EXPECT_THROW(batch.set_input_word(in, kBlocks, 0), Error);
  EXPECT_THROW(batch.set_param_word(1u << 20, 0, 0), Error);
  EXPECT_THROW(batch.word(1u << 20, 0), Error);
  EXPECT_THROW(batch.output_word(nl.outputs().size(), 0), Error);
  EXPECT_THROW(
      batch.inject_fault({1u << 20, FaultType::kInvert, 0}, kAllScenarios),
      Error);
  EXPECT_THROW(batch.inject_fault({nl.topo_order().back(),
                                   FaultType::kInvert, 0},
                                  batch.num_scenarios()),
               Error);
  // Mask must carry exactly one word per block.
  std::vector<std::uint64_t> short_mask(kBlocks - 1, ~0ULL);
  EXPECT_THROW(batch.inject_fault_masked(
                   {nl.topo_order().back(), FaultType::kInvert, 0},
                   short_mask),
               Error);
}

TEST(BatchSimulator, SingleBlockMatchesCompiledEngine) {
  // Degenerate width B = 1: 64 independent streams, each checked against
  // its own oracle.
  const Netlist nl = genbench::generate(small_spec(6));
  BatchSimulator batch(nl, BatchSimOptions{.blocks = 1});
  std::vector<NetlistSimulator> oracles = lane_oracles(nl, 1);
  expect_matches_oracle(nl, batch, oracles, 20, 61);
}

TEST(BatchSimulator, WordModeMatchesNetlistOracle) {
  // The word setters at B = 1 on designs joined by a parameter gate, so
  // parameter words are checked lane by lane as well, plus the setters'
  // input/param kind checks.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    genbench::CircuitSpec spec{"word", 10, 8, 6, 120, 6, 5, seed * 211};
    Netlist nl = genbench::generate(spec);
    const NodeId param = nl.add_param("p");
    nl.add_output(
        nl.add_logic("pf", {nl.inputs().front(), param}, logic::tt_xor(2)),
        "po");
    BatchSimulator batch(nl, BatchSimOptions{.blocks = 1});
    std::vector<NetlistSimulator> oracles = lane_oracles(nl, 1);
    expect_matches_oracle(nl, batch, oracles, 25, seed);
    EXPECT_THROW(batch.set_param_word(nl.inputs().front(), 0, 0), Error);
    EXPECT_THROW(batch.set_input_word(param, 0, 0), Error);
    EXPECT_THROW(batch.broadcast_param(nl.inputs().front(), true), Error);
    EXPECT_THROW(batch.broadcast_input(param, true), Error);
  }
}

TEST(BatchSimulator, FoldOutputSignaturesMatchesPerBitFnv) {
  // Fold two of three blocks each cycle: the result is FNV-1a over every
  // output bit in program order, one multiply per bit, and the third
  // block's signatures are never written.
  constexpr std::size_t kFoldBlocks = 3;
  constexpr std::size_t kValid = 2;
  const Netlist nl = genbench::generate(small_spec(7));
  BatchSimulator batch(nl, BatchSimOptions{.blocks = kFoldBlocks});
  std::vector<std::uint64_t> sigs(kFoldBlocks * kLanes, kSignatureOffsetBasis);
  for (std::size_t s = kValid * kLanes; s < sigs.size(); ++s) {
    sigs[s] = 0x5eed0000 + s;
  }
  std::vector<std::uint64_t> expected(kValid * kLanes, kSignatureOffsetBasis);
  Rng rng(17);
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (NodeId in : nl.inputs()) {
      for (std::size_t b = 0; b < kFoldBlocks; ++b) {
        batch.set_input_word(in, b, rng.next_u64());
      }
    }
    batch.step();
    batch.fold_output_signatures(sigs.data(), kValid);
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      const BatchSimulator::BatchView view = batch.output_view(o);
      for (std::size_t s = 0; s < expected.size(); ++s) {
        const std::uint64_t bit = view.bit(s) ? 1 : 0;
        expected[s] = (expected[s] ^ bit) * kSignaturePrime;
      }
    }
  }
  for (std::size_t s = 0; s < expected.size(); ++s) {
    ASSERT_EQ(sigs[s], expected[s]) << "scenario " << s;
  }
  for (std::size_t s = kValid * kLanes; s < sigs.size(); ++s) {
    ASSERT_EQ(sigs[s], 0x5eed0000 + s) << "scenario " << s;
  }
  EXPECT_THROW(batch.fold_output_signatures(sigs.data(), kFoldBlocks + 1),
               Error);
}

TEST(BatchSimulator, FaultOnSourceIsNoOp) {
  // The oracle only applies faults while walking logic nodes, so a fault on
  // an input is silently inert; the batch engine mirrors that contract.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId f = nl.add_logic("f", {a, b}, logic::tt_xor(2));
  nl.add_output(f, "o");
  NetlistSimulator ref(nl);
  BatchSimulator batch(nl);
  ref.inject_fault({a, FaultType::kStuckAt1, 0});
  batch.inject_fault({a, FaultType::kStuckAt1, 0});
  EXPECT_EQ(batch.num_faulted_scenarios(), 0u);
  // Lanes 0..3 enumerate (a, b); the oracle sees one combination at a time.
  batch.set_input_word(a, 0, 0b1010);
  batch.set_input_word(b, 0, 0b1100);
  batch.eval();
  for (std::size_t lane = 0; lane < 4; ++lane) {
    const bool va = (0b1010 >> lane) & 1;
    const bool vb = (0b1100 >> lane) & 1;
    ref.set_input(a, va);
    ref.set_input(b, vb);
    ref.eval();
    EXPECT_EQ(batch.output_value(0, lane), ref.output(0)) << va << vb;
    EXPECT_EQ(batch.output_value(0, lane), va != vb);
  }
}

}  // namespace
}  // namespace fpgadbg::sim
