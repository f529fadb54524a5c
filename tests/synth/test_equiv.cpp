// The equivalence-check service and Verilog testbench emission.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hlcs/sim/random.hpp"
#include "hlcs/synth/equiv.hpp"
#include "hlcs/synth/optimize.hpp"
#include "hlcs/synth/poly.hpp"
#include "equiv_replay.hpp"
#include "objects.hpp"
#include "shipped_objects.hpp"

namespace hlcs::synth {
namespace {

/// A copy of `nl` whose comb driving net `target` is complemented.
Netlist with_inverted_comb(const Netlist& nl, const std::string& target) {
  Netlist out(nl.name());
  for (const Net& n : nl.nets()) out.add_net(n.name, n.width);
  for (NetId n : nl.inputs()) out.mark_input(n);
  for (NetId n : nl.outputs()) out.mark_output(n);
  const NetId victim = nl.find(target);
  bool mutated = false;
  for (const CombAssign& c : nl.combs()) {
    ExprId v = clone_expr(
        nl.arena(), c.value, out.arena(),
        [&](std::uint32_t net, unsigned) { return out.net_ref(net); },
        [](std::uint32_t, unsigned) -> ExprId { fail("Arg in a netlist"); });
    if (c.target == victim) {
      v = out.arena().un(ExprOp::Not, v);
      mutated = true;
    }
    out.add_comb(c.target, v);
  }
  for (const RegDesc& r : nl.regs()) out.add_reg(r.q, r.d, r.init);
  if (!mutated) fail("no comb drives " + target);
  return out;
}

TEST(Equivalence, AllTestObjectsPass) {
  for (int which = 0; which < 4; ++which) {
    ObjectDesc d = which == 0   ? testobj::bistable()
                   : which == 1 ? testobj::counter()
                   : which == 2 ? testobj::mailbox()
                                : testobj::swapper();
    EquivResult r = check_equivalence(
        d, SynthOptions{.clients = 3},
        EquivOptions{.cycles = 300, .seed = 0xAB + static_cast<std::uint64_t>(which)});
    EXPECT_TRUE(r) << d.name() << ": " << r.first_mismatch;
    EXPECT_EQ(r.cycles, 300u);
    EXPECT_GT(r.grants, 50u) << d.name() << " made too little progress";
    EXPECT_EQ(r.vectors.size(), 300u);
  }
}

TEST(Equivalence, WithResetPulses) {
  ObjectDesc d = testobj::counter();
  EquivResult r = check_equivalence(
      d, SynthOptions{.clients = 2},
      EquivOptions{.cycles = 400, .seed = 9, .reset_percent = 5});
  EXPECT_TRUE(r) << r.first_mismatch;
  bool any_reset = false;
  for (const auto& v : r.vectors) any_reset |= v.rst;
  EXPECT_TRUE(any_reset) << "reset path was not exercised";
}

TEST(Equivalence, AllPoliciesAllClientCounts) {
  ObjectDesc d = testobj::mailbox();
  for (auto policy : {osss::PolicyKind::Fifo, osss::PolicyKind::RoundRobin,
                      osss::PolicyKind::StaticPriority,
                      osss::PolicyKind::Random, osss::PolicyKind::Adaptive}) {
    for (std::size_t clients : {1u, 3u, 7u}) {
      EquivResult r = check_equivalence(
          d, SynthOptions{.clients = clients, .policy = policy},
          EquivOptions{.cycles = 200});
      EXPECT_TRUE(r) << osss::policy_name(policy) << "/" << clients << ": "
                     << r.first_mismatch;
    }
  }
}

// Tight adaptive tuning so 400 random cycles exercise every arbiter
// regime -- aged-lane overrides, hot/cold mode flips at each 4-step
// window boundary -- not just the cold path the defaults would give.
TEST(Equivalence, AdaptiveTightTuningExercisesAgedLane) {
  ObjectDesc d = testobj::mailbox();
  for (std::size_t clients : {2u, 5u}) {
    EquivResult r = check_equivalence(
        d,
        SynthOptions{.clients = clients, .policy = osss::PolicyKind::Adaptive,
                     .adaptive_starve_bound = 4, .adaptive_window_log2 = 2,
                     .adaptive_hot_threshold = 2},
        EquivOptions{.cycles = 400, .seed = 0xADA7, .reset_percent = 3});
    EXPECT_TRUE(r) << "adaptive/" << clients << ": " << r.first_mismatch;
    EXPECT_GT(r.grants, 100u);
  }
}

TEST(Equivalence, PolymorphicObjectPasses) {
  ObjectDesc a("up");
  {
    auto c = a.add_var("count", 8, 0);
    a.add_method("step").assign(c,
                                a.arena().bin(ExprOp::Add, a.v(c), a.lit(1, 8)));
    a.add_method("read").returns(a.v(c), 8);
  }
  ObjectDesc b("down");
  {
    auto c = b.add_var("count", 8, 50);
    b.add_method("step").assign(c,
                                b.arena().bin(ExprOp::Sub, b.v(c), b.lit(1, 8)));
    b.add_method("read").returns(b.v(c), 8);
  }
  ObjectDesc poly = make_polymorphic("poly", {&a, &b}, 0);
  EquivResult r = check_equivalence(poly, SynthOptions{.clients = 2},
                                    EquivOptions{.cycles = 500, .seed = 3});
  EXPECT_TRUE(r) << r.first_mismatch;
}

TEST(Equivalence, VectorsRecordGrantsAndState) {
  ObjectDesc d = testobj::counter();
  EquivResult r = check_equivalence(d, SynthOptions{.clients = 1},
                                    EquivOptions{.cycles = 50, .seed = 1});
  ASSERT_TRUE(r) << r.first_mismatch;
  std::size_t grant_count = 0;
  for (const auto& v : r.vectors) {
    ASSERT_EQ(v.in.size(), 1u);
    ASSERT_EQ(v.vars.size(), d.vars().size());
    if (v.grant[0]) ++grant_count;
  }
  EXPECT_EQ(grant_count, r.grants);
}

TEST(Equivalence, OptimizedShippedObjectsPass) {
  // The netlist under test is the one hlcs_synth --optimize emits, not a
  // fresh synthesize() of the same description.
  for (const char* file : {"mailbox.obj", "semaphore.obj", "counters.obj"}) {
    const ObjectDesc d = shipped_object(file);
    for (osss::PolicyKind policy :
         {osss::PolicyKind::RoundRobin, osss::PolicyKind::Adaptive}) {
      SynthOptions opt;
      opt.clients = 3;
      opt.policy = policy;
      OptimizeStats ost;
      const Netlist nl = optimize(synthesize(d, opt), &ost);
      EXPECT_LT(ost.nodes_after, ost.nodes_before) << file;
      const EquivResult r = check_equivalence(
          d, opt, nl,
          EquivOptions{.cycles = 300, .seed = 0x0971, .reset_percent = 3,
                       .lanes = 4});
      EXPECT_TRUE(r) << file << "/" << osss::policy_name(policy) << ": "
                     << r.first_mismatch;
      EXPECT_GT(r.grants, 100u) << file;
    }
  }
}

TEST(Equivalence, MutatedCombFailsNamingLaneAndSeed) {
  const ObjectDesc d = testobj::mailbox();
  SynthOptions opt;
  opt.clients = 2;
  const Netlist good = synthesize(d, opt);
  const Netlist bad = with_inverted_comb(good, grant_port(1));
  // Part of one block, and one full 64-lane block.
  for (std::size_t lanes : {std::size_t{3}, std::size_t{64}}) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    const EquivOptions eopt{.cycles = 200, .seed = 0x5EED, .lanes = lanes};
    ASSERT_TRUE(check_equivalence(d, opt, good, eopt));

    const EquivResult r = check_equivalence(d, opt, bad, eopt);
    ASSERT_FALSE(r.equal);
    EXPECT_EQ(r.first_bad_seed, sim::lane_root(eopt.seed, r.first_bad_lane));
    std::ostringstream prefix;
    prefix << "lane " << r.first_bad_lane << " (seed 0x" << std::hex
           << r.first_bad_seed << "): ";
    EXPECT_EQ(r.first_mismatch.rfind(prefix.str(), 0), 0u)
        << r.first_mismatch;
    EXPECT_NE(r.first_mismatch.find("grant"), std::string::npos)
        << r.first_mismatch;

    // The reported seed replays the failing lane standalone: a one-lane
    // run rooted there fails the same way, on the same vectors.
    const EquivResult replay = check_equivalence(
        d, opt, bad,
        EquivOptions{.cycles = 200, .seed = r.first_bad_seed, .lanes = 1});
    ASSERT_FALSE(replay.equal);
    EXPECT_EQ(mismatch_body(replay.first_mismatch),
              mismatch_body(r.first_mismatch));
    expect_same_vectors(replay.vectors, r.vectors);
  }
}

TEST(Equivalence, FailingLaneReplaysFromItsReportedSeed) {
  // Short checks of a subtle defect (client 2's return value inverted,
  // seen only when client 2 gets a method with a return value), so the
  // first failing lane is often not lane 0: every reported seed must
  // still replay its lane standalone.
  const ObjectDesc d = testobj::mailbox();
  const SynthOptions opt{.clients = 3,
                         .policy = osss::PolicyKind::RoundRobin};
  const Netlist bad = with_inverted_comb(synthesize(d, opt), ret_port(2));
  std::size_t later_lanes = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const EquivResult r = expect_matches_replays(
        d, opt, bad, EquivOptions{.cycles = 6, .seed = seed, .lanes = 64});
    if (!r.equal && r.first_bad_lane > 0) ++later_lanes;
  }
  EXPECT_GT(later_lanes, 0u) << "no run failed first on a lane other than 0";
}

TEST(Equivalence, IdenticalAtAnyThreadCount) {
  // 130 lanes = three blocks (64 + 64 + 2), claimed in racy order by
  // the pool, each on its own NetlistSim: the result -- verdict, grants,
  // vectors, first failing lane with its seed and mismatch, and the
  // summed JIT counters -- must not depend on who ran what.
  const ObjectDesc d = testobj::mailbox();
  const SynthOptions opt{.clients = 4,
                         .policy = osss::PolicyKind::RoundRobin};
  const Netlist good = synthesize(d, opt);
  const Netlist bad = with_inverted_comb(good, ret_port(3));
  const unsigned hw = std::thread::hardware_concurrency();
  for (const Netlist* nl : {&good, &bad}) {
    SCOPED_TRACE(nl == &good ? "passing netlist" : "inverted comb");
    std::vector<EquivResult> runs;
    for (unsigned threads : {1u, 2u, hw == 0 ? 4u : hw}) {
      runs.push_back(check_equivalence(d, opt, *nl,
                                       EquivOptions{.cycles = 120,
                                                    .seed = 0x7EAD,
                                                    .reset_percent = 3,
                                                    .lanes = 130,
                                                    .threads = threads}));
    }
    EXPECT_EQ(runs[0].equal, nl == &good) << runs[0].first_mismatch;
    for (const EquivResult& r : runs) {
      EXPECT_EQ(r.equal, runs[0].equal);
      EXPECT_EQ(r.lanes, 130u);
      EXPECT_EQ(r.cycles, 120u * 130u);
      EXPECT_EQ(r.grants, runs[0].grants);
      EXPECT_EQ(r.first_bad_lane, runs[0].first_bad_lane);
      EXPECT_EQ(r.first_bad_seed, runs[0].first_bad_seed);
      EXPECT_EQ(r.first_mismatch, runs[0].first_mismatch);
      expect_same_vectors(r.vectors, runs[0].vectors);
      // Every counter but the compile wall time is a function of the
      // blocks alone.
      const JitStats& js = r.jit_stats;
      const JitStats& j0 = runs[0].jit_stats;
      EXPECT_EQ(js.enabled, TapeJit::host_supported());
      EXPECT_EQ(js.code_bytes, j0.code_bytes);
      EXPECT_EQ(js.stencils, j0.stencils);
      EXPECT_EQ(js.segments, j0.segments);
      EXPECT_EQ(js.combs_native, j0.combs_native);
      EXPECT_EQ(js.combs_deopt, j0.combs_deopt);
      EXPECT_EQ(js.native_calls, j0.native_calls);
      EXPECT_EQ(js.deopt_comb_evals, j0.deopt_comb_evals);
      EXPECT_EQ(js.deopt_ops, j0.deopt_ops);
    }
  }
}

// ---------------------------------------------------------------------
// Multi-lane checks vs one-lane replays: an N-lane check runs its lanes
// in 64-lane blocks and merges them in lane order; each lane must equal
// its one-lane replay (equiv_replay.hpp).
// ---------------------------------------------------------------------

TEST(BatchEquiv, VerdictsBitIdenticalToScalarBackend) {
  for (int which = 0; which < 4; ++which) {
    ObjectDesc d = which == 0   ? testobj::bistable()
                   : which == 1 ? testobj::counter()
                   : which == 2 ? testobj::mailbox()
                                : testobj::swapper();
    SCOPED_TRACE(d.name());
    SynthOptions opt;
    opt.clients = 3;
    opt.policy = which % 2 == 0 ? osss::PolicyKind::StaticPriority
                                : osss::PolicyKind::Fifo;
    const EquivResult rb = expect_matches_replays(
        d, opt,
        EquivOptions{.cycles = 150,
                     .seed = 0xBA7C4 + static_cast<std::uint64_t>(which),
                     .reset_percent = 4,
                     .lanes = 64});
    EXPECT_TRUE(rb.equal) << rb.first_mismatch;
    EXPECT_GT(rb.grants, 0u);
  }
}

TEST(BatchEquiv, ShippedObjectsBitIdenticalScalarVsBatch) {
  // The CLI objects under tools/objs/ are the shipped surface of the
  // flow; a 64-lane check must reproduce the one-lane verdicts on each
  // of them exactly (counters.obj carries several implementations and
  // goes through the same polymorphic flattening as hlcs_synth).
  for (const char* file : {"mailbox.obj", "semaphore.obj", "counters.obj"}) {
    SCOPED_TRACE(file);
    const ObjectDesc d = shipped_object(file);
    for (osss::PolicyKind policy :
         {osss::PolicyKind::StaticPriority, osss::PolicyKind::RoundRobin}) {
      SCOPED_TRACE(osss::policy_name(policy));
      SynthOptions opt;
      opt.clients = 3;
      opt.policy = policy;
      const EquivResult rb = expect_matches_replays(
          d, opt,
          EquivOptions{.cycles = 150,
                       .seed = 0x0B15C0 + static_cast<std::uint64_t>(policy),
                       .reset_percent = 4,
                       .lanes = 64});
      EXPECT_TRUE(rb.equal) << rb.first_mismatch;
      EXPECT_GT(rb.grants, 0u);
    }
  }
}

TEST(BatchEquiv, SuperlaneParityMatrixOnShippedObjects) {
  // The shipped .obj surface with reset pulses: a check whose lane count
  // is no multiple of the block width equals its one-lane replays at
  // any thread count.
  sim::Xorshift rng(0x5C277);
  for (const char* file : {"mailbox.obj", "semaphore.obj", "counters.obj"}) {
    SCOPED_TRACE(file);
    const ObjectDesc d = shipped_object(file);
    SynthOptions opt;
    opt.clients = 2;
    opt.policy = osss::PolicyKind::RoundRobin;
    const Netlist nl = synthesize(d, opt);
    // Re-rolled per object so the matrix drifts across the suite's
    // seeds.
    const std::size_t lanes = 65 + rng.below(140);
    const std::uint64_t seed = rng.next();
    for (unsigned threads : {1u, 3u}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " lanes " +
                   std::to_string(lanes));
      const EquivResult rb = expect_matches_replays(
          d, opt, nl,
          EquivOptions{.cycles = 60,
                       .seed = seed,
                       .reset_percent = 4,
                       .lanes = lanes,
                       .threads = threads});
      EXPECT_TRUE(rb.equal) << rb.first_mismatch;
    }
  }
}

TEST(BatchEquiv, SuperlaneVerdictsIdenticalToK1UnderTheSameSeed) {
  // Block-shape determinism at the service level: lane L's stimulus
  // stream is a function of lane_seed(seed, L) only, never of the block
  // it ran in.  A 512-lane check therefore equals eight 64-lane checks
  // rooted at lane_root(seed, 64 * b): same verdict, grant totals and
  // recorded vectors.
  const ObjectDesc d = testobj::mailbox();
  SynthOptions opt;
  opt.clients = 3;
  opt.policy = osss::PolicyKind::StaticPriority;
  const EquivOptions eopt{.cycles = 100,
                          .seed = 0xD0D0,
                          .reset_percent = 3,
                          .lanes = 512};
  const EquivResult whole = check_equivalence(d, opt, eopt);
  EXPECT_TRUE(whole.equal) << whole.first_mismatch;
  EXPECT_EQ(whole.cycles, 100u * 512u);
  std::size_t grants = 0;
  for (std::size_t b = 0; b < 8; ++b) {
    EquivOptions part = eopt;
    part.seed = sim::lane_root(eopt.seed, 64 * b);
    part.lanes = 64;
    const EquivResult r = check_equivalence(d, opt, part);
    EXPECT_TRUE(r.equal) << r.first_mismatch;
    grants += r.grants;
    if (b == 0) expect_same_vectors(whole.vectors, r.vectors);
  }
  EXPECT_EQ(whole.grants, grants);
}

TEST(BatchEquiv, ScalarMultiLaneMatchesBatchAndSingleLaneReplay) {
  // Part of one block and a full block: both must equal their one-lane
  // replays, and lane 0 of both runs is the same stream.
  const ObjectDesc d = testobj::counter();
  SynthOptions opt;
  opt.clients = 2;
  opt.policy = osss::PolicyKind::StaticPriority;
  const EquivResult rm = expect_matches_replays(
      d, opt, EquivOptions{.cycles = 100, .seed = 0x1DEA, .lanes = 5});
  EXPECT_TRUE(rm.equal) << rm.first_mismatch;
  const EquivResult rb = expect_matches_replays(
      d, opt, EquivOptions{.cycles = 100, .seed = 0x1DEA, .lanes = 64});
  EXPECT_TRUE(rb.equal) << rb.first_mismatch;
  expect_same_vectors(rm.vectors, rb.vectors);
}

TEST(BatchEquiv, DeterministicAtAnyThreadCount) {
  // 130 lanes = three blocks (64 + 64 + 2), claimed in racy order by
  // the pool; results must not depend on who ran what.
  const ObjectDesc d = testobj::mailbox();
  SynthOptions opt;
  opt.clients = 4;
  opt.policy = osss::PolicyKind::RoundRobin;
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<EquivResult> runs;
  for (unsigned threads : {1u, 2u, hw == 0 ? 4u : hw}) {
    EquivOptions eopt{.cycles = 120,
                      .seed = 0x7EAD,
                      .reset_percent = 3,
                      .lanes = 130,
                      .threads = threads};
    runs.push_back(check_equivalence(d, opt, eopt));
  }
  for (const EquivResult& r : runs) {
    EXPECT_TRUE(r.equal) << r.first_mismatch;
    EXPECT_EQ(r.cycles, 120u * 130u);
    EXPECT_EQ(r.grants, runs[0].grants);
    // The blocks' engine counters sum the same in any claim order.
    EXPECT_EQ(r.jit_stats.native_calls, runs[0].jit_stats.native_calls);
    EXPECT_EQ(r.jit_stats.deopt_comb_evals,
              runs[0].jit_stats.deopt_comb_evals);
    expect_same_vectors(r.vectors, runs[0].vectors);
  }
}

TEST(LaneSeeds, StableAndDistinct) {
  // The derivation is part of the reproducibility contract: a logged
  // lane seed from an old failure must mean the same stream forever,
  // and a logged lane root must replay that lane as lane 0.
  EXPECT_EQ(sim::lane_seed(0, 0), sim::splitmix64(0));
  for (std::uint64_t lane : {0u, 1u, 63u, 64u, 511u}) {
    EXPECT_EQ(sim::lane_seed(sim::lane_root(0xEC1, lane), 0),
              sim::lane_seed(0xEC1, lane));
  }
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t lane = 0; lane < 128; ++lane) {
    seeds.push_back(sim::lane_seed(0xEC1, lane));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
}

TEST(VerilogTestbench, EmitsSelfCheckingBench) {
  ObjectDesc d = testobj::mailbox();
  SynthOptions opt{.clients = 2};
  Netlist nl = synthesize(d, opt);
  EquivResult r =
      check_equivalence(d, opt, EquivOptions{.cycles = 20, .seed = 7});
  ASSERT_TRUE(r);
  std::string tb = emit_verilog_testbench(nl, r.vectors);
  EXPECT_NE(tb.find("module mailbox_rtl_tb;"), std::string::npos);
  EXPECT_NE(tb.find("mailbox_rtl dut ("), std::string::npos);
  EXPECT_NE(tb.find("always #5 clk = ~clk;"), std::string::npos);
  EXPECT_NE(tb.find("$fatal"), std::string::npos);
  EXPECT_NE(tb.find("$finish"), std::string::npos);
  // One check line per client per vector.
  std::size_t checks = 0, pos = 0;
  while ((pos = tb.find("check(", pos)) != std::string::npos) {
    ++checks;
    pos += 6;
  }
  EXPECT_EQ(checks, 1u + 20u * 2u) << "task definition + per-vector checks";
}

TEST(VerilogTestbench, EmptyVectorsThrow) {
  ObjectDesc d = testobj::counter();
  Netlist nl = synthesize(d, SynthOptions{.clients = 1});
  EXPECT_THROW(emit_verilog_testbench(nl, {}), hlcs::Error);
}

}  // namespace
}  // namespace hlcs::synth
