// Batch engine: K*64-lane bit-identity against the scalar engines.
//
// The contract under test is absolute: a BatchNetlistSim lane must be
// indistinguishable, net for net and cycle for cycle, from the netlist
// test oracle (and from NetlistSim) driven with the same stimulus --
// across random netlists (including word arithmetic, which takes the
// per-lane scalar fallback), every superlane factor K in {1, 4, 8},
// synthesized objects with reset pulses and register feedback, and any
// BatchRunner thread count.  At the check_equivalence level, an N-lane
// check must equal N one-lane replays (equiv_replay.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "hlcs/sim/random.hpp"
#include "hlcs/synth/batch_tape.hpp"
#include "hlcs/synth/equiv.hpp"
#include "hlcs/synth/rtl_sim.hpp"
#include "equiv_replay.hpp"
#include "netlist_gen.hpp"
#include "objects.hpp"
#include "shipped_objects.hpp"

namespace hlcs::synth {
namespace {

constexpr std::size_t kLanes = BatchNetlistSim::kLanes;

/// Drive the batch interpreter (at superlane factor `super`) and one
/// scalar reference sim per lane (the oracle OracleSim, or NetlistSim)
/// with identical per-lane random stimulus and require bit identity on
/// every net of every lane after every settle and edge.  This is the
/// lane-for-lane statement: batch lane L at any K equals the scalar
/// reference seeded for lane L, hence K=8 lane L equals K=1 lane L.
template <class Ref = OracleSim>
void drive_batch_lockstep(const Netlist& nl, std::uint64_t seed, int edges,
                          unsigned super = 1) {
  BatchNetlistSim batch(nl, super);
  const std::size_t lanes = batch.lanes();
  std::vector<std::unique_ptr<Ref>> refs;
  std::vector<sim::Xorshift> rngs;
  refs.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    refs.push_back(std::make_unique<Ref>(nl));
    rngs.emplace_back(sim::lane_seed(seed, lane));
  }
  const std::vector<NetId>& ins = nl.inputs();

  auto expect_identical = [&](int edge, const char* phase) {
    for (NetId n = 0; n < nl.nets().size(); ++n) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        ASSERT_EQ(batch.get(n, lane), refs[lane]->get(n))
            << "net '" << nl.nets()[n].name << "' lane " << lane << " ("
            << phase << ", edge " << edge << ", super " << super << ")";
      }
    }
  };

  for (int e = 0; e < edges; ++e) {
    for (NetId in : ins) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        // Mirror the scalar suite's stimulus shape: sometimes skip the
        // input, sometimes rewrite the current value.
        if (rngs[lane].chance(1, 4)) continue;
        const std::uint64_t v = rngs[lane].chance(1, 4)
                                    ? refs[lane]->get(in)
                                    : rngs[lane].next();
        batch.set_input(in, lane, v);
        refs[lane]->set_input(in, v);
      }
    }
    if ((e & 3) == 0) {
      batch.settle();
      for (auto& r : refs) r->settle();
      expect_identical(e, "settle");
    }
    batch.clock_edge();
    for (auto& r : refs) r->clock_edge();
    expect_identical(e, "edge");
  }
}

TEST(BatchSim, RandomNetlistsMatchScalarOnAllLanes) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("netlist seed " + std::to_string(seed));
    Netlist nl = make_random_netlist(seed * 0xB17C0DE + 5);
    drive_batch_lockstep(nl, seed * 0x51357, 24);
  }
}

TEST(BatchSim, AgreesWithEveryScalarEngine) {
  // Both scalar engines: the oracle and NetlistSim.
  Netlist nl = make_random_netlist(0xD15EA5E);
  drive_batch_lockstep<OracleSim>(nl, 0xCAFE, 16);
  drive_batch_lockstep<NetlistSim>(nl, 0xCAFE, 16);
}

TEST(BatchSim, SuperlaneParityMatrix) {
  // K matrix over randomized netlists: every lane of a K=4 / K=8
  // superlane sim must match its own oracle.  The generator mixes word
  // arithmetic in, so the K-wide scalar fallback (gather/exec/scatter
  // over K*64 lanes) is exercised too, not just the row loops.
  for (unsigned super : {1u, 4u, 8u}) {
    Netlist nl = make_random_netlist(0x5AFE + super);
    SCOPED_TRACE("super " + std::to_string(super));
    drive_batch_lockstep(nl, 0x9E3779B9 * super, super == 8 ? 6 : 10, super);
  }
}

TEST(BatchSim, FusionCountersAreObservableAndConsistent) {
  // Synthesized arbitration logic is what the fusion pass targets: the
  // priority chains (and-not), compare-feeds-mux selectors and CSE slot
  // stores must actually hit, and the dynamic counter must be the
  // static per-settle count times the number of settles.
  const ObjectDesc d = testobj::mailbox();
  SynthOptions opt;
  opt.clients = 3;
  const Netlist nl = synthesize(d, opt);
  BatchNetlistSim sim(nl);
  const BatchTape& bt = sim.tape();
  EXPECT_GT(bt.fused_insns(), 0u);
  std::uint64_t hits_total = 0, and_not_family = 0;
  for (const auto& [name, hits] : bt.fusion_hits()) {
    hits_total += hits;
    if (name == "and_not" || name == "and_not_net") and_not_family += hits;
  }
  EXPECT_EQ(hits_total, bt.fused_insns());
  EXPECT_GT(and_not_family, 0u) << "priority chains should fuse";

  sim.reset_stats();
  sim.clock_edge();  // settles twice
  EXPECT_EQ(sim.stats().fused_ops, 2 * bt.fused_insns());
  EXPECT_EQ(sim.stats().scalar_ops, 0u) << "mailbox is fully bit-parallel";
  EXPECT_EQ(sim.stats().combs_scalar, 0u);
}

TEST(BatchSim, RandomSuiteExercisesBothEvaluationPaths) {
  // The generator emits word arithmetic alongside bitwise logic, so
  // across a handful of seeds the classification must see both kinds;
  // otherwise the fallback (or the bit-parallel path) is dead code and
  // the suite above proves less than it claims.
  std::uint64_t parallel = 0, scalar = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Netlist nl = make_random_netlist(seed * 0xB17C0DE + 5);
    BatchNetlistSim s(nl);
    parallel += s.stats().combs_bit_parallel;
    scalar += s.stats().combs_scalar;
    EXPECT_EQ(s.stats().combs_evaluated,
              s.stats().combs_bit_parallel + s.stats().combs_scalar);
  }
  EXPECT_GT(parallel, 0u);
  EXPECT_GT(scalar, 0u);
}

TEST(BatchSim, Width64Boundary) {
  // Full-width planes: every per-op loop runs to exactly 64 rows, where
  // an off-by-one in plane counts or lane masks would show.  At K=4 the
  // row address is plane_off * K, where a stride bug would alias
  // adjacent nets' rows.
  Netlist nl("wide");
  const NetId a = nl.add_net("a", 64);
  const NetId b = nl.add_net("b", 64);
  const NetId s = nl.add_net("s", 1);
  nl.mark_input(a);
  nl.mark_input(b);
  nl.mark_input(s);
  auto& A = nl.arena();
  const NetId x = nl.add_net("x", 64);
  nl.add_comb(x, A.bin(ExprOp::Xor, nl.net_ref(a), nl.net_ref(b)));
  const NetId m = nl.add_net("m", 64);
  nl.add_comb(m, A.mux(nl.net_ref(s), nl.net_ref(x),
                       A.un(ExprOp::Not, nl.net_ref(a))));
  const NetId r = nl.add_net("r", 1);
  nl.add_comb(r, A.un(ExprOp::RedAnd, nl.net_ref(m)));
  const NetId cat = nl.add_net("cat", 64);
  nl.add_comb(cat, A.bin(ExprOp::Concat, A.slice(nl.net_ref(m), 0, 32),
                         A.slice(nl.net_ref(x), 32, 32)));
  nl.mark_output(m);
  nl.mark_output(r);
  nl.mark_output(cat);
  nl.validate_and_order();
  drive_batch_lockstep(nl, 0x64646464, 20);
  drive_batch_lockstep(nl, 0x64646464, 10, 4);
}

// ---------------------------------------------------------------------
// check_equivalence: N-lane checks vs one-lane replays
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
    EXPECT_GT(rb.batch_stats.settles, 0u) << "64 lanes run on the batch engine";
  }
}

TEST(BatchEquiv, ShippedObjectsBitIdenticalScalarVsBatch) {
  // The CLI objects under tools/objs/ are the shipped surface of the
  // flow; the batch engine must reproduce the scalar verdict on each of
  // them exactly (counters.obj carries several implementations and goes
  // through the same polymorphic flattening as hlcs_synth).
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
    EXPECT_EQ(r.batch_stats, runs[0].batch_stats);
    expect_same_vectors(r.vectors, runs[0].vectors);
  }
}

TEST(BatchEquiv, SuperlaneParityMatrixOnShippedObjects) {
  // The shipped .obj surface at every superlane factor: every lane of
  // the batch interpreter at K = 1/4/8 matches its own oracle, with
  // reset pulses through the rst input; and a check whose lane count is
  // no multiple of a block width equals its one-lane replays at any
  // thread count.
  sim::Xorshift rng(0x5C277);
  for (const char* file : {"mailbox.obj", "semaphore.obj", "counters.obj"}) {
    SCOPED_TRACE(file);
    const ObjectDesc d = shipped_object(file);
    SynthOptions opt;
    opt.clients = 2;
    opt.policy = osss::PolicyKind::RoundRobin;
    const Netlist nl = synthesize(d, opt);
    for (unsigned super : {1u, 4u, 8u}) {
      SCOPED_TRACE("super " + std::to_string(super));
      drive_batch_lockstep(nl, rng.next(), super == 8 ? 6 : 12, super);
    }
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
      EXPECT_GT(rb.batch_stats.combs_evaluated, 0u);
    }
  }
}

TEST(BatchEquiv, SuperlaneVerdictsIdenticalToK1UnderTheSameSeed) {
  // The block-shape determinism statement at the service level: lane
  // L's stimulus stream is a function of lane_seed(seed, L) only, never
  // of the block it ran in.  A 512-lane check therefore equals eight
  // 64-lane checks rooted at lane_root(seed, 64 * b): same verdict,
  // grant totals and recorded vectors.  (Per-lane net values at
  // K = 4/8 are covered lane-for-lane by
  // BatchSim.SuperlaneParityMatrix against the oracle.)
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
  EXPECT_GT(whole.batch_stats.settles, 0u);
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
  // Below 64 lanes the scalar engine runs the lanes one after another;
  // from 64 lanes the batch engine runs them together.  Both must equal
  // their one-lane replays.
  const ObjectDesc d = testobj::counter();
  SynthOptions opt;
  opt.clients = 2;
  opt.policy = osss::PolicyKind::StaticPriority;
  const EquivResult rm = expect_matches_replays(
      d, opt, EquivOptions{.cycles = 100, .seed = 0x1DEA, .lanes = 5});
  EXPECT_TRUE(rm.equal) << rm.first_mismatch;
  EXPECT_EQ(rm.batch_stats.settles, 0u) << "5 lanes run on the scalar engine";
  const EquivResult rb = expect_matches_replays(
      d, opt, EquivOptions{.cycles = 100, .seed = 0x1DEA, .lanes = 64});
  EXPECT_TRUE(rb.equal) << rb.first_mismatch;
  // Lane 0 of both runs is the same stream.
  expect_same_vectors(rm.vectors, rb.vectors);
}

// ---------------------------------------------------------------------
// BatchRunner
// ---------------------------------------------------------------------

TEST(BatchRunner, BlocksPartitionTheLanePopulation) {
  EXPECT_EQ(BatchRunner::block_count(1), 1u);
  EXPECT_EQ(BatchRunner::block_count(64), 1u);
  EXPECT_EQ(BatchRunner::block_count(65), 2u);
  EXPECT_EQ(BatchRunner::block_count(200), 4u);

  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> seen(
      BatchRunner::block_count(200));
  BatchRunner::run(200, 4, 1,
                   [&](std::size_t block, const BatchRunner::Block& blk) {
                     std::lock_guard<std::mutex> lock(mu);
                     seen[block] = {blk.lane0, blk.lanes};
                   });
  std::size_t covered = 0;
  for (std::size_t b = 0; b < seen.size(); ++b) {
    EXPECT_EQ(seen[b].first, b * 64) << "block " << b;
    covered += seen[b].second;
  }
  EXPECT_EQ(seen.back().second, 200u % 64u);
  EXPECT_EQ(covered, 200u);
}

TEST(BatchRunner, SuperlanePartitionCoversEveryLaneExactlyOnce) {
  // The partition depends only on (lanes, super): full super-wide
  // blocks, then one tail at the smallest superlane that covers the
  // rest.  Spot shapes first, then sweep the invariants.
  auto p = BatchRunner::partition(512, 8);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0].super, 8u);
  EXPECT_EQ(p[0].lanes, 512u);

  p = BatchRunner::partition(576, 8);  // 512 + 64
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0].super, 8u);
  EXPECT_EQ(p[1].super, 1u);  // 64-lane tail never pays for idle words
  EXPECT_EQ(p[1].lane0, 512u);

  p = BatchRunner::partition(64, 8);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0].super, 1u);

  p = BatchRunner::partition(130, 8);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0].super, 4u);

  for (unsigned super : {1u, 4u, 8u}) {
    for (std::size_t lanes : {1u, 63u, 64u, 65u, 130u, 256u, 300u, 512u,
                              577u, 1000u}) {
      SCOPED_TRACE("super " + std::to_string(super) + " lanes " +
                   std::to_string(lanes));
      std::size_t next = 0;
      for (const auto& b : BatchRunner::partition(lanes, super)) {
        EXPECT_EQ(b.lane0, next);
        EXPECT_GE(b.lanes, 1u);
        EXPECT_LE(b.lanes, std::size_t{b.super} * 64);
        EXPECT_LE(b.super, super);
        next = b.lane0 + b.lanes;
      }
      EXPECT_EQ(next, lanes);
    }
  }
}

TEST(BatchRunner, PropagatesTheLowestBlockError) {
  try {
    BatchRunner::run(200, 3, 1,
                     [&](std::size_t block, const BatchRunner::Block&) {
                       if (block >= 1) {
                         throw std::runtime_error("block " +
                                                  std::to_string(block));
                       }
                     });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "block 1");
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

}  // namespace
}  // namespace hlcs::synth
