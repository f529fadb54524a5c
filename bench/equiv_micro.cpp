// EQUIV: batch-verification microbenchmarks -- the A/B evidence for the
// 64-lane bit-parallel engine.  Both sides of each comparison run
// interleaved in the same binary on the same synthesised netlist; the
// only variable is the execution strategy, so the medians from
// --benchmark_repetitions are an honest scalar-vs-batch ratio.
//
//   BM_BatchEdge   engine-level: random stimulus lanes stepped through
//                  full clock edges, as 64 independent scalar
//                  NetlistSims (mode 1) or one BatchNetlistSim (mode 2 =
//                  K=1 / 64 lanes, mode 3 = K=4 / 256 lanes, mode 4 =
//                  K=8 / 512 lanes; the superlane rows carry K x 64
//                  lanes per tape instruction).  policy 0
//                  (static_priority) is the comb-dominated case --
//                  arbitration, guards and muxes are all bitwise, so the
//                  whole design runs on bit-planes; policy 1
//                  (round_robin) carries Add combs from the
//                  rotating-pointer arbiter, so its rows price the
//                  per-lane scalar fallback honestly.  lane_edges/s is
//                  the headline number; the batch rows also report
//                  scalar_frac (fraction of comb evaluations that fell
//                  back to the per-lane scalar tape) and the fused /
//                  scalar-fallback instruction counters.
//   BM_EquivCheck  end-to-end: check_equivalence over `lanes`
//                  independently seeded lock-step lanes, on the engine
//                  the lane count picks (scalar below 64 lanes, the
//                  batch engine from 64).  Includes synthesis +
//                  golden-model cost, so the rate is what a fig.4 gate
//                  or a fuzz CI budget actually sees.
//
// Mode 5 of the edge benchmarks runs the 64-lane rows through the
// native batch JIT (hlcs/synth/jit.hpp).  The JIT-backed sim is
// constructed OUTSIDE the timed loop, so compilation never pollutes the
// steady-state medians; compile time is priced separately by
// BM_JitCompile and echoed on every JIT row as the jit_compile_ns /
// jit_code_bytes counters.  Mode numbers are the row names of the
// committed baselines (BENCH_equiv.json, BENCH_jit.json), so they keep
// the gaps of removed engines.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "hlcs/check/check.hpp"
#include "hlcs/sim/random.hpp"
#include "hlcs/synth/synth.hpp"

namespace {

using namespace hlcs::synth;

/// The paper's mailbox channel, same shape as netlist_micro: guarded
/// put/get over a 16-bit datapath.  Comb-dominated -- the arbitration
/// one-hot logic, guards and muxes all run on the bit-parallel path.
ObjectDesc make_mailbox() {
  ObjectDesc d("mailbox");
  const std::uint32_t full = d.add_var("full", 1, 0);
  const std::uint32_t data = d.add_var("data", 16, 0);
  d.add_method("put")
      .arg("d", 16)
      .guard(d.arena().bin(ExprOp::Eq, d.v(full), d.lit(0, 1)))
      .assign(full, d.lit(1, 1))
      .assign(data, d.a(0, 16));
  d.add_method("get")
      .guard(d.arena().bin(ExprOp::Eq, d.v(full), d.lit(1, 1)))
      .assign(full, d.lit(0, 1))
      .returns(d.v(data), 16);
  return d;
}

Netlist make_channel(std::size_t clients, hlcs::osss::PolicyKind policy) {
  SynthOptions opt;
  opt.clients = clients;
  opt.policy = policy;
  return synthesize(make_mailbox(), opt);
}

/// Superlane factor for a benchmark mode argument: modes 2/3/4 are the
/// batch interpreter at K = 1/4/8 (64/256/512 lanes), mode 5 the batch
/// JIT at K = 1; mode 1 is scalar.
unsigned mode_super(long mode) {
  switch (mode) {
    case 2: case 5: return 1u;
    case 3: return 4u;
    case 4: return 8u;
    default: return 0u;
  }
}

bool mode_jit(long mode) { return mode == 5; }

void report_batch_counters(benchmark::State& state,
                           const BatchNetlistSim& sim) {
  state.counters["scalar_frac"] = sim.stats().scalar_fraction();
  state.counters["plane_insns"] =
      static_cast<double>(sim.stats().plane_instructions);
  state.counters["fused_ops"] = static_cast<double>(sim.stats().fused_ops);
  state.counters["scalar_ops"] = static_cast<double>(sim.stats().scalar_ops);
  if (const JitStats* js = sim.jit_stats()) {
    // One-time compile cost, reported but never inside the timed loop.
    state.counters["jit_compile_ns"] = static_cast<double>(js->compile_ns);
    state.counters["jit_code_bytes"] = static_cast<double>(js->code_bytes);
    state.counters["jit_native_combs"] =
        static_cast<double>(js->combs_native);
    state.counters["jit_deopt_combs"] = static_cast<double>(js->combs_deopt);
  }
}

/// Dense random stimulus lanes through full clock edges.
/// range(0): 1 = scalar NetlistSim, 2/3/4 = batch interpreter at
/// K=1/4/8 (64/256/512 lanes), 5 = batch JIT at K=1.  range(1) =
/// clients.  range(2): 0 = static_priority, 1 = round_robin.  One
/// iteration = lanes lane-edges on every side.
void BM_BatchEdge(benchmark::State& state) {
  const unsigned super = mode_super(state.range(0));
  const bool batch = super != 0;
  const std::size_t lanes =
      BatchNetlistSim::kLanes * (batch ? super : 1);
  const std::size_t clients = static_cast<std::size_t>(state.range(1));
  const auto policy = state.range(2) == 0
                          ? hlcs::osss::PolicyKind::StaticPriority
                          : hlcs::osss::PolicyKind::RoundRobin;
  Netlist nl = make_channel(clients, policy);
  std::vector<NetId> req, sel, args;
  for (std::size_t i = 0; i < clients; ++i) {
    req.push_back(nl.find(req_port(i)));
    sel.push_back(nl.find(sel_port(i)));
    args.push_back(nl.find(args_port(i)));
  }
  std::vector<hlcs::sim::Xorshift> rngs;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    rngs.emplace_back(hlcs::sim::lane_seed(0xED6E, lane));
  }

  if (batch) {
    // Construction (and hence JIT compilation) happens here, outside
    // the timed loop: the medians below are pure steady-state.
    BatchNetlistSim sim(nl, super, mode_jit(state.range(0)));
    for (auto _ : state) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const std::uint64_t r = rngs[lane].next();
        for (std::size_t i = 0; i < clients; ++i) {
          sim.set_input(req[i], lane, (r >> i) & 1);
          sim.set_input(sel[i], lane, (r >> (8 + i)) & 1);
          sim.set_input(args[i], lane, r >> 16);
        }
      }
      sim.clock_edge();
    }
    report_batch_counters(state, sim);
  } else {
    std::vector<std::unique_ptr<NetlistSim>> sims;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      sims.push_back(std::make_unique<NetlistSim>(nl));
    }
    for (auto _ : state) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const std::uint64_t r = rngs[lane].next();
        for (std::size_t i = 0; i < clients; ++i) {
          sims[lane]->set_input(req[i], (r >> i) & 1);
          sims[lane]->set_input(sel[i], (r >> (8 + i)) & 1);
          sims[lane]->set_input(args[i], r >> 16);
        }
        sims[lane]->clock_edge();
      }
    }
  }
  const double lane_edges =
      static_cast<double>(state.iterations()) * static_cast<double>(lanes);
  state.SetItemsProcessed(static_cast<std::int64_t>(lane_edges));
  state.counters["lane_edges/s"] =
      benchmark::Counter(lane_edges, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchEdge)
    ->ArgNames({"mode", "clients", "policy"})
    ->Args({1, 4, 0})
    ->Args({2, 4, 0})
    ->Args({3, 4, 0})
    ->Args({4, 4, 0})
    ->Args({5, 4, 0})
    ->Args({1, 4, 1})
    ->Args({2, 4, 1})
    ->Args({3, 4, 1})
    ->Args({4, 4, 1})
    ->Args({5, 4, 1});

/// A lowered property-monitor automaton: the temporal operators expand
/// to 1-bit state machines, so nearly every net is one plane wide and
/// the 64-lane transposition is at its densest.  This is the netlist
/// shape the batched check lock-step tests drive.
hlcs::check::Spec monitor_spec() {
  using namespace hlcs::check;
  Spec s("bench");
  E a = s.signal("a");
  E b = s.signal("b");
  E v = s.signal("v", 8);
  E w = s.signal("w", 8);
  s.prop("imp", a, b);
  s.prop("del3", s.rose(a), s.delay(3, b || s.fell(a)));
  s.prop("until_q", a, s.until(b, v == w));
  s.prop("event4", s.stable(v), s.eventually_within(4, b));
  s.prop("past3", a, s.past(b, 3));
  s.always("mux_pick", s.mux(a, v, w) == s.mux(!a, w, v));
  return s;
}

/// Random stimulus lanes through a lowered monitor netlist.
/// range(0): the modes of BM_BatchEdge.
void BM_BatchMonitorEdge(benchmark::State& state) {
  const unsigned super = mode_super(state.range(0));
  const bool batch = super != 0;
  const std::size_t lanes =
      BatchNetlistSim::kLanes * (batch ? super : 1);
  const hlcs::check::Automaton a = hlcs::check::compile(monitor_spec());
  Netlist nl = hlcs::check::lower(a);
  std::vector<NetId> sigs;
  std::vector<std::uint64_t> masks;
  for (const hlcs::check::SignalDecl& sd : a.signals) {
    sigs.push_back(nl.find(sd.name));
    masks.push_back(hlcs::synth::ExprArena::mask(sd.width));
  }
  const NetId rst = nl.find("rst");
  std::vector<hlcs::sim::Xorshift> rngs;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    rngs.emplace_back(hlcs::sim::lane_seed(0xC4EC, lane));
  }

  if (batch) {
    BatchNetlistSim sim(nl, super, mode_jit(state.range(0)));
    sim.set_input_broadcast(rst, 0);
    for (auto _ : state) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const std::uint64_t r = rngs[lane].next();
        for (std::size_t i = 0; i < sigs.size(); ++i) {
          sim.set_input(sigs[i], lane, (r >> (8 * i)) & masks[i]);
        }
      }
      sim.clock_edge();
    }
    report_batch_counters(state, sim);
  } else {
    std::vector<std::unique_ptr<NetlistSim>> sims;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      sims.push_back(std::make_unique<NetlistSim>(nl));
      sims.back()->set_input(rst, 0);
    }
    for (auto _ : state) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const std::uint64_t r = rngs[lane].next();
        for (std::size_t i = 0; i < sigs.size(); ++i) {
          sims[lane]->set_input(sigs[i], (r >> (8 * i)) & masks[i]);
        }
        sims[lane]->clock_edge();
      }
    }
  }
  const double lane_edges =
      static_cast<double>(state.iterations()) * static_cast<double>(lanes);
  state.SetItemsProcessed(static_cast<std::int64_t>(lane_edges));
  state.counters["lane_edges/s"] =
      benchmark::Counter(lane_edges, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchMonitorEdge)
    ->ArgName("mode")
    ->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

/// The evaluation engine alone, interleaved A/B: stimulus is driven
/// once, then every iteration is one full clock edge (full-tape batch
/// evaluation -- every comb, every settle; register feedback keeps the
/// state vector live).  BM_BatchEdge above prices a replay workload
/// where per-lane stimulus scatter dominates; this row prices what the
/// JIT actually replaces, so it is the honest interpreter-vs-native
/// ratio.  range(0): 2/3/4 = batch interpreter at K=1/4/8, 5 = batch
/// JIT at K=1.
void BM_JitEdge(benchmark::State& state) {
  const unsigned super = mode_super(state.range(0));
  Netlist nl = make_channel(4, hlcs::osss::PolicyKind::StaticPriority);
  BatchNetlistSim sim(nl, super, mode_jit(state.range(0)));
  hlcs::sim::Xorshift rng(0x1D6E);
  for (NetId in : nl.inputs()) {
    for (std::size_t lane = 0; lane < sim.lanes(); ++lane) {
      sim.set_input(in, lane, rng.next());
    }
  }
  for (auto _ : state) {
    sim.clock_edge();
  }
  report_batch_counters(state, sim);
  const double lane_edges = static_cast<double>(state.iterations()) *
                            static_cast<double>(sim.lanes());
  state.SetItemsProcessed(static_cast<std::int64_t>(lane_edges));
  state.counters["lane_edges/s"] =
      benchmark::Counter(lane_edges, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_JitEdge)->ArgName("mode")->Arg(2)->Arg(3)->Arg(4)->Arg(5);

/// Same engine-only A/B over the lowered property-monitor automaton:
/// nearly every net is one bit wide, so this is the densest plane
/// layout and the shape the batched lock-step checks drive.
void BM_JitMonitorEdge(benchmark::State& state) {
  const unsigned super = mode_super(state.range(0));
  const hlcs::check::Automaton a = hlcs::check::compile(monitor_spec());
  Netlist nl = hlcs::check::lower(a);
  BatchNetlistSim sim(nl, super, mode_jit(state.range(0)));
  sim.set_input_broadcast(nl.find("rst"), 0);
  hlcs::sim::Xorshift rng(0x6D17);
  for (const hlcs::check::SignalDecl& sd : a.signals) {
    const NetId n = nl.find(sd.name);
    const std::uint64_t mask = hlcs::synth::ExprArena::mask(sd.width);
    for (std::size_t lane = 0; lane < sim.lanes(); ++lane) {
      sim.set_input(n, lane, rng.next() & mask);
    }
  }
  for (auto _ : state) {
    sim.clock_edge();
  }
  report_batch_counters(state, sim);
  const double lane_edges = static_cast<double>(state.iterations()) *
                            static_cast<double>(sim.lanes());
  state.SetItemsProcessed(static_cast<std::int64_t>(lane_edges));
  state.counters["lane_edges/s"] =
      benchmark::Counter(lane_edges, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_JitMonitorEdge)
    ->ArgName("mode")->Arg(2)->Arg(3)->Arg(4)->Arg(5);

/// JIT compilation priced as its own metric: one iteration = compile
/// the mailbox channel's tape to native code (scalar TapeJit at
/// range(0) == 0, the 64-lane BatchJit at range(0) == 1) and throw it
/// away.  This is the cost the edge benchmarks above pay once outside
/// their timed loops.
void BM_JitCompile(benchmark::State& state) {
  const unsigned super = static_cast<unsigned>(state.range(0));
  Netlist nl = make_channel(4, hlcs::osss::PolicyKind::StaticPriority);
  if (!TapeJit::host_supported()) {
    state.SkipWithError("JIT unavailable on this host");
    return;
  }
  double code_bytes = 0, native = 0;
  if (super == 0) {
    const TapeProgram tape = TapeProgram::compile(nl);
    for (auto _ : state) {
      TapeJit jit(tape);
      benchmark::DoNotOptimize(jit.available());
      code_bytes = static_cast<double>(jit.stats().code_bytes);
      native = static_cast<double>(jit.stats().combs_native);
    }
  } else {
    BatchTape bt(nl, super);
    for (auto _ : state) {
      BatchJit jit(bt);
      benchmark::DoNotOptimize(jit.available());
      code_bytes = static_cast<double>(jit.stats().code_bytes);
      native = static_cast<double>(jit.stats().combs_native);
    }
  }
  state.counters["jit_code_bytes"] = code_bytes;
  state.counters["jit_native_combs"] = native;
}
BENCHMARK(BM_JitCompile)->ArgName("K")->Arg(0)->Arg(1);

/// End-to-end lock-step equivalence: range(0) independently seeded
/// stimulus lanes against the golden interpreter, on the engine the
/// lane count picks: the scalar engine at 8 lanes, the batch engine
/// (recompiling its JIT every invocation, like a fresh CI run would) at
/// 64 and 512.
void BM_EquivCheck(benchmark::State& state) {
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  const ObjectDesc d = make_mailbox();
  SynthOptions opt;
  opt.clients = 4;
  opt.policy = hlcs::osss::PolicyKind::StaticPriority;
  constexpr std::size_t kCycles = 256;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const EquivResult r = check_equivalence(
        d, opt,
        EquivOptions{.cycles = kCycles, .seed = seed++, .reset_percent = 4,
                     .lanes = lanes});
    if (!r.equal) {
      state.SkipWithError("equivalence mismatch");
      return;
    }
    benchmark::DoNotOptimize(r.grants);
  }
  const double lane_cycles = static_cast<double>(state.iterations()) *
                             static_cast<double>(kCycles * lanes);
  state.SetItemsProcessed(static_cast<std::int64_t>(lane_cycles));
  state.counters["lane_cycles/s"] =
      benchmark::Counter(lane_cycles, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EquivCheck)->ArgName("lanes")->Arg(8)->Arg(64)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
