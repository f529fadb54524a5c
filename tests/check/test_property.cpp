// Behavioural semantics of the temporal property DSL: per-edge verdicts
// of the compiled automaton on hand-written traces, attempt accounting,
// disable/reset, the monitor engines on a live kernel, and the
// shared-object rule pack.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hlcs/check/check.hpp"
#include "hlcs/osss/arbitration.hpp"
#include "hlcs/sim/sim.hpp"

namespace hlcs::check {
namespace {

using namespace hlcs::sim::literals;
using sim::Kernel;
using sim::Task;

/// Compile a Spec and step it over explicit sample rows.
struct Eval {
  Automaton a;
  AutomatonEval ev;
  std::vector<AutomatonEval::Verdict> v;

  explicit Eval(const Spec& s) : a(compile(s)), ev(a) {}

  const std::vector<AutomatonEval::Verdict>& step(
      std::vector<std::uint64_t> samples, bool disabled = false) {
    ev.step(samples, disabled, v);
    return v;
  }
};

TEST(CheckProperty, RoseFellStableSemantics) {
  Spec s("edges");
  E a = s.signal("a");
  s.prop("rose", s.rose(a), s.lit(1));
  s.prop("fell", s.fell(a), s.lit(1));
  s.prop("stab", s.stable(a), s.lit(1));
  Eval e(s);

  const std::uint64_t trace[] = {0, 1, 1, 0, 1};
  const std::uint64_t want_rose[] = {0, 1, 0, 0, 1};
  const std::uint64_t want_fell[] = {0, 0, 0, 1, 0};
  const std::uint64_t want_stab[] = {1, 0, 1, 0, 0};  // past() starts at 0
  for (int i = 0; i < 5; ++i) {
    const auto& v = e.step({trace[i]});
    EXPECT_EQ(v[0].attempt, want_rose[i]) << "edge " << i;
    EXPECT_EQ(v[1].attempt, want_fell[i]) << "edge " << i;
    EXPECT_EQ(v[2].attempt, want_stab[i]) << "edge " << i;
    // Consequent is constant true: every attempt passes immediately.
    EXPECT_EQ(v[0].pass, v[0].attempt);
    EXPECT_EQ(v[0].fail, 0u);
  }
}

TEST(CheckProperty, ImpliesAttemptPassFailVacuous) {
  Spec s("implies");
  E a = s.signal("a");
  E b = s.signal("b");
  s.prop("p", a, b);
  Eval e(s);

  struct Row {
    std::uint64_t a, b, att, pass, fail, vac;
  };
  const Row rows[] = {
      {1, 1, 1, 1, 0, 0}, {1, 0, 1, 0, 1, 0}, {0, 0, 0, 0, 0, 1},
      {0, 1, 0, 0, 0, 1}, {1, 1, 1, 1, 0, 0},
  };
  std::uint64_t att = 0, pass = 0, fail = 0, vac = 0;
  for (const Row& r : rows) {
    const auto& v = e.step({r.a, r.b});
    EXPECT_EQ(v[0].attempt, r.att);
    EXPECT_EQ(v[0].pass, r.pass);
    EXPECT_EQ(v[0].fail, r.fail);
    EXPECT_EQ(v[0].vacuous, r.vac);
    att += v[0].attempt;
    pass += v[0].pass;
    fail += v[0].fail;
    vac += v[0].vacuous;
    // Exactly one of attempt/vacuous per enabled edge.
    EXPECT_EQ(v[0].attempt + v[0].vacuous, 1u);
  }
  EXPECT_EQ(att, 3u);
  EXPECT_EQ(pass, 2u);
  EXPECT_EQ(fail, 1u);
  EXPECT_EQ(vac, 2u);
}

TEST(CheckProperty, DelayPipelinesOverlappingAttempts) {
  Spec s("delay");
  E a = s.signal("a");
  E b = s.signal("b");
  s.prop("p", a, s.delay(2, b));
  Eval e(s);

  // Attempts at edges 0 and 1 resolve at edges 2 (b=1: pass) and 3
  // (b=0: fail).
  struct Row {
    std::uint64_t a, b, pass, fail;
  };
  const Row rows[] = {{1, 0, 0, 0}, {1, 1, 0, 0}, {0, 1, 1, 0}, {0, 0, 0, 1}};
  for (const Row& r : rows) {
    const auto& v = e.step({r.a, r.b});
    EXPECT_EQ(v[0].pass, r.pass);
    EXPECT_EQ(v[0].fail, r.fail);
  }
}

TEST(CheckProperty, UntilResolvesAllPendingAttempts) {
  Spec s("until");
  E a = s.signal("a");
  E p = s.signal("p");
  E q = s.signal("q");
  s.prop("u", a, s.until(p, q));
  Eval e(s);

  // Two attempts accumulate while p holds; q passes both at once.
  EXPECT_EQ(e.step({1, 1, 0})[0].pass, 0u);
  EXPECT_EQ(e.step({1, 1, 0})[0].fail, 0u);
  const auto& v2 = e.step({0, 0, 1});
  EXPECT_EQ(v2[0].pass, 2u);
  EXPECT_EQ(v2[0].fail, 0u);
  // A fresh attempt hitting !p && !q fails on its own edge.
  const auto& v3 = e.step({1, 0, 0});
  EXPECT_EQ(v3[0].fail, 1u);
  // Weak until: p holding forever leaves the attempt pending.
  std::uint64_t resolved = 0;
  for (int i = 0; i < 8; ++i) {
    const auto& v = e.step({i == 0 ? 1u : 0u, 1, 0});
    resolved += v[0].pass + v[0].fail;
  }
  EXPECT_EQ(resolved, 0u);
}

TEST(CheckProperty, UntilReleaseOnAttemptEdgePasses) {
  Spec s("until0");
  E a = s.signal("a");
  E p = s.signal("p");
  E q = s.signal("q");
  s.prop("u", a, s.until(p, q));
  Eval e(s);
  const auto& v = e.step({1, 0, 1});  // q already true when the attempt starts
  EXPECT_EQ(v[0].pass, 1u);
  EXPECT_EQ(v[0].fail, 0u);
}

TEST(CheckProperty, EventuallyWithinWindow) {
  Spec s("event");
  E a = s.signal("a");
  E p = s.signal("p");
  s.prop("ev", a, s.eventually_within(2, p));
  Eval e(s);

  // Immediate satisfaction on the attempt edge.
  EXPECT_EQ(e.step({1, 1})[0].pass, 1u);
  // Two staggered attempts pass together when p finally holds.
  EXPECT_EQ(e.step({1, 0})[0].pass, 0u);
  EXPECT_EQ(e.step({1, 0})[0].pass, 0u);
  const auto& v = e.step({0, 1});
  EXPECT_EQ(v[0].pass, 2u);
  EXPECT_EQ(v[0].fail, 0u);
  // Expiry: attempt at t with p never true fails exactly at t+2.
  EXPECT_EQ(e.step({1, 0})[0].fail, 0u);
  EXPECT_EQ(e.step({0, 0})[0].fail, 0u);
  EXPECT_EQ(e.step({0, 0})[0].fail, 1u);
  EXPECT_EQ(e.step({0, 0})[0].fail, 0u);
}

TEST(CheckProperty, DisableCancelsInFlightAttempts) {
  Spec s("dis");
  E a = s.signal("a");
  E b = s.signal("b");
  s.prop("p", a, s.delay(2, b));
  Eval e(s);

  e.step({1, 0});              // attempt in flight
  const auto& vd = e.step({0, 0}, /*disabled=*/true);
  EXPECT_EQ(vd[0].attempt, 0u);
  EXPECT_EQ(vd[0].fail, 0u);
  // The cancelled attempt must not resolve after the disable window.
  for (int i = 0; i < 4; ++i) {
    const auto& v = e.step({0, 0});
    EXPECT_EQ(v[0].pass, 0u) << "edge " << i;
    EXPECT_EQ(v[0].fail, 0u) << "edge " << i;
  }
}

TEST(CheckProperty, AlwaysPropertyIsNeverVacuous) {
  Spec s("inv");
  E a = s.signal("a");
  s.always("never_x", !a);
  Eval e(s);
  const auto& v0 = e.step({0});
  EXPECT_EQ(v0[0].attempt, 1u);
  EXPECT_EQ(v0[0].pass, 1u);
  EXPECT_EQ(v0[0].vacuous, 0u);
  const auto& v1 = e.step({1});
  EXPECT_EQ(v1[0].fail, 1u);
  EXPECT_EQ(v1[0].vacuous, 0u);
}

// ---------------------------------------------------------------------
// Monitor engines on a live kernel.
// ---------------------------------------------------------------------

/// One failing property over a toggling signal, both engines.
struct MonitorBench {
  Kernel k;
  sim::Clock clk{k, "clk", 10_ns};
  sim::Signal<bool> a{k, "a", false};
  Spec spec{make_spec()};
  ProbeSet probes{ProbeSet{}.add(sim::probe("a", a))};

  static Spec make_spec() {
    Spec s("bench");
    E a = s.signal("a");
    s.prop("hold_low", s.rose(a), !a);  // fails on every rising sample
    return s;
  }
};

TEST(CheckMonitor, FailureRecordingIsBounded) {
  MonitorBench b;
  Monitor mon(b.k, "mon", b.spec, b.clk, b.probes,
              MonitorOptions{.max_recorded_failures = 2});
  // Toggle `a` every cycle: rose() holds on every second sampled edge.
  b.k.spawn("stim", [&]() -> Task {
    for (;;) {
      co_await b.clk.posedge();
      b.a.write(!b.a.read());
    }
  });
  b.k.run_for(200_ns);  // ~20 edges
  const CheckStats& cs = mon.stats();
  ASSERT_EQ(cs.props.size(), 1u);
  EXPECT_GT(cs.props[0].fails, 2u);
  EXPECT_EQ(cs.failures.size(), 2u);
  EXPECT_EQ(cs.dropped_failures, cs.props[0].fails - 2);
  EXPECT_NE(mon.describe(cs.failures[0]).find("hold_low"), std::string::npos);
}

TEST(CheckMonitor, BehaviouralAndNetlistEnginesAgreeOnKernel) {
  MonitorBench b;
  Monitor bm(b.k, "bm", b.spec, b.clk, b.probes);
  NetlistMonitor nm(b.k, "nm", b.spec, b.clk, b.probes);
  sim::Xorshift rng(7);
  b.k.spawn("stim", [&]() -> Task {
    for (;;) {
      co_await b.clk.posedge();
      b.a.write(rng.chance(1, 2));
    }
  });
  b.k.run_for(1_us);
  EXPECT_GT(bm.stats().edges, 50u);
  EXPECT_EQ(bm.stats().edges, nm.stats().edges);
  ASSERT_EQ(bm.stats().props.size(), nm.stats().props.size());
  for (std::size_t i = 0; i < bm.stats().props.size(); ++i) {
    const PropertyStats& pb = bm.stats().props[i];
    const PropertyStats& pn = nm.stats().props[i];
    EXPECT_EQ(pb.attempts, pn.attempts);
    EXPECT_EQ(pb.passes, pn.passes);
    EXPECT_EQ(pb.fails, pn.fails);
    EXPECT_EQ(pb.vacuous, pn.vacuous);
  }
  ASSERT_EQ(bm.stats().failures.size(), nm.stats().failures.size());
  for (std::size_t i = 0; i < bm.stats().failures.size(); ++i) {
    EXPECT_EQ(bm.stats().failures[i].cycle, nm.stats().failures[i].cycle);
  }
}

TEST(CheckMonitor, MissingProbeAndWidthMismatchThrow) {
  Kernel k;
  sim::Clock clk(k, "clk", 10_ns);
  Spec s("strict");
  s.signal("wide", 8);
  ProbeSet empty;
  EXPECT_THROW(Monitor(k, "m0", s, clk, empty), Error);
  ProbeSet narrow;
  narrow.add(sim::probe_fn("wide", 4, [] { return 0u; }));
  EXPECT_THROW(Monitor(k, "m1", s, clk, narrow), Error);
}

// ---------------------------------------------------------------------
// Shared-object rule pack.
// ---------------------------------------------------------------------

TEST(CheckObjectRules, CleanContentionSatisfiesPack) {
  Kernel k;
  sim::Clock clk(k, "clk", 10_ns);
  osss::SharedObject<int> counter(k, "counter", clk,
                                  std::make_unique<osss::FifoArbitration>(),
                                  0);
  auto inc = counter.make_client("inc");
  auto dec = counter.make_client("dec");

  const Spec spec = shared_object_rules(/*starvation_bound=*/8);
  const ProbeSet probes = shared_object_probes(counter);
  Monitor bm(k, "bm", spec, clk, probes);
  NetlistMonitor nm(k, "nm", spec, clk, probes);

  k.spawn("inc", [&]() -> Task {
    for (int i = 0; i < 24; ++i) {
      co_await inc.call([](int& v) { ++v; });
    }
  });
  k.spawn("dec", [&]() -> Task {
    for (int i = 0; i < 8; ++i) {
      // Guarded: only dispatchable while the counter is positive.
      co_await dec.call([](const int& v) { return v > 0; },
                        [](int& v) { --v; });
    }
  });
  k.run_for(5_us);
  EXPECT_EQ(counter.peek(), 16);

  EXPECT_EQ(bm.stats().fails(), 0u);
  EXPECT_EQ(nm.stats().fails(), 0u);
  // Every grant edge was a non-vacuous guard_at_dispatch attempt.
  EXPECT_GT(bm.stats().props[0].attempts, 0u);
  for (std::size_t i = 0; i < bm.stats().props.size(); ++i) {
    EXPECT_EQ(bm.stats().props[i].passes, nm.stats().props[i].passes)
        << spec.properties()[i].name;
  }
}

TEST(CheckObjectRules, StarvationBeyondBoundFails) {
  // Synthetic trace: a call stays eligible while the grant counter never
  // moves -- the bound-2 window must expire.
  const Spec spec = shared_object_rules(/*starvation_bound=*/2);
  Eval e(spec);
  // samples: {grants, guard_held, eligible}
  EXPECT_EQ(e.step({0, 1, 1})[1].fail, 0u);
  EXPECT_EQ(e.step({0, 1, 1})[1].fail, 0u);
  EXPECT_EQ(e.step({0, 1, 1})[1].fail, 1u);  // first attempt expires
  // A grant resolves everything still pending.
  const auto& v = e.step({1, 1, 1});
  EXPECT_GT(v[1].pass, 0u);
}

}  // namespace
}  // namespace hlcs::check
