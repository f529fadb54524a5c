// A/B parity between the hand-written PciMonitor and the check:: rule
// pack evaluated by BOTH property engines (behavioural automaton and the
// lowered netlist co-simulation).  On legal traffic all three stay
// silent; on fault-injected traffic (TRDY# without DEVSEL#, corrupted
// PAR) all three flag the same clock edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "hlcs/check/check.hpp"
#include "hlcs/pci/pci.hpp"
#include "hlcs/sim/sim.hpp"

namespace hlcs::pci {
namespace {

using namespace hlcs::sim::literals;
using sim::Kernel;
using sim::Task;

/// Cycle numbers of PciMonitor violations mentioning `tag`, deduplicated
/// (one edge may emit several strings for the same rule).
std::vector<std::uint64_t> monitor_edges(const PciMonitor& mon,
                                         const std::string& tag) {
  std::vector<std::uint64_t> out;
  for (const std::string& v : mon.violations()) {
    if (v.find(tag) == std::string::npos) continue;
    out.push_back(std::stoull(v.substr(std::string("cycle ").size())));
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

const check::PropertyStats& prop_stats(const check::CheckStats& s,
                                       const std::string& name) {
  for (const check::PropertyStats& p : s.props) {
    if (p.name == name) return p;
  }
  throw Error("no such property: " + name);
}

/// Per-property stats from the two engines must be bit-identical.
void expect_engines_agree(const check::CheckStats& beh,
                          const check::CheckStats& rtl) {
  EXPECT_EQ(beh.edges, rtl.edges);
  ASSERT_EQ(beh.props.size(), rtl.props.size());
  for (std::size_t i = 0; i < beh.props.size(); ++i) {
    EXPECT_EQ(beh.props[i].attempts, rtl.props[i].attempts)
        << beh.props[i].name;
    EXPECT_EQ(beh.props[i].passes, rtl.props[i].passes) << beh.props[i].name;
    EXPECT_EQ(beh.props[i].fails, rtl.props[i].fails) << beh.props[i].name;
    EXPECT_EQ(beh.props[i].vacuous, rtl.props[i].vacuous)
        << beh.props[i].name;
  }
}

/// Single-master system watched by all three checkers at once.
struct Bench {
  Kernel k;
  sim::Clock clk{k, "clk", 10_ns};
  PciBus bus{k, "pci", clk};
  PciArbiter arb{k, "arb", bus};
  PciMonitor mon;
  std::unique_ptr<PciMaster> master;
  std::unique_ptr<PciTarget> target;
  std::unique_ptr<check::Monitor> beh;
  std::unique_ptr<check::NetlistMonitor> rtl;

  explicit Bench(TargetConfig tcfg = {.base = 0x1000, .size = 0x1000},
                 MasterConfig mcfg = {}, check::PciRuleOptions ropt = {},
                 MonitorConfig moncfg = {})
      : mon(k, "mon", bus, moncfg) {
    auto port = arb.add_master("m0");
    master = std::make_unique<PciMaster>(k, "m0", bus, *port.req, *port.gnt,
                                         mcfg);
    target = std::make_unique<PciTarget>(k, "t0", bus, tcfg);
    const check::Spec spec = check::pci_rules(ropt);
    const bool wants_gnt = ropt.arbitration || ropt.latency_bound > 0;
    const check::ProbeSet probes = wants_gnt
                                       ? check::pci_probes(bus, {port.gnt})
                                       : check::pci_probes(bus);
    const check::MonitorOptions mo{.max_recorded_failures = 256};
    beh = std::make_unique<check::Monitor>(k, "beh", spec, clk, probes, mo);
    rtl = std::make_unique<check::NetlistMonitor>(
        k, "rtl", spec, clk, probes, mo);
  }

  PciTransaction run_txn(PciTransaction t, sim::Time limit = 100_us) {
    bool done = false;
    k.spawn("driver", [&]() -> Task {
      co_await master->execute(t);
      done = true;
      k.stop();
    });
    k.run_for(limit);
    EXPECT_TRUE(done) << "transaction did not complete";
    return t;
  }
};

TEST(PciAssertions, LegalTrafficKeepsAllThreeCheckersSilent) {
  Bench b;
  b.run_txn({.cmd = PciCommand::MemWrite, .addr = 0x1010, .data = {0xDEADBEEF}});
  auto r = b.run_txn({.cmd = PciCommand::MemRead, .addr = 0x1010, .count = 1});
  EXPECT_EQ(r.result, PciResult::Ok);
  b.run_txn({.cmd = PciCommand::MemWrite,
             .addr = 0x1000,
             .data = {1, 2, 3, 4, 5, 6}});
  b.run_txn({.cmd = PciCommand::MemRead, .addr = 0x1000, .count = 6});
  // A master abort is legal traffic too.
  auto ma = b.run_txn(
      {.cmd = PciCommand::MemRead, .addr = 0x9999000, .count = 1});
  EXPECT_EQ(ma.result, PciResult::MasterAbort);

  EXPECT_TRUE(b.mon.violations().empty()) << b.mon.violations().front();
  EXPECT_EQ(b.beh->stats().fails(), 0u);
  EXPECT_EQ(b.rtl->stats().fails(), 0u);
  expect_engines_agree(b.beh->stats(), b.rtl->stats());

  // The pack must have seen real traffic, not vacuous truth throughout.
  EXPECT_GT(prop_stats(b.beh->stats(), "m2_trdy_devsel").attempts, 0u);
  EXPECT_GT(prop_stats(b.beh->stats(), "m4_addr_driven").passes, 0u);
  // m5's attempt condition (PAR driven over a defined previous AD/CBE)
  // is exactly PciMonitor's parity-check condition.
  EXPECT_EQ(prop_stats(b.beh->stats(), "m5_parity").attempts,
            b.mon.parity_checks());
}

TEST(PciAssertions, RetryAndDisconnectAreLegalAndExerciseStopRule) {
  Bench b(TargetConfig{.base = 0x1000,
                       .size = 0x1000,
                       .disconnect_after = 2,
                       .retry_first = 2});
  auto t = b.run_txn(
      {.cmd = PciCommand::MemWrite, .addr = 0x1000, .data = {9, 8, 7, 6, 5}});
  EXPECT_EQ(t.result, PciResult::Ok);
  EXPECT_EQ(t.words_done, 5u);

  EXPECT_TRUE(b.mon.violations().empty()) << b.mon.violations().front();
  EXPECT_EQ(b.beh->stats().fails(), 0u);
  EXPECT_EQ(b.rtl->stats().fails(), 0u);
  expect_engines_agree(b.beh->stats(), b.rtl->stats());
  // STOP# was asserted (retry + disconnects), so m6 really attempted.
  EXPECT_GT(prop_stats(b.beh->stats(), "m6_stop_devsel").attempts, 0u);
  EXPECT_EQ(prop_stats(b.beh->stats(), "m6_stop_devsel").fails, 0u);
}

TEST(PciAssertions, DroppedDevselFlagsSameEdgesInAllCheckers) {
  // Fault: the target answers (TRDY#) but never claims (DEVSEL#).  The
  // master master-aborts; every TRDY#-without-DEVSEL# edge must be
  // flagged by PciMonitor's M2 and by m2_trdy_devsel in both engines.
  Bench b(TargetConfig{.base = 0x1000,
                       .size = 0x1000,
                       .faults = {.no_devsel = true}});
  auto t = b.run_txn(
      {.cmd = PciCommand::MemWrite, .addr = 0x1004, .data = {0x42}});
  EXPECT_EQ(t.result, PciResult::MasterAbort);

  const auto mon_edges = monitor_edges(b.mon, "M2");
  const auto beh_edges = b.beh->fail_cycles("m2_trdy_devsel");
  const auto rtl_edges = b.rtl->fail_cycles("m2_trdy_devsel");
  ASSERT_FALSE(mon_edges.empty());
  EXPECT_EQ(mon_edges, beh_edges);
  EXPECT_EQ(mon_edges, rtl_edges);
  expect_engines_agree(b.beh->stats(), b.rtl->stats());
}

TEST(PciAssertions, CorruptedParityFlagsSameEdgesInAllCheckers) {
  // Fault: every second PAR the target drives is inverted.  A read burst
  // makes the target the PAR driver; M5 and m5_parity must agree edge
  // for edge.
  Bench b(TargetConfig{.base = 0x1000,
                       .size = 0x1000,
                       .faults = {.corrupt_par_every = 2}});
  b.run_txn({.cmd = PciCommand::MemWrite,
             .addr = 0x1000,
             .data = {0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88}});
  EXPECT_TRUE(b.mon.violations().empty()) << "writes drive PAR from the "
                                             "unfaulted master";
  auto r = b.run_txn({.cmd = PciCommand::MemRead, .addr = 0x1000, .count = 8});
  EXPECT_EQ(r.result, PciResult::Ok);

  const auto mon_edges = monitor_edges(b.mon, "M5");
  const auto beh_edges = b.beh->fail_cycles("m5_parity");
  const auto rtl_edges = b.rtl->fail_cycles("m5_parity");
  ASSERT_FALSE(mon_edges.empty());
  EXPECT_EQ(mon_edges, beh_edges);
  EXPECT_EQ(mon_edges, rtl_edges);
  expect_engines_agree(b.beh->stats(), b.rtl->stats());
}

TEST(PciAssertions, RecordedViolationsAreBoundedButCounted) {
  // Every PAR phase corrupted + a tiny recording cap: the monitor must
  // keep only the cap, count the rest, and the total must still equal
  // the property engines' fail count.
  Bench b(TargetConfig{.base = 0x1000,
                       .size = 0x1000,
                       .faults = {.corrupt_par_every = 1}},
          MasterConfig{}, check::PciRuleOptions{},
          MonitorConfig{.max_recorded_violations = 4});
  b.run_txn({.cmd = PciCommand::MemWrite,
             .addr = 0x1000,
             .data = {1, 2, 3, 4, 5, 6, 7, 8}});
  b.run_txn({.cmd = PciCommand::MemRead, .addr = 0x1000, .count = 8});
  b.run_txn({.cmd = PciCommand::MemRead, .addr = 0x1000, .count = 8});

  EXPECT_EQ(b.mon.violations().size(), 4u);
  EXPECT_GT(b.mon.dropped_violations(), 0u);
  const std::uint64_t m5_fails = prop_stats(b.beh->stats(), "m5_parity").fails;
  EXPECT_EQ(b.mon.total_violations(), m5_fails);
  EXPECT_EQ(prop_stats(b.rtl->stats(), "m5_parity").fails, m5_fails);
}

TEST(PciAssertions, ArbitrationAndLatencyRulesHoldUnderContention) {
  // Two masters with a short latency timer competing for one target:
  // exercises arb_gnt_before_frame (every address phase had GNT# one
  // edge back) and lt_release (a preempted master lets go within the
  // bound).  Everything must stay clean in all three checkers.
  Kernel k;
  sim::Clock clk{k, "clk", 10_ns};
  PciBus bus{k, "pci", clk};
  PciArbiter arb{k, "arb", bus};
  PciMonitor mon{k, "mon", bus};
  auto p0 = arb.add_master("m0");
  auto p1 = arb.add_master("m1");
  const MasterConfig mcfg{.latency_timer = 4};
  PciMaster m0{k, "m0", bus, *p0.req, *p0.gnt, mcfg};
  PciMaster m1{k, "m1", bus, *p1.req, *p1.gnt, mcfg};
  PciTarget t0{k, "t0", bus, TargetConfig{.base = 0x1000, .size = 0x1000}};

  const check::Spec spec = check::pci_rules(
      check::PciRuleOptions{.arbitration = true, .latency_bound = 24});
  const check::ProbeSet probes = check::pci_probes(bus, {p0.gnt, p1.gnt});
  check::Monitor beh{k, "beh", spec, clk, probes};
  check::NetlistMonitor rtl{k, "rtl", spec, clk, probes};

  int done = 0;
  auto driver = [&](PciMaster& m, std::uint32_t base) -> Task {
    for (std::uint32_t i = 0; i < 4; ++i) {
      PciTransaction t{.cmd = PciCommand::MemWrite,
                       .addr = base + 0x40 * i,
                       .data = {i, i + 1, i + 2, i + 3, i + 4, i + 5}};
      co_await m.execute(t);
      EXPECT_EQ(t.result, PciResult::Ok);
    }
    if (++done == 2) k.stop();
  };
  k.spawn("d0", [&]() -> Task { return driver(m0, 0x1000); });
  k.spawn("d1", [&]() -> Task { return driver(m1, 0x1800); });
  k.run_for(200_us);
  ASSERT_EQ(done, 2);
  EXPECT_GT(arb.regrants(), 0u);
  EXPECT_GT(m0.stats().preemptions + m1.stats().preemptions, 0u);

  EXPECT_TRUE(mon.violations().empty()) << mon.violations().front();
  EXPECT_EQ(beh.stats().fails(), 0u);
  EXPECT_EQ(rtl.stats().fails(), 0u);
  expect_engines_agree(beh.stats(), rtl.stats());
  // Both arbitration rules must have genuinely fired.
  EXPECT_GT(prop_stats(beh.stats(), "arb_gnt_before_frame").attempts, 0u);
  EXPECT_GT(prop_stats(beh.stats(), "arb_gnt_before_frame").passes, 0u);
  EXPECT_GT(prop_stats(beh.stats(), "lt_release").attempts, 0u);
  EXPECT_GT(prop_stats(beh.stats(), "lt_release").passes, 0u);
}

}  // namespace
}  // namespace hlcs::pci
