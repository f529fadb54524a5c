// Post-synthesis system co-simulation: behavioural application + the
// SYNTHESISED channel netlist + pin-level PCI.  The full Figure 2
// implementation model, checked for functional equivalence against the
// original functional model.
#include <gtest/gtest.h>

#include "hlcs/pattern/pattern.hpp"
#include "hlcs/sim/sim.hpp"
#include "hlcs/tlm/stimuli.hpp"
#include "hlcs/tlm/tlm.hpp"
#include "hlcs/verify/compare.hpp"

namespace hlcs::pattern {
namespace {

using namespace hlcs::sim::literals;
using sim::Kernel;
using sim::Task;

TEST(RtlChannel, SingleCallGrantsOnEdge) {
  Kernel k;
  sim::Clock clk(k, "clk", 10_ns);
  SynthesisableChannel ch = make_synthesisable_channel();
  synth::Netlist nl =
      synth::synthesize(ch.desc, synth::SynthOptions{.clients = 1});
  RtlChannel chan(k, "chan", nl, clk);
  auto port = chan.make_port();
  sim::Time granted_at;
  k.spawn("caller", [&]() -> Task {
    const std::uint64_t args = 0x6ull | (1ull << 4) | (0x40ull << 12);
    co_await port.call(ch.methods.put_command, args);
    granted_at = k.now();
  });
  k.run_for(1_us);
  EXPECT_EQ(granted_at.picos(), 5000u) << "granted at the first rising edge";
  EXPECT_EQ(chan.state("var_cmd_valid"), 1u);
  EXPECT_EQ(chan.state("var_cmd_addr"), 0x40u);
  EXPECT_EQ(chan.grants(), 1u);
}

TEST(RtlChannel, GuardBlocksSecondPutUntilGet) {
  Kernel k;
  sim::Clock clk(k, "clk", 10_ns);
  SynthesisableChannel ch = make_synthesisable_channel();
  synth::Netlist nl =
      synth::synthesize(ch.desc, synth::SynthOptions{.clients = 2});
  RtlChannel chan(k, "chan", nl, clk);
  auto app = chan.make_port();
  auto ifc = chan.make_port();
  std::vector<int> order;
  k.spawn("app", [&]() -> Task {
    co_await app.call(ch.methods.put_command, 0x6ull);
    order.push_back(1);
    co_await app.call(ch.methods.put_command, 0x7ull);  // blocked: full
    order.push_back(3);
  });
  k.spawn("ifc", [&]() -> Task {
    co_await k.wait(100_ns);
    co_await ifc.call(ch.methods.get_command);
    order.push_back(2);
  });
  k.run_for(1_us);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(RtlChannel, ReturnsRetValue) {
  Kernel k;
  sim::Clock clk(k, "clk", 10_ns);
  SynthesisableChannel ch = make_synthesisable_channel();
  synth::Netlist nl =
      synth::synthesize(ch.desc, synth::SynthOptions{.clients = 2});
  RtlChannel chan(k, "chan", nl, clk);
  auto app = chan.make_port();
  auto ifc = chan.make_port();
  std::uint64_t got = 0;
  k.spawn("app", [&]() -> Task {
    const std::uint64_t args = 0xAull | (3ull << 4) | (0x123ull << 12);
    co_await app.call(ch.methods.put_command, args);
  });
  k.spawn("ifc", [&]() -> Task {
    got = co_await ifc.call(ch.methods.get_command);
  });
  k.run_for(1_us);
  EXPECT_EQ(unpack_cmd_op(got), 0xAu);
  EXPECT_EQ(unpack_cmd_len(got), 3u);
  EXPECT_EQ(unpack_cmd_addr(got), 0x123u);
}

TEST(RtlChannel, DoubleCallOnSamePortThrows) {
  Kernel k;
  sim::Clock clk(k, "clk", 10_ns);
  SynthesisableChannel ch = make_synthesisable_channel();
  synth::Netlist nl =
      synth::synthesize(ch.desc, synth::SynthOptions{.clients = 1});
  RtlChannel chan(k, "chan", nl, clk);
  auto port = chan.make_port();
  // The second process reuses the same port while the first call is in
  // flight (blocked on an ineligible guard).
  k.spawn("first", [&]() -> Task {
    co_await port.call(ch.methods.get_command);  // blocks: no command
  });
  k.spawn("second", [&]() -> Task {
    co_await k.wait(50_ns);
    co_await port.call(ch.methods.put_command, 1);
  });
  EXPECT_THROW(k.run_for(1_us), hlcs::Error);
}

TEST(RtlChannel, MorePortsThanSynthesisedClientsThrowsAtMakePort) {
  // Port nets are resolved when the port is made, so a netlist
  // synthesised for one client rejects the second port there, not on
  // the first clock edge.
  Kernel k;
  sim::Clock clk(k, "clk", 10_ns);
  SynthesisableChannel ch = make_synthesisable_channel();
  synth::SynthOptions one_client;
  one_client.clients = 1;
  synth::Netlist nl = synth::synthesize(ch.desc, one_client);
  RtlChannel chan(k, "chan", nl, clk);
  auto first = chan.make_port();
  EXPECT_TRUE(first.connected());
  try {
    chan.make_port();
    FAIL() << "make_port() accepted a port the netlist has no pins for";
  } catch (const hlcs::Error& e) {
    EXPECT_NE(std::string(e.what()).find("no net named c1_"),
              std::string::npos)
        << e.what();
  }
  // The rejected port left the channel usable for the one it has.
  bool granted = false;
  k.spawn("caller", [&]() -> Task {
    co_await first.call(ch.methods.put_command, 0x6ull);
    granted = true;
  });
  k.run_for(1_us);
  EXPECT_TRUE(granted);
  EXPECT_EQ(chan.grants(), 1u);
}

struct RtlSystemBench {
  Kernel k;
  sim::Clock clk{k, "clk", 10_ns};
  pci::PciBus bus{k, "pci", clk};
  pci::PciArbiter arb{k, "arb", bus};
  pci::PciMonitor mon{k, "mon", bus};
  pci::PciTarget target;
  RtlPciSystem system{k, "rtl_sys", bus, arb};

  explicit RtlSystemBench(pci::TargetConfig tcfg = {.base = 0x1000,
                                                    .size = 0x1000})
      : target(k, "t0", bus, tcfg) {}

  verify::Transcript run(const std::vector<CommandType>& workload) {
    verify::Transcript out;
    bool done = false;
    k.spawn("app", [&]() -> Task {
      for (const CommandType& cmd : workload) {
        const sim::Time issued = k.now();
        ResponseType resp;
        co_await system.execute(cmd, resp);
        out.record(cmd, resp, issued, k.now());
      }
      done = true;
    });
    for (int slice = 0; slice < 5000 && !done; ++slice) k.run_for(10_us);
    EXPECT_TRUE(done) << "post-synthesis system stalled";
    return out;
  }
};

verify::Transcript functional_reference(
    const std::vector<CommandType>& workload) {
  Kernel k;
  tlm::TlmMemory mem(0x1000, 0x1000);
  FunctionalBusInterface iface(k, "iface", mem);
  Application app(k, "app", iface, workload);
  k.run();
  return app.transcript();
}

TEST(RtlPciSystem, SingleWriteReadRoundTrip) {
  RtlSystemBench b;
  CommandType wr;
  wr.op = BusOp::Write;
  wr.addr = 0x1010;
  wr.data = {0xFACE};
  CommandType rd;
  rd.op = BusOp::Read;
  rd.addr = 0x1010;
  rd.count = 1;
  verify::Transcript t = b.run({wr, rd});
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.entries()[0].status, pci::PciResult::Ok);
  EXPECT_EQ(t.entries()[1].data, (std::vector<std::uint32_t>{0xFACE}));
  EXPECT_TRUE(b.mon.violations().empty()) << b.mon.violations().front();
  EXPECT_GT(b.system.rtl_channel().grants(), 4u)
      << "every word and command passes through the synthesised object";
}

TEST(RtlPciSystem, BurstTransfersStreamThroughRtlObject) {
  RtlSystemBench b;
  CommandType wr;
  wr.op = BusOp::WriteBurst;
  wr.addr = 0x1000;
  wr.data = {10, 20, 30, 40, 50};
  CommandType rd;
  rd.op = BusOp::ReadBurst;
  rd.addr = 0x1000;
  rd.count = 5;
  verify::Transcript t = b.run({wr, rd});
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.entries()[1].data,
            (std::vector<std::uint32_t>{10, 20, 30, 40, 50}));
  // putCommand + 5 wdata (x2 grants each: put and get) + responses...
  EXPECT_GE(b.system.rtl_channel().grants(), 20u);
}

TEST(RtlPciSystem, MasterAbortPropagatesAsStatus) {
  RtlSystemBench b;
  CommandType rd;
  rd.op = BusOp::Read;
  rd.addr = 0x900000;  // nobody decodes this
  rd.count = 1;
  verify::Transcript t = b.run({rd});
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.entries()[0].status, pci::PciResult::MasterAbort);
}

TEST(RtlPciSystem, EquivalentToFunctionalModel) {
  // The paper's consistency claim at FULL system scope: spec-level
  // functional model vs post-synthesis implementation model.
  auto workload = tlm::random_workload(
      tlm::WorkloadConfig{.base = 0x1000, .span = 0x400, .seed = 31337}, 40);
  verify::Transcript golden = functional_reference(workload);
  RtlSystemBench b;
  verify::Transcript rtl = b.run(workload);
  auto cmp = verify::compare_functional(golden, rtl);
  EXPECT_TRUE(cmp) << cmp.first_difference;
  EXPECT_EQ(cmp.compared, 40u);
  EXPECT_TRUE(b.mon.violations().empty());
}

TEST(RtlPciSystem, EquivalentUnderHostileTargetTiming) {
  auto workload = tlm::random_workload(
      tlm::WorkloadConfig{.base = 0x1000, .span = 0x200, .seed = 777}, 25);
  verify::Transcript golden = functional_reference(workload);
  RtlSystemBench b(pci::TargetConfig{.base = 0x1000,
                                     .size = 0x1000,
                                     .devsel = pci::DevselSpeed::Slow,
                                     .initial_wait = 4,
                                     .per_word_wait = 2,
                                     .disconnect_after = 2,
                                     .retry_first = 3});
  verify::Transcript rtl = b.run(workload);
  auto cmp = verify::compare_functional(golden, rtl);
  EXPECT_TRUE(cmp) << cmp.first_difference;
}

}  // namespace
}  // namespace hlcs::pattern
