#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <regex>
#include <string>
#include <vector>

#include "hlcs/synth/comm_synth.hpp"
#include "hlcs/synth/optimize.hpp"
#include "hlcs/synth/report.hpp"
#include "hlcs/synth/verilog.hpp"
#include "objects.hpp"
#include "shipped_objects.hpp"

namespace hlcs::synth {
namespace {

TEST(Verilog, EmitsModuleWithPorts) {
  ObjectDesc d = testobj::mailbox();
  Netlist nl = synthesize(d, SynthOptions{.clients = 2});
  std::string v = emit_verilog(nl);
  EXPECT_NE(v.find("module mailbox_rtl ("), std::string::npos);
  EXPECT_NE(v.find("input wire clk"), std::string::npos);
  EXPECT_NE(v.find("input wire rst"), std::string::npos);
  EXPECT_NE(v.find("c0_req"), std::string::npos);
  EXPECT_NE(v.find("c1_req"), std::string::npos);
  EXPECT_NE(v.find("output wire c0_grant"), std::string::npos);
  EXPECT_NE(v.find("[15:0] c0_ret"), std::string::npos);
  EXPECT_NE(v.find("var_full"), std::string::npos);
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(Verilog, EveryRegisterAssignedInAlwaysBlock) {
  ObjectDesc d = testobj::counter();
  Netlist nl = synthesize(d, SynthOptions{.clients = 1});
  std::string v = emit_verilog(nl);
  for (const RegDesc& r : nl.regs()) {
    const std::string q = nl.nets()[r.q].name;
    EXPECT_NE(v.find(q + "_r <= "), std::string::npos) << q;
  }
}

TEST(Verilog, InitialBlockSetsResetValues) {
  ObjectDesc d = testobj::swapper();  // x init 0xAB = 171, y init 0xCD = 205
  Netlist nl = synthesize(d, SynthOptions{.clients = 1});
  std::string v = emit_verilog(nl);
  EXPECT_NE(v.find("var_x_r = 8'd171"), std::string::npos);
  EXPECT_NE(v.find("var_y_r = 8'd205"), std::string::npos);
}

TEST(Verilog, BalancedBeginEnd) {
  ObjectDesc d = testobj::counter();
  Netlist nl = synthesize(
      d, SynthOptions{.clients = 4, .policy = osss::PolicyKind::RoundRobin});
  std::string v = emit_verilog(nl);
  auto count_of = [&](const std::string& needle) {
    std::size_t n = 0, pos = 0;
    while ((pos = v.find(needle, pos)) != std::string::npos) {
      ++n;
      pos += needle.size();
    }
    return n;
  };
  EXPECT_EQ(count_of("module "), 1u);
  EXPECT_EQ(count_of("endmodule"), 1u);
  EXPECT_EQ(count_of("begin"), count_of("  end\n"));
}

TEST(Verilog, AllPoliciesEmit) {
  ObjectDesc d = testobj::mailbox();
  for (auto policy : {osss::PolicyKind::Fifo, osss::PolicyKind::RoundRobin,
                      osss::PolicyKind::StaticPriority,
                      osss::PolicyKind::Random}) {
    Netlist nl = synthesize(d, SynthOptions{.clients = 3, .policy = policy});
    std::string v = emit_verilog(nl);
    EXPECT_NE(v.find("endmodule"), std::string::npos)
        << osss::policy_name(policy);
    EXPECT_GT(v.size(), 500u);
  }
}

// ---------------------------------------------------------------------
// Shared nodes: one wire per arena node
// ---------------------------------------------------------------------

/// Declared temp wires (`wire ... tN = ...;`) by name, with their counts.
std::map<std::string, int> temp_decls(const std::string& v) {
  static const std::regex decl(R"(wire (?:\[\d+:0\] )?(t\d+) = )");
  std::map<std::string, int> out;
  for (std::sregex_iterator it(v.begin(), v.end(), decl), end; it != end;
       ++it) {
    ++out[(*it)[1]];
  }
  return out;
}

/// Occurrences of `word` as a whole identifier.
std::size_t uses(const std::string& v, const std::string& word) {
  const std::regex re("\\b" + word + "\\b");
  return static_cast<std::size_t>(std::distance(
      std::sregex_iterator(v.begin(), v.end(), re), std::sregex_iterator()));
}

TEST(Verilog, SharedSubexpressionDeclaredOnceUsedByName) {
  Netlist nl("shared");
  const NetId a = nl.add_net("a", 8);
  const NetId b = nl.add_net("b", 8);
  const NetId y = nl.add_net("y", 8);
  const NetId z = nl.add_net("z", 8);
  nl.mark_input(a);
  nl.mark_input(b);
  nl.mark_output(y);
  nl.mark_output(z);
  auto& A = nl.arena();
  const ExprId sum = A.bin(ExprOp::Add, nl.net_ref(a), nl.net_ref(b));
  nl.add_comb(y, A.un(ExprOp::Not, sum));
  nl.add_comb(z, A.bin(ExprOp::Xor, sum, nl.net_ref(a)));
  const std::string v = emit_verilog(nl);

  const std::regex sum_decl(R"(wire \[7:0\] (t\d+) = \(a\) \+ \(b\);)");
  std::smatch m;
  ASSERT_TRUE(std::regex_search(v, m, sum_decl)) << v;
  const std::string name = m[1];
  EXPECT_EQ(uses(v, name), 3u) << "declared once, read by both combs\n" << v;
  EXPECT_NE(v.find("= ~" + name + ";"), std::string::npos) << v;
  EXPECT_NE(v.find("= (" + name + ") ^ (a);"), std::string::npos) << v;
  EXPECT_EQ(temp_decls(v).size(), 3u) << v;
}

TEST(Verilog, EveryTempDeclaredExactlyOnce) {
  for (osss::PolicyKind policy :
       {osss::PolicyKind::Fifo, osss::PolicyKind::Adaptive}) {
    SCOPED_TRACE(osss::policy_name(policy));
    const Netlist nl = optimize(
        synthesize(testobj::mailbox(),
                   SynthOptions{.clients = 6, .policy = policy}));
    const std::string v = emit_verilog(nl);
    const std::map<std::string, int> decls = temp_decls(v);
    ASSERT_FALSE(decls.empty());
    for (const auto& [name, count] : decls) EXPECT_EQ(count, 1) << name;
    // Every temp that is read is declared.
    static const std::regex ref(R"(\bt\d+\b)");
    for (std::sregex_iterator it(v.begin(), v.end(), ref), end; it != end;
         ++it) {
      EXPECT_TRUE(decls.count(it->str())) << it->str() << " is not declared";
    }
  }
}

TEST(Verilog, TreeNetlistEmitsItsCommittedText) {
  // No node is shared, so every node gets its own wire exactly as the
  // printer has always emitted it.
  Netlist nl("tree");
  const NetId a = nl.add_net("a", 8);
  const NetId b = nl.add_net("b", 8);
  const NetId s = nl.add_net("s", 1);
  const NetId y = nl.add_net("y", 8);
  const NetId z = nl.add_net("z", 1);
  const NetId q = nl.add_net("q", 4);
  const NetId d = nl.add_net("d", 4);
  nl.mark_input(a);
  nl.mark_input(b);
  nl.mark_input(s);
  nl.mark_output(y);
  nl.mark_output(z);
  nl.add_reg(q, d, 3);
  auto& A = nl.arena();
  nl.add_comb(y, A.mux(nl.net_ref(s),
                       A.bin(ExprOp::Add, nl.net_ref(a), nl.net_ref(b)),
                       A.un(ExprOp::Not, nl.net_ref(a))));
  nl.add_comb(z, A.un(ExprOp::RedAnd,
                      A.slice(A.bin(ExprOp::Xor, nl.net_ref(a), nl.net_ref(b)),
                              2, 4)));
  nl.add_comb(d, A.bin(ExprOp::Sub,
                       A.bin(ExprOp::Concat, A.slice(nl.net_ref(q), 0, 2),
                             A.slice(nl.net_ref(b), 6, 2)),
                       A.zext(nl.net_ref(s), 4)));
  const char* expected =
      "// Generated by hlcs communication synthesis\n"
      "module tree (\n"
      "  input wire clk,\n"
      "  input wire [7:0] a,\n"
      "  input wire [7:0] b,\n"
      "  input wire s,\n"
      "  output wire [7:0] y,\n"
      "  output wire z\n"
      ");\n"
      "\n"
      "  reg [3:0] q_r;\n"
      "  assign q = q_r;\n"
      "  wire [3:0] q;\n"
      "  wire [3:0] d;\n"
      "\n"
      "  wire [7:0] t0 = ~a;\n"
      "  wire [7:0] t1 = (a) + (b);\n"
      "  wire [7:0] t2 = (s) ? (t1) : (t0);\n"
      "  assign y = t2;\n"
      "\n"
      "  wire [7:0] t3 = (a) ^ (b);\n"
      "  wire [7:0] t4 = t3;\n"
      "  wire t5 = &t4[5:2];\n"
      "  assign z = t5;\n"
      "\n"
      "  wire [3:0] t6 = {3'd0, s};\n"
      "  wire [3:0] t7 = {q[1:0], b[7:6]};\n"
      "  wire [3:0] t8 = (t7) - (t6);\n"
      "  assign d = t8;\n"
      "\n"
      "  always @(posedge clk) begin\n"
      "    q_r <= d;\n"
      "  end\n"
      "\n"
      "  initial begin\n"
      "    q_r = 4'd3;\n"
      "  end\n"
      "\n"
      "endmodule\n";
  EXPECT_EQ(emit_verilog(nl), expected);
}

TEST(Verilog, OptimizedMailboxWiresBoundedByReachableNodes) {
  // mailbox.obj under the adaptive policy at 16 clients shares most of
  // its arbitration logic between the per-client grants: at most one
  // wire per reachable node, not one per path to it.
  const Netlist nl =
      optimize(synthesize(shipped_object("mailbox.obj"),
                          SynthOptions{.clients = 16,
                                       .policy = osss::PolicyKind::Adaptive}));
  std::vector<bool> seen(nl.arena().size(), false);
  std::vector<ExprId> stack;
  for (const CombAssign& c : nl.combs()) stack.push_back(c.value);
  std::size_t reachable = 0;
  while (!stack.empty()) {
    const ExprId id = stack.back();
    stack.pop_back();
    if (seen[id]) continue;
    seen[id] = true;
    ++reachable;
    const ExprNode& n = nl.arena().at(id);
    for (ExprId ch : {n.a, n.b, n.c}) {
      if (ch != kNoExpr) stack.push_back(ch);
    }
  }
  const std::size_t wires = temp_decls(emit_verilog(nl)).size();
  EXPECT_GT(wires, 0u);
  EXPECT_LE(wires, reachable);
}

TEST(Report, CountsFlipFlops) {
  ObjectDesc d = testobj::swapper();  // two 8-bit vars
  Netlist nl = synthesize(d, SynthOptions{.clients = 1});
  ResourceReport r = report(nl);
  EXPECT_EQ(r.flip_flops, 16u);
  EXPECT_GT(r.gate_estimate, 0u);
  EXPECT_GT(r.logic_depth, 0u);
  EXPECT_EQ(r.design, "swapper_rtl");
}

TEST(Report, FifoPolicyAddsAgeCounters) {
  ObjectDesc d = testobj::counter();
  ResourceReport prio = report(synthesize(
      d, SynthOptions{.clients = 4, .policy = osss::PolicyKind::StaticPriority}));
  ResourceReport fifo = report(synthesize(
      d, SynthOptions{.clients = 4, .policy = osss::PolicyKind::Fifo}));
  // 4 clients x 8-bit age counters = 32 extra FFs.
  EXPECT_EQ(fifo.flip_flops, prio.flip_flops + 32u);
}

TEST(Report, RandomPolicyAddsLfsr) {
  ObjectDesc d = testobj::counter();
  ResourceReport prio = report(synthesize(
      d, SynthOptions{.clients = 2, .policy = osss::PolicyKind::StaticPriority}));
  ResourceReport rnd = report(synthesize(
      d, SynthOptions{.clients = 2, .policy = osss::PolicyKind::Random}));
  EXPECT_EQ(rnd.flip_flops, prio.flip_flops + 16u);
}

TEST(Report, GatesGrowWithClients) {
  ObjectDesc d = testobj::mailbox();
  std::size_t prev = 0;
  for (std::size_t c : {1u, 2u, 4u, 8u, 16u}) {
    ResourceReport r = report(synthesize(d, SynthOptions{.clients = c}));
    EXPECT_GT(r.gate_estimate, prev) << c << " clients";
    prev = r.gate_estimate;
  }
}

TEST(Report, ToStringContainsKeyNumbers) {
  ObjectDesc d = testobj::counter();
  ResourceReport r = report(synthesize(d, SynthOptions{.clients = 1}));
  std::string s = r.to_string();
  EXPECT_NE(s.find("counter_rtl"), std::string::npos);
  EXPECT_NE(s.find("FFs"), std::string::npos);
  EXPECT_NE(s.find("gates"), std::string::npos);
}

}  // namespace
}  // namespace hlcs::synth
