// The Sec. 3 synthesis flow for one design, as `hlcs_synth --optimize
// --check` runs it: parse (+ make_polymorphic) -> synthesize -> optimize
// -> check_equivalence -> emit_verilog -> emit_verilog_testbench.
#pragma once

#include <cstdint>
#include <string>

#include "hlcs/synth/equiv.hpp"
#include "trace.hpp"

namespace flowbench {

struct DesignJob {
  std::string label;  ///< object/clients/policy
  /// .obj text; null for the bus-access channel, built in code.
  const std::string* source = nullptr;
  hlcs::synth::SynthOptions opt;
  hlcs::synth::EquivOptions eopt;  ///< only cycles, seed and lanes set
  std::uint64_t netlist_check_seed = 1;  ///< emitted-netlist check stimulus
  bool check_netlist = true;             ///< run the emitted-netlist check
};

struct DesignOutcome {
  std::string error;          ///< empty when every stage and check passed
  std::int64_t flow_ns = 0;   ///< object text to verified Verilog + testbench
  std::int64_t equiv_ns = 0;  ///< inside check_equivalence
  std::int64_t check_ns = 0;  ///< untimed emitted-netlist check
  std::uint64_t lane_cycles = 0;
  std::uint64_t grants = 0;
  std::uint64_t verilog_bytes = 0;
  std::uint64_t testbench_bytes = 0;
  std::uint64_t comb_nodes = 0;     ///< after optimize
  std::uint64_t nodes_removed = 0;  ///< by optimize
};

DesignOutcome run_design(const DesignJob& job, Tracer& tr, std::uint32_t op);

/// Lock-step `optimized` against `reference` on NetlistSim over seeded
/// random inputs, comparing every output after each settle and each
/// edge.  Returns the first disagreement, or an empty string.
std::string check_emitted_netlist(const hlcs::synth::Netlist& reference,
                                  const hlcs::synth::Netlist& optimized,
                                  std::uint64_t seed, std::size_t cycles);

}  // namespace flowbench
