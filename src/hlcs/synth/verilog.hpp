// Structural Verilog-2001 emission.  The output of the ODETTE flow was
// handed to a conventional "RTL to gate" synthesiser; emit_verilog()
// produces that hand-off artefact.  Every expression node becomes one
// named intermediate wire, referenced by name wherever the arena DAG
// shares it, which keeps the printer trivially correct at the cost of
// verbosity (downstream synthesis flattens it anyway).
#pragma once

#include <string>

#include "hlcs/synth/netlist.hpp"

namespace hlcs::synth {

/// Render the netlist as a self-contained synthesisable Verilog module
/// with ports `clk`, the netlist inputs, and the netlist outputs.
std::string emit_verilog(const Netlist& nl);

}  // namespace hlcs::synth
