// Umbrella header for the communication-synthesis layer.
#pragma once

#include "hlcs/synth/comm_synth.hpp"
#include "hlcs/synth/equiv.hpp"
#include "hlcs/synth/expr.hpp"
#include "hlcs/synth/golden.hpp"
#include "hlcs/synth/interp.hpp"
#include "hlcs/synth/netlist.hpp"
#include "hlcs/synth/object_desc.hpp"
#include "hlcs/synth/optimize.hpp"
#include "hlcs/synth/parser.hpp"
#include "hlcs/synth/poly.hpp"
#include "hlcs/synth/report.hpp"
#include "hlcs/synth/rtl_sim.hpp"
#include "hlcs/synth/tape.hpp"
#include "hlcs/synth/verilog.hpp"
