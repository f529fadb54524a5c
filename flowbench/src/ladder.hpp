// The Fig. 4 refinement flow: one seeded command stream replayed on the
// LT, functional, pin-level and synthesised-RTL rungs, each checked
// against the functional rung, then the waveform check (two traced,
// property-monitored pin-level runs compared as VCD files).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hlcs/pattern/command.hpp"
#include "workload.hpp"

namespace flowbench {

/// One ladder run.  Adds `setup_ns` (system construction) and
/// `untimed_ns` (VCD clean-up) for the caller's pass accounting.
struct LadderTimes {
  std::int64_t setup_ns = 0;
  std::int64_t untimed_ns = 0;
};

LadderTimes run_ladder(const LadderSpec& spec,
                       const std::vector<hlcs::pattern::CommandType>& stream,
                       PassContext& ctx, PassResult& out);

}  // namespace flowbench
