// Native code generation for TapeProgram evaluation.
//
// TapeJit lowers the scalar bytecode tape to straight-line x86-64
// through a copy-and-patch backend (jit_emit_x64.hpp).  The virtual
// value stack is register-allocated -- depths 0..4 live permanently in
// {rax, rcx, rdx, r8, r9}, deeper values spill to a small rsp frame --
// so a whole comb becomes one branch-free run of ALU ops ending in a
// store to its target net.  Consecutive compilable combs are
// concatenated into segment functions, which is where the win over the
// interpreter comes from: no dispatch, no stack traffic, and values stay
// register-cached across combs.  NetlistSim settles through it wherever
// the host supports it.
//
// Combs whose tape contains Mul or a data-dependent shift (Shl/Shr)
// deopt per comb back to the interpreter, with per-opcode counters;
// non-x86-64 hosts or HLCS_JIT=OFF builds simply report
// host_supported() == false and NetlistSim falls back wholesale to the
// interpreter.  Verdicts are bit-identical to the interpreter
// (tests/synth/test_jit.cpp is the matrix).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hlcs/synth/jit_emit_x64.hpp"
#include "hlcs/synth/tape.hpp"

namespace hlcs::synth {

constexpr std::size_t kNumTapeOps = static_cast<std::size_t>(TapeOp::Mux) + 1;

/// Printable tape opcode name, for the deopt counters.
const char* tape_op_name(TapeOp op);

/// Observability counters for a JIT compilation + its runtime behaviour,
/// reported by hlcs_synth --stats.
struct JitStats {
  bool enabled = false;           ///< native code was installed
  std::uint64_t compile_ns = 0;   ///< emission + page install time
  std::uint64_t code_bytes = 0;   ///< installed machine code size
  std::uint64_t stencils = 0;     ///< opcode stencils expanded
  std::uint64_t segments = 0;     ///< native entry points emitted
  std::uint64_t combs_native = 0; ///< combs compiled to native code
  std::uint64_t combs_deopt = 0;  ///< combs left on the interpreter
  std::uint64_t native_calls = 0;     ///< runtime: segment invocations
  std::uint64_t deopt_comb_evals = 0; ///< runtime: interpreted comb evals
  /// Deopt reasons: count per tape opcode that forced a comb off the
  /// native path (the first offending op of each deopted comb).
  std::array<std::uint64_t, kNumTapeOps> deopt_ops{};

  /// (opcode name, count) for every opcode that caused a deopt.
  std::vector<std::pair<std::string, std::uint64_t>> deopt_hits() const;

  JitStats& operator+=(const JitStats& o);
};

/// Scalar tape -> native code.  Compiles once against a TapeProgram (the
/// reference must outlive the TapeJit) and then evaluates full settles
/// over the caller's net/stack/slot arrays, interleaving native segments
/// with interpreted deopt combs in topological order.
class TapeJit {
public:
  /// True when this build can emit native code at all (x86-64 POSIX
  /// host, HLCS_JIT CMake option ON).
  static bool host_supported();

  explicit TapeJit(const TapeProgram& tape);

  /// Native code installed; false means callers should use the
  /// interpreter (host unsupported or nothing compilable).
  bool available() const { return code_.installed(); }

  /// Evaluate every comb in topological order (one full settle), updating
  /// `stats` the way the interpreter settle does: combs_evaluated counts
  /// every comb, tape_instructions only the interpreted (deopted) ones.
  void run_full(std::uint64_t* nets, std::uint64_t* stack,
                std::uint64_t* slots, NetlistStats* stats);

  const JitStats& stats() const { return stats_; }

private:
  bool emit_comb(jitx64::X64Emitter& e, const TapeComb& c);

  struct Step {
    bool native;
    std::uint32_t arg;  ///< code offset (native) or comb index (deopt)
  };

  const TapeProgram& tape_;
  std::vector<Step> steps_;
  jitx64::CodeBuffer code_;
  std::uint32_t spill_slots_ = 0;
  JitStats stats_;
};

}  // namespace hlcs::synth
