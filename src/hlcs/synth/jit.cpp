#include "hlcs/synth/jit.hpp"

#include <chrono>

#include "hlcs/sim/assert.hpp"

namespace hlcs::synth {

using jitx64::Alu;
using jitx64::Cond;
using jitx64::Reg;
using jitx64::X64Emitter;

namespace {

/// Virtual-stack register pool for the scalar JIT: depths 0..4 live here
/// permanently (all caller-saved, so segments need no save/restore);
/// deeper values spill to the rsp frame.  R10/R11 are the op scratches.
constexpr Reg kPool[] = {Reg::RAX, Reg::RCX, Reg::RDX, Reg::R8, Reg::R9};
constexpr std::size_t kPoolN = std::size(kPool);

/// Everything except Mul and the data-dependent shifts lowers to native
/// code.
bool jit_friendly(TapeOp op) {
  switch (op) {
    case TapeOp::Mul:
    case TapeOp::Shl:
    case TapeOp::Shr:
      return false;
    default:
      return true;
  }
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* tape_op_name(TapeOp op) {
  switch (op) {
    case TapeOp::PushConst: return "push_const";
    case TapeOp::PushNet: return "push_net";
    case TapeOp::PushSlot: return "push_slot";
    case TapeOp::StoreSlot: return "store_slot";
    case TapeOp::Not: return "not";
    case TapeOp::Neg: return "neg";
    case TapeOp::RedOr: return "red_or";
    case TapeOp::RedAnd: return "red_and";
    case TapeOp::Slice: return "slice";
    case TapeOp::Add: return "add";
    case TapeOp::Sub: return "sub";
    case TapeOp::Mul: return "mul";
    case TapeOp::And: return "and";
    case TapeOp::Or: return "or";
    case TapeOp::Xor: return "xor";
    case TapeOp::Eq: return "eq";
    case TapeOp::Ne: return "ne";
    case TapeOp::Lt: return "lt";
    case TapeOp::Le: return "le";
    case TapeOp::Gt: return "gt";
    case TapeOp::Ge: return "ge";
    case TapeOp::Shl: return "shl";
    case TapeOp::Shr: return "shr";
    case TapeOp::Concat: return "concat";
    case TapeOp::Mux: return "mux";
  }
  return "?";
}

std::vector<std::pair<std::string, std::uint64_t>> JitStats::deopt_hits()
    const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (std::size_t i = 0; i < kNumTapeOps; ++i) {
    if (deopt_ops[i] != 0) {
      out.emplace_back(tape_op_name(static_cast<TapeOp>(i)), deopt_ops[i]);
    }
  }
  return out;
}

JitStats& JitStats::operator+=(const JitStats& o) {
  enabled = enabled || o.enabled;
  compile_ns += o.compile_ns;
  code_bytes += o.code_bytes;
  stencils += o.stencils;
  segments += o.segments;
  combs_native += o.combs_native;
  combs_deopt += o.combs_deopt;
  native_calls += o.native_calls;
  deopt_comb_evals += o.deopt_comb_evals;
  for (std::size_t i = 0; i < kNumTapeOps; ++i) deopt_ops[i] += o.deopt_ops[i];
  return *this;
}

bool TapeJit::host_supported() { return jitx64::host_supported(); }

// ---------------------------------------------------------------------
// Scalar tape -> native code.
// ---------------------------------------------------------------------

TapeJit::TapeJit(const TapeProgram& tape) : tape_(tape) {
  if (!host_supported()) return;
  const std::uint64_t t0 = now_ns();
  spill_slots_ = tape_.max_stack() > kPoolN
                     ? tape_.max_stack() - static_cast<std::uint32_t>(kPoolN)
                     : 0;
  const std::int32_t frame = static_cast<std::int32_t>(8 * spill_slots_);
  const auto& combs = tape_.combs();
  const auto& code = tape_.code();

  // Classify first: a comb deopts iff its tape contains Mul or a
  // data-dependent shift.
  std::vector<std::uint8_t> native(combs.size(), 0);
  for (std::size_t ci = 0; ci < combs.size(); ++ci) {
    bool ok = true;
    for (std::uint32_t i = combs[ci].begin; i < combs[ci].end && ok; ++i) {
      if (!jit_friendly(code[i].op)) {
        ++stats_.combs_deopt;
        ++stats_.deopt_ops[static_cast<std::size_t>(code[i].op)];
        ok = false;
      }
    }
    native[ci] = ok ? 1 : 0;
  }

  // Maximal runs of native combs become one straight-line segment
  // function each; deopt combs interleave as interpreter steps so the
  // topological evaluation order is preserved exactly.
  X64Emitter e;
  for (std::size_t ci = 0; ci < combs.size();) {
    if (!native[ci]) {
      steps_.push_back(Step{false, static_cast<std::uint32_t>(ci)});
      ++ci;
      continue;
    }
    const std::uint32_t off = static_cast<std::uint32_t>(e.size());
    e.sub_rsp(frame);
    while (ci < combs.size() && native[ci]) {
      emit_comb(e, combs[ci]);
      ++ci;
    }
    e.add_rsp(frame);
    e.ret();
    steps_.push_back(Step{true, off});
    ++stats_.segments;
  }

  if (e.size() != 0 && code_.install(e.bytes())) {
    stats_.enabled = true;
    stats_.code_bytes = code_.code_size();
  } else {
    steps_.clear();  // callers fall back to the interpreter wholesale
  }
  stats_.compile_ns = now_ns() - t0;
}

bool TapeJit::emit_comb(X64Emitter& e, const TapeComb& c) {
  const TapeInsn* code = tape_.code().data();
  const auto disp = [](std::size_t d) {
    return static_cast<std::int32_t>(8 * (d - kPoolN));
  };
  // Value at depth d, loaded into `scratch` if it lives in the frame.
  const auto load = [&](std::size_t d, Reg scratch) -> Reg {
    if (d < kPoolN) return kPool[d];
    e.mov_rm(scratch, Reg::RSP, disp(d));
    return scratch;
  };
  // Park a computed value back at depth d (no-op when it is already in
  // that depth's pool register).
  const auto writeback = [&](std::size_t d, Reg r) {
    if (d < kPoolN) {
      e.mov_rr(kPool[d], r);
    } else {
      e.mov_mr(Reg::RSP, disp(d), r);
    }
  };
  const auto apply_mask = [&](Reg r, std::uint64_t m) {
    if (m == ~std::uint64_t{0}) return;
    if (m <= 0x7FFFFFFFull) {
      e.alu_ri32(Alu::And, r, static_cast<std::int32_t>(m));
    } else {
      e.mov_ri(Reg::R11, m);
      e.alu_rr(Alu::And, r, Reg::R11);
    }
  };

  std::size_t n = 0;  // virtual stack depth
  const auto binop = [&](Alu op, std::uint64_t m, bool do_mask) {
    --n;
    const Reg rr = load(n, Reg::R11);
    const Reg rl = load(n - 1, Reg::R10);
    e.alu_rr(op, rl, rr);
    if (do_mask) apply_mask(rl, m);
    writeback(n - 1, rl);
  };
  const auto cmpop = [&](Cond cc) {
    --n;
    const Reg rr = load(n, Reg::R11);
    const Reg rl = load(n - 1, Reg::R10);
    e.alu_rr(Alu::Cmp, rl, rr);
    e.setcc_zx(cc, rl);
    writeback(n - 1, rl);
  };

  for (std::uint32_t i = c.begin; i < c.end; ++i) {
    const TapeInsn& in = code[i];
    ++stats_.stencils;
    switch (in.op) {
      case TapeOp::PushConst:
        if (n < kPoolN) {
          e.mov_ri(kPool[n], in.imm);
        } else if (in.imm <= 0x7FFFFFFFull) {
          e.mov_mi32(Reg::RSP, disp(n), static_cast<std::int32_t>(in.imm));
        } else {
          e.mov_ri(Reg::R10, in.imm);
          e.mov_mr(Reg::RSP, disp(n), Reg::R10);
        }
        ++n;
        break;
      case TapeOp::PushNet:
      case TapeOp::PushSlot: {
        const Reg base = in.op == TapeOp::PushNet ? Reg::RDI : Reg::RSI;
        const std::int32_t src = static_cast<std::int32_t>(8 * in.aux);
        if (n < kPoolN) {
          e.mov_rm(kPool[n], base, src);
        } else {
          e.mov_rm(Reg::R10, base, src);
          e.mov_mr(Reg::RSP, disp(n), Reg::R10);
        }
        ++n;
        break;
      }
      case TapeOp::StoreSlot: {
        --n;
        const Reg r = load(n, Reg::R10);
        e.mov_mr(Reg::RSI, static_cast<std::int32_t>(8 * in.aux), r);
        break;
      }
      case TapeOp::Not: {
        const Reg r = load(n - 1, Reg::R10);
        e.not_r(r);
        apply_mask(r, in.imm);
        writeback(n - 1, r);
        break;
      }
      case TapeOp::Neg: {
        const Reg r = load(n - 1, Reg::R10);
        e.neg_r(r);
        apply_mask(r, in.imm);
        writeback(n - 1, r);
        break;
      }
      case TapeOp::RedOr: {
        const Reg r = load(n - 1, Reg::R10);
        e.test_rr(r, r);
        e.setcc_zx(Cond::NE, r);
        writeback(n - 1, r);
        break;
      }
      case TapeOp::RedAnd: {
        const Reg r = load(n - 1, Reg::R10);
        if (in.imm <= 0x7FFFFFFFull) {
          e.alu_ri32(Alu::Cmp, r, static_cast<std::int32_t>(in.imm));
        } else {
          e.mov_ri(Reg::R11, in.imm);
          e.alu_rr(Alu::Cmp, r, Reg::R11);
        }
        e.setcc_zx(Cond::E, r);
        writeback(n - 1, r);
        break;
      }
      case TapeOp::Slice: {
        const Reg r = load(n - 1, Reg::R10);
        e.shr_ri(r, in.aux);
        apply_mask(r, in.imm);
        writeback(n - 1, r);
        break;
      }
      case TapeOp::Add: binop(Alu::Add, in.imm, true); break;
      case TapeOp::Sub: binop(Alu::Sub, in.imm, true); break;
      case TapeOp::And: binop(Alu::And, 0, false); break;
      case TapeOp::Or: binop(Alu::Or, 0, false); break;
      case TapeOp::Xor: binop(Alu::Xor, 0, false); break;
      case TapeOp::Eq: cmpop(Cond::E); break;
      case TapeOp::Ne: cmpop(Cond::NE); break;
      case TapeOp::Lt: cmpop(Cond::B); break;
      case TapeOp::Le: cmpop(Cond::BE); break;
      case TapeOp::Gt: cmpop(Cond::A); break;
      case TapeOp::Ge: cmpop(Cond::AE); break;
      case TapeOp::Concat: {
        --n;
        const Reg rr = load(n, Reg::R11);
        const Reg rl = load(n - 1, Reg::R10);
        e.shl_ri(rl, in.aux);
        e.alu_rr(Alu::Or, rl, rr);
        writeback(n - 1, rl);
        break;
      }
      case TapeOp::Mux: {
        n -= 2;  // sel at n-1, then at n, else at n+1
        const Reg rs = load(n - 1, Reg::R10);
        const Reg rt = load(n, Reg::R11);
        e.test_rr(rs, rs);
        if (n + 1 < kPoolN) {
          e.cmov_rr(Cond::E, rt, kPool[n + 1]);
        } else {
          e.cmov_rm(Cond::E, rt, Reg::RSP, disp(n + 1));
        }
        writeback(n - 1, rt);
        break;
      }
      case TapeOp::Mul:
      case TapeOp::Shl:
      case TapeOp::Shr:
        fail("tape jit: non-native op in a comb classified native");
    }
  }
  // The comb's value sits at depth 0 (always pool register rax).
  e.mov_mr(Reg::RDI, static_cast<std::int32_t>(8 * c.target), Reg::RAX);
  ++stats_.combs_native;
  return true;
}

void TapeJit::run_full(std::uint64_t* nets, std::uint64_t* stack,
                       std::uint64_t* slots, NetlistStats* stats) {
  using Fn = void (*)(std::uint64_t*, std::uint64_t*);
  const auto& combs = tape_.combs();
  const TapeInsn* code = tape_.code().data();
  for (const Step& s : steps_) {
    if (s.native) {
      code_.entry<Fn>(s.arg)(nets, slots);
      ++stats_.native_calls;
    } else {
      const TapeComb& c = combs[s.arg];
      nets[c.target] =
          tape_exec(code + c.begin, code + c.end, nets, stack, slots);
      ++stats_.deopt_comb_evals;
      if (stats != nullptr) stats->tape_instructions += c.end - c.begin;
    }
  }
  if (stats != nullptr) stats->combs_evaluated += combs.size();
}

}  // namespace hlcs::synth
