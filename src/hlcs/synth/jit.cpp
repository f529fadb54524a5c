#include "hlcs/synth/jit.hpp"

#include <bit>
#include <chrono>

#include "hlcs/sim/assert.hpp"
#include "hlcs/synth/batch_tape.hpp"

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

/// Same classification the batch engine uses: everything except Mul and
/// the data-dependent shifts lowers to native code.
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

unsigned mask_width(std::uint64_t mask) {
  return static_cast<unsigned>(std::popcount(mask));
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

  // Classify first: a comb deopts iff its tape contains an op with
  // lane-value-dependent cross-bit structure (same rule as the batch
  // engine's scalar fallback).
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

// ---------------------------------------------------------------------
// Superlane tape -> native code over BatchTape's plane layout.
// ---------------------------------------------------------------------

namespace {

/// Where one row of an emit-time value lives: one word at [base+disp],
/// or a constant all-zero / all-one row (PushConst operands and reads
/// past a value's width never materialize).
struct RowSrc {
  enum Kind : std::uint8_t { Mem, Zero, Ones } kind;
  Reg base = Reg::RSI;
  std::int32_t disp = 0;
};

/// Emit-time plane-stack entry, mirroring BatchTape::Entry: rows either
/// borrowed from the net planes (rdi), owned in the scratch regions
/// (rsi), or a compile-time constant.
struct EV {
  bool is_const;
  Reg base = Reg::RSI;
  std::int32_t disp = 0;
  std::uint64_t cval = 0;
  unsigned w = 0;
};

/// Byte offset of row b inside a region starting at `disp`.
std::int32_t row_disp(std::int32_t disp, unsigned b) {
  return disp + static_cast<std::int32_t>(b * 8);
}

RowSrc row_of(const EV& e, unsigned b) {
  if (e.is_const) {
    return RowSrc{b < 64 && ((e.cval >> b) & 1) != 0 ? RowSrc::Ones
                                                     : RowSrc::Zero};
  }
  if (b < e.w) return RowSrc{RowSrc::Mem, e.base, row_disp(e.disp, b)};
  return RowSrc{RowSrc::Zero};
}

}  // namespace

BatchJit::BatchJit(BatchTape& bt) : bt_(bt) {
  if (!host_supported() || bt_.super() != 1) return;
  const std::uint64_t t0 = now_ns();
  const TapeProgram& tape = bt_.program();
  const auto& combs = tape.combs();
  const auto& code = tape.code();
  scratch_.resize(std::size_t{tape.max_stack() + tape.max_slots()} *
                      BatchTape::kLanes,
                  0);
  slot_w_.assign(tape.max_slots(), 0);
  slot_set_.assign(tape.max_slots(), 0);

  // Classification: a comb compiles iff the batch engine classified it
  // bit-parallel (no Mul/Shl/Shr) and its CSE slots are self-contained
  // (every PushSlot preceded by a StoreSlot in the same comb -- the tape
  // compiler guarantees this; a violation deopts defensively).
  std::vector<std::uint8_t> native(combs.size(), 0);
  for (std::size_t ci = 0; ci < combs.size(); ++ci) {
    if (!bt_.bcombs_[ci].parallel) {
      for (std::uint32_t i = combs[ci].begin; i < combs[ci].end; ++i) {
        if (!jit_friendly(code[i].op)) {
          ++stats_.deopt_ops[static_cast<std::size_t>(code[i].op)];
          break;
        }
      }
      ++stats_.combs_deopt;
      continue;
    }
    std::fill(slot_set_.begin(), slot_set_.end(), 0);
    bool ok = true;
    for (std::uint32_t i = combs[ci].begin; i < combs[ci].end && ok; ++i) {
      if (code[i].op == TapeOp::StoreSlot) {
        slot_set_[code[i].aux] = 1;
      } else if (code[i].op == TapeOp::PushSlot && !slot_set_[code[i].aux]) {
        ok = false;
        ++stats_.deopt_ops[static_cast<std::size_t>(TapeOp::PushSlot)];
      }
    }
    if (!ok) {
      ++stats_.combs_deopt;
      interp_plane_insns_ += bt_.bcombs_[ci].end - bt_.bcombs_[ci].begin;
      interp_fused_ += bt_.bcombs_[ci].fused;
      continue;
    }
    native[ci] = 1;
  }

  X64Emitter e;
  for (std::size_t ci = 0; ci < combs.size();) {
    if (!native[ci]) {
      steps_.push_back(Step{false, static_cast<std::uint32_t>(ci)});
      ++ci;
      continue;
    }
    const std::uint32_t off = static_cast<std::uint32_t>(e.size());
    e.push_r(Reg::RBX);
    while (ci < combs.size() && native[ci]) {
      emit_comb(e, ci);
      ++ci;
    }
    e.pop_r(Reg::RBX);
    e.ret();
    steps_.push_back(Step{true, off});
    ++stats_.segments;
  }

  if (e.size() != 0 && code_.install(e.bytes())) {
    stats_.enabled = true;
    stats_.code_bytes = code_.code_size();
  } else {
    steps_.clear();
  }
  stats_.compile_ns = now_ns() - t0;
}

bool BatchJit::emit_comb(X64Emitter& e, std::size_t ci) {
  const TapeProgram& tape = bt_.program();
  const TapeComb& c = tape.combs()[ci];
  const TapeInsn* code = tape.code().data();
  constexpr std::size_t region_words = BatchTape::kLanes;
  // The per-lane carry/accumulator register of the ripple chains.
  constexpr Reg kCarry = Reg::R8;

  // Scratch layout at [rsi]: one fixed 64-row region per stack depth,
  // then one per CSE slot (mirrors BatchTape's stack_planes_ /
  // slot_planes_ split, so the interpreter's aliasing argument carries
  // over unchanged).
  const auto region_disp = [&](std::size_t d) {
    return static_cast<std::int32_t>(d * region_words * 8);
  };
  const auto slot_disp = [&](std::uint32_t s) {
    return static_cast<std::int32_t>((tape.max_stack() + s) * region_words * 8);
  };
  const auto net_ev = [&](std::uint32_t net) {
    return EV{false, Reg::RDI,
              static_cast<std::int32_t>(std::size_t{bt_.plane_off_[net]} * 8),
              0, bt_.width_[net]};
  };
  const auto load_row = [&](Reg dst, RowSrc s) {
    switch (s.kind) {
      case RowSrc::Mem: e.mov_rm(dst, s.base, s.disp); break;
      case RowSrc::Zero: e.mov_ri(dst, 0); break;
      case RowSrc::Ones: e.mov_ri(dst, ~std::uint64_t{0}); break;
    }
  };
  // dst = dst OP row (And/Or/Xor only; identity rows fold away).
  const auto alu_row = [&](Alu op, Reg dst, RowSrc s) {
    switch (s.kind) {
      case RowSrc::Mem: e.alu_rm(op, dst, s.base, s.disp); break;
      case RowSrc::Zero:
        if (op == Alu::And) e.mov_ri(dst, 0);
        break;
      case RowSrc::Ones:
        if (op != Alu::And) e.alu_ri32(op, dst, -1);
        break;
    }
  };
  const auto store_row = [&](std::int32_t disp, Reg src) {
    e.mov_mr(Reg::RSI, disp, src);
  };

  std::vector<EV> st;
  st.reserve(tape.max_stack());
  std::fill(slot_set_.begin(), slot_set_.end(), 0);

  // Selector-style truthiness OR-accumulation into the carry register
  // (Mux selectors, RedOr).
  const auto accum_or = [&](const EV& v) {
    e.mov_ri(kCarry, 0);
    for (unsigned b = 0; b < v.w; ++b) alu_row(Alu::Or, kCarry, row_of(v, b));
  };
  // Borrow chain for the ordered compares: carry out of x + ~y + 1 over
  // the full width is (x >= y) per lane -- same formula, same row
  // iteration order as BatchTape::run_planes.
  const auto emit_cmp = [&](const EV& x, const EV& y, bool invert,
                            std::size_t depth) -> EV {
    const unsigned w = x.w > y.w ? x.w : y.w;
    e.mov_ri(kCarry, ~std::uint64_t{0});
    for (unsigned b = 0; b < w; ++b) {
      load_row(Reg::RAX, row_of(x, b));
      load_row(Reg::RCX, row_of(y, b));
      e.not_r(Reg::RCX);  // qv = ~q
      e.mov_rr(Reg::RDX, Reg::RAX);
      e.alu_rr(Alu::And, Reg::RDX, Reg::RCX);  // av & qv
      e.alu_rr(Alu::Xor, Reg::RAX, Reg::RCX);  // av ^ qv
      e.alu_rr(Alu::And, kCarry, Reg::RAX);
      e.alu_rr(Alu::Or, kCarry, Reg::RDX);
    }
    const std::int32_t rd = region_disp(depth);
    if (invert) e.not_r(kCarry);
    store_row(rd, kCarry);
    return EV{false, Reg::RSI, rd, 0, 1};
  };

  for (std::uint32_t i = c.begin; i < c.end; ++i) {
    const TapeInsn& in = code[i];
    ++stats_.stencils;
    const std::size_t n = st.size();
    switch (in.op) {
      case TapeOp::PushConst:
        // No materialization: constant rows fold into their consumers,
        // which is the "patched immediates" half of copy-and-patch.
        st.push_back(EV{true, Reg::RSI, 0, in.imm,
                        static_cast<unsigned>(std::bit_width(in.imm))});
        break;
      case TapeOp::PushNet: st.push_back(net_ev(in.aux)); break;
      case TapeOp::PushSlot:
        // Classification rejected combs whose slots are not
        // self-contained, so the width here is always valid.
        if (!slot_set_[in.aux]) fail("batch jit: push of an unstored slot");
        st.push_back(EV{false, Reg::RSI, slot_disp(in.aux), 0,
                        slot_w_[in.aux]});
        break;
      case TapeOp::StoreSlot: {
        const EV v = st.back();
        st.pop_back();
        const std::int32_t sd = slot_disp(in.aux);
        for (unsigned b = 0; b < v.w; ++b) {
          load_row(Reg::RAX, row_of(v, b));
          store_row(row_disp(sd, b), Reg::RAX);
        }
        slot_w_[in.aux] = v.w;
        slot_set_[in.aux] = 1;
        break;
      }
      case TapeOp::Not: {
        EV& v = st.back();
        const unsigned w = mask_width(in.imm);
        const std::int32_t rd = region_disp(n - 1);
        for (unsigned b = 0; b < w; ++b) {
          load_row(Reg::RAX, row_of(v, b));  // same-index: in-place safe
          e.not_r(Reg::RAX);
          store_row(row_disp(rd, b), Reg::RAX);
        }
        v = EV{false, Reg::RSI, rd, 0, w};
        break;
      }
      case TapeOp::Neg: {
        // 0 + ~x + 1: carry chain collapses to carry &= ~x.
        EV& v = st.back();
        const unsigned w = mask_width(in.imm);
        const std::int32_t rd = region_disp(n - 1);
        e.mov_ri(kCarry, ~std::uint64_t{0});
        for (unsigned b = 0; b < w; ++b) {
          load_row(Reg::RAX, row_of(v, b));
          e.not_r(Reg::RAX);  // q = ~x
          e.mov_rr(Reg::RCX, Reg::RAX);
          e.alu_rr(Alu::Xor, Reg::RCX, kCarry);  // q ^ carry
          store_row(row_disp(rd, b), Reg::RCX);
          e.alu_rr(Alu::And, kCarry, Reg::RAX);  // carry &= q
        }
        v = EV{false, Reg::RSI, rd, 0, w};
        break;
      }
      case TapeOp::RedOr: {
        EV& v = st.back();
        accum_or(v);
        const std::int32_t rd = region_disp(n - 1);
        store_row(rd, kCarry);
        v = EV{false, Reg::RSI, rd, 0, 1};
        break;
      }
      case TapeOp::RedAnd: {
        EV& v = st.back();
        const unsigned w = mask_width(in.imm);  // operand width
        e.mov_ri(kCarry, ~std::uint64_t{0});
        for (unsigned b = 0; b < w; ++b) {
          alu_row(Alu::And, kCarry, row_of(v, b));
        }
        const std::int32_t rd = region_disp(n - 1);
        store_row(rd, kCarry);
        v = EV{false, Reg::RSI, rd, 0, 1};
        break;
      }
      case TapeOp::Slice: {
        EV& v = st.back();
        const unsigned w = mask_width(in.imm);
        const std::int32_t rd = region_disp(n - 1);
        // Reads run ahead of writes: ascending is in-place safe.
        for (unsigned b = 0; b < w; ++b) {
          load_row(Reg::RAX, row_of(v, b + in.aux));
          store_row(row_disp(rd, b), Reg::RAX);
        }
        v = EV{false, Reg::RSI, rd, 0, w};
        break;
      }
      case TapeOp::Add:
      case TapeOp::Sub: {
        // Ripple carry/borrow: one 64-lane full adder per bit row.
        const bool is_sub = in.op == TapeOp::Sub;
        const EV rhs = st.back();
        st.pop_back();
        EV& lhs = st.back();
        const unsigned w = mask_width(in.imm);
        const std::int32_t rd = region_disp(n - 2);
        e.mov_ri(kCarry, is_sub ? ~std::uint64_t{0} : 0);
        for (unsigned b = 0; b < w; ++b) {
          load_row(Reg::RAX, row_of(lhs, b));  // same-index: in-place safe
          load_row(Reg::RCX, row_of(rhs, b));
          if (is_sub) e.not_r(Reg::RCX);
          e.mov_rr(Reg::RDX, Reg::RAX);
          e.alu_rr(Alu::And, Reg::RDX, Reg::RCX);  // av & qv
          e.alu_rr(Alu::Xor, Reg::RAX, Reg::RCX);  // x = av ^ qv
          e.mov_rr(Reg::RBX, Reg::RAX);
          e.alu_rr(Alu::Xor, Reg::RBX, kCarry);  // r = x ^ carry
          store_row(row_disp(rd, b), Reg::RBX);
          e.alu_rr(Alu::And, kCarry, Reg::RAX);  // carry & x
          e.alu_rr(Alu::Or, kCarry, Reg::RDX);   // | (av & qv)
        }
        lhs = EV{false, Reg::RSI, rd, 0, w};
        break;
      }
      case TapeOp::And:
      case TapeOp::Or:
      case TapeOp::Xor: {
        const EV rhs = st.back();
        st.pop_back();
        EV& lhs = st.back();
        const bool is_and = in.op == TapeOp::And;
        const unsigned w = is_and ? (lhs.w < rhs.w ? lhs.w : rhs.w)
                                  : (lhs.w > rhs.w ? lhs.w : rhs.w);
        const Alu op = is_and ? Alu::And : (in.op == TapeOp::Or ? Alu::Or
                                                                : Alu::Xor);
        const std::int32_t rd = region_disp(n - 2);
        for (unsigned b = 0; b < w; ++b) {
          load_row(Reg::RAX, row_of(lhs, b));
          alu_row(op, Reg::RAX, row_of(rhs, b));
          store_row(row_disp(rd, b), Reg::RAX);
        }
        lhs = EV{false, Reg::RSI, rd, 0, w};
        break;
      }
      case TapeOp::Eq:
      case TapeOp::Ne: {
        const EV rhs = st.back();
        st.pop_back();
        EV& lhs = st.back();
        const unsigned w = lhs.w > rhs.w ? lhs.w : rhs.w;
        e.mov_ri(kCarry, ~std::uint64_t{0});
        for (unsigned b = 0; b < w; ++b) {
          load_row(Reg::RAX, row_of(lhs, b));
          alu_row(Alu::Xor, Reg::RAX, row_of(rhs, b));
          e.not_r(Reg::RAX);
          e.alu_rr(Alu::And, kCarry, Reg::RAX);
        }
        const std::int32_t rd = region_disp(n - 2);
        if (in.op == TapeOp::Ne) e.not_r(kCarry);
        store_row(rd, kCarry);
        lhs = EV{false, Reg::RSI, rd, 0, 1};
        break;
      }
      case TapeOp::Lt:
      case TapeOp::Le:
      case TapeOp::Gt:
      case TapeOp::Ge: {
        const EV rhs = st.back();
        st.pop_back();
        EV& lhs = st.back();
        switch (in.op) {
          case TapeOp::Lt: lhs = emit_cmp(lhs, rhs, true, n - 2); break;
          case TapeOp::Le: lhs = emit_cmp(rhs, lhs, false, n - 2); break;
          case TapeOp::Gt: lhs = emit_cmp(rhs, lhs, true, n - 2); break;
          default: lhs = emit_cmp(lhs, rhs, false, n - 2); break;
        }
        break;
      }
      case TapeOp::Concat: {
        const EV rhs = st.back();
        st.pop_back();
        EV& lhs = st.back();
        const unsigned lo = in.aux;
        unsigned w = lhs.w + lo;
        if (w > BatchTape::kLanes) w = BatchTape::kLanes;
        const std::int32_t rd = region_disp(n - 2);
        // High (lhs) part first, descending, exactly like the
        // interpreter: row b reads row b - lo < b, so an in-place lhs
        // is never clobbered before it is read.
        for (unsigned b = w; b-- > lo;) {
          load_row(Reg::RAX, row_of(lhs, b - lo));
          store_row(row_disp(rd, b), Reg::RAX);
        }
        const unsigned rw = lo < w ? lo : w;
        for (unsigned b = 0; b < rw; ++b) {
          load_row(Reg::RAX, row_of(rhs, b));
          store_row(row_disp(rd, b), Reg::RAX);
        }
        lhs = EV{false, Reg::RSI, rd, 0, w};
        break;
      }
      case TapeOp::Mux: {
        const EV els = st.back();
        st.pop_back();
        const EV thn = st.back();
        st.pop_back();
        EV& sel = st.back();
        accum_or(sel);  // per-lane selector truthiness in r8
        const unsigned w = thn.w > els.w ? thn.w : els.w;
        const std::int32_t rd = region_disp(n - 3);
        for (unsigned b = 0; b < w; ++b) {
          // r = z ^ (s & (t ^ z))  ==  (s & t) | (~s & z)
          load_row(Reg::RAX, row_of(thn, b));
          load_row(Reg::RCX, row_of(els, b));
          e.alu_rr(Alu::Xor, Reg::RAX, Reg::RCX);
          e.alu_rr(Alu::And, Reg::RAX, kCarry);
          e.alu_rr(Alu::Xor, Reg::RAX, Reg::RCX);
          store_row(row_disp(rd, b), Reg::RAX);
        }
        sel = EV{false, Reg::RSI, rd, 0, w};
        break;
      }
      case TapeOp::Mul:
      case TapeOp::Shl:
      case TapeOp::Shr:
        fail("batch jit: non-parallel op in a comb classified native");
    }
  }

  // Store the result into the target net's rows (zero-fill past the
  // result width, exactly like run_planes' final copy).
  const EV res = st.back();
  const std::int32_t td =
      static_cast<std::int32_t>(std::size_t{bt_.plane_off_[c.target]} * 8);
  const unsigned wt = bt_.width_[c.target];
  for (unsigned b = 0; b < wt; ++b) {
    load_row(Reg::RAX, row_of(res, b));
    e.mov_mr(Reg::RDI, row_disp(td, b), Reg::RAX);
  }
  ++stats_.combs_native;
  return true;
}

void BatchJit::run_all(std::uint64_t* planes, BatchStats& stats) {
  using Fn = void (*)(std::uint64_t*, std::uint64_t*);
  for (const Step& s : steps_) {
    if (s.native) {
      code_.entry<Fn>(s.arg)(planes, scratch_.data());
      ++stats_.native_calls;
    } else {
      bt_.run_comb(s.arg, planes);
      ++stats_.deopt_comb_evals;
    }
  }
  // Same per-settle accounting as BatchTape::run_all; native plane work
  // is reported through JitStats instead of plane_instructions.
  const std::uint64_t ncombs = bt_.program().combs().size();
  stats.combs_evaluated += ncombs;
  stats.combs_bit_parallel += ncombs - bt_.scalar_combs_;
  stats.combs_scalar += bt_.scalar_combs_;
  stats.scalar_lane_evals += bt_.scalar_combs_ * bt_.lanes();
  stats.plane_instructions += interp_plane_insns_;
  stats.fused_ops += interp_fused_;
  stats.scalar_ops += bt_.scalar_insns_per_lane_ * bt_.lanes();
}

}  // namespace hlcs::synth
