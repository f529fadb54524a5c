#include "hlcs/synth/batch_tape.hpp"

#include <algorithm>
#include <bit>

#include "hlcs/sim/assert.hpp"
#include "hlcs/sim/sweep.hpp"

namespace hlcs::synth {

unsigned cpu_superlanes() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx512f")) return 8;
  if (__builtin_cpu_supports("avx2")) return 4;
#endif
  return 1;
}

namespace {

/// Ops that run directly on bit-planes: bitwise/mux/slice/reduction ops
/// are independent per result bit, and Add/Sub/Neg and the ordered
/// comparisons carry across bits in a *fixed* pattern, so a ripple
/// carry/borrow over the planes evaluates all lanes exactly.  Only Mul
/// and the data-dependent shifts -- where the cross-bit structure itself
/// depends on lane values -- take the per-lane scalar fallback.
bool plane_friendly(TapeOp op) {
  switch (op) {
    case TapeOp::Mul:
    case TapeOp::Shl:
    case TapeOp::Shr:
      return false;
    default:
      return true;
  }
}

/// Masks in the tape are contiguous low-bit runs, so popcount is the
/// width the mask encodes.
unsigned mask_width(std::uint64_t mask) {
  return static_cast<unsigned>(std::popcount(mask));
}

/// 1:1 lowering for tape ops the fusion pass leaves alone.
BOp plain_bop(TapeOp op) {
  switch (op) {
    case TapeOp::PushConst: return BOp::PushConst;
    case TapeOp::PushNet: return BOp::PushNet;
    case TapeOp::PushSlot: return BOp::PushSlot;
    case TapeOp::StoreSlot: return BOp::StoreSlot;
    case TapeOp::Not: return BOp::Not;
    case TapeOp::Neg: return BOp::Neg;
    case TapeOp::RedOr: return BOp::RedOr;
    case TapeOp::RedAnd: return BOp::RedAnd;
    case TapeOp::Slice: return BOp::Slice;
    case TapeOp::Add: return BOp::Add;
    case TapeOp::Sub: return BOp::Sub;
    case TapeOp::And: return BOp::And;
    case TapeOp::Or: return BOp::Or;
    case TapeOp::Xor: return BOp::Xor;
    case TapeOp::Eq: return BOp::Eq;
    case TapeOp::Ne: return BOp::Ne;
    case TapeOp::Lt: return BOp::Lt;
    case TapeOp::Le: return BOp::Le;
    case TapeOp::Gt: return BOp::Gt;
    case TapeOp::Ge: return BOp::Ge;
    case TapeOp::Concat: return BOp::Concat;
    case TapeOp::Mux: return BOp::Mux;
    default:
      fail("batch engine: arithmetic op in a bit-parallel comb");
  }
}

/// Rows at index >= width read as all-zero (values are stored masked);
/// this shared row is the target of those reads at any K <= kMaxSuper.
constexpr std::uint64_t kZeroRow[BatchTape::kMaxSuper] = {};

}  // namespace

BatchTape::BatchTape(const Netlist& nl, unsigned super)
    : tape_(TapeProgram::compile(nl)),
      super_(super) {
  if (super_ != 1 && super_ != 4 && super_ != 8) {
    fail("batch engine: superlane factor must be 1, 4 or 8 (got " +
         std::to_string(super_) + ")");
  }
  const auto& nets = nl.nets();
  plane_off_.reserve(nets.size() + 1);
  width_.reserve(nets.size());
  std::uint32_t off = 0;
  for (const Net& n : nets) {
    if (n.width == 0 || n.width > kLanes) {
      fail("batch engine: net '" + n.name + "' is " +
           std::to_string(n.width) +
           " bits wide; bit-plane rows support nets of 1..64 bits (one "
           "plane per bit)");
    }
    plane_off_.push_back(off);
    width_.push_back(n.width);
    off += n.width;
  }
  plane_off_.push_back(off);

  // Classify each comb and compile the parallel ones through the
  // superinstruction fusion pass into the batch stream.
  const auto& code = tape_.code();
  bcombs_.reserve(tape_.combs().size());
  for (const TapeComb& c : tape_.combs()) {
    bool ok = true;
    for (std::uint32_t i = c.begin; i < c.end && ok; ++i) {
      ok = plane_friendly(code[i].op);
    }
    BComb bc;
    bc.parallel = ok;
    if (ok) {
      bc.begin = static_cast<std::uint32_t>(bcode_.size());
      fuse_comb(code.data() + c.begin, code.data() + c.end, bc);
      bc.end = static_cast<std::uint32_t>(bcode_.size());
      plane_insns_per_settle_ += bc.end - bc.begin;
      fused_per_settle_ += bc.fused;
    } else {
      ++scalar_combs_;
      scalar_insns_per_lane_ += c.end - c.begin;
    }
    bcombs_.push_back(bc);
  }
  fused_total_ = fused_per_settle_;

  entries_.resize(tape_.max_stack());
  stack_planes_.resize(std::size_t{tape_.max_stack()} * kLanes * super_);
  slot_planes_.resize(std::size_t{tape_.max_slots()} * kLanes * super_);
  slot_w_.resize(tape_.max_slots());
  scalar_nets_.resize(nets.size());
  scalar_stack_.resize(tape_.max_stack());
  scalar_slots_.resize(tape_.max_slots());
  scalar_res_.resize(kLanes * super_);
}

// The peephole pass, longest match first.  Every pattern is positional
// -- the fused operand is whatever the deleted instruction would have
// left on top of the stack -- so matching adjacency in the postorder
// tape is sufficient for correctness:
//   PushNet, Not, And  -> AndNotNet   (priority/grant chains)
//   PushNet, {And,Or,Xor} -> {And,Or,Xor}Net
//   PushNet, Mux       -> MuxNet      (else operand straight from a net)
//   PushNet, Not       -> NotNet
//   {Eq,Ne}, Mux       -> {Eq,Ne}Mux  (compare feeding a select)
//   Not, And           -> AndNot
//   Mux, StoreSlot     -> MuxStore    (select written into a CSE slot)
void BatchTape::fuse_comb(const TapeInsn* ip, const TapeInsn* end, BComb& bc) {
  const auto emit = [&](BOp op, std::uint32_t aux, std::uint64_t imm,
                        std::size_t eaten) {
    bcode_.push_back(BatchInsn{op, aux, imm});
    ++fusion_hits_[static_cast<std::size_t>(op)];
    ++bc.fused;
    ip += eaten;
  };
  while (ip != end) {
    const std::size_t left = static_cast<std::size_t>(end - ip);
    if (ip->op == TapeOp::PushNet) {
      if (left >= 3 && ip[1].op == TapeOp::Not && ip[2].op == TapeOp::And) {
        emit(BOp::AndNotNet, ip->aux, ip[1].imm, 3);
        continue;
      }
      if (left >= 2) {
        bool hit = true;
        switch (ip[1].op) {
          case TapeOp::And: emit(BOp::AndNet, ip->aux, 0, 2); break;
          case TapeOp::Or: emit(BOp::OrNet, ip->aux, 0, 2); break;
          case TapeOp::Xor: emit(BOp::XorNet, ip->aux, 0, 2); break;
          case TapeOp::Mux: emit(BOp::MuxNet, ip->aux, 0, 2); break;
          case TapeOp::Not: emit(BOp::NotNet, ip->aux, ip[1].imm, 2); break;
          default: hit = false; break;
        }
        if (hit) continue;
      }
    } else if ((ip->op == TapeOp::Eq || ip->op == TapeOp::Ne) && left >= 2 &&
               ip[1].op == TapeOp::Mux) {
      emit(ip->op == TapeOp::Eq ? BOp::EqMux : BOp::NeMux, 0, 0, 2);
      continue;
    } else if (ip->op == TapeOp::Not && left >= 2 &&
               ip[1].op == TapeOp::And) {
      emit(BOp::AndNot, 0, ip->imm, 2);
      continue;
    } else if (ip->op == TapeOp::Mux && left >= 2 &&
               ip[1].op == TapeOp::StoreSlot) {
      emit(BOp::MuxStore, ip[1].aux, 0, 2);
      continue;
    }
    bcode_.push_back(BatchInsn{plain_bop(ip->op), ip->aux, ip->imm});
    ++ip;
  }
}

std::vector<std::pair<std::string, std::uint64_t>> BatchTape::fusion_hits()
    const {
  static const char* const kNames[] = {
      "and_net", "or_net",  "xor_net", "not_net", "and_not_net",
      "and_not", "mux_net", "eq_mux",  "ne_mux",  "mux_store"};
  static_assert(std::size(kNames) == kNumBOps - kFirstFusedBOp);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(std::size(kNames));
  for (std::size_t i = kFirstFusedBOp; i < kNumBOps; ++i) {
    out.emplace_back(kNames[i - kFirstFusedBOp], fusion_hits_[i]);
  }
  return out;
}

void BatchTape::run_all(std::uint64_t* planes, BatchStats& stats) {
  switch (super_) {
    case 4: run_combs<4>(planes); break;
    case 8: run_combs<8>(planes); break;
    default: run_combs<1>(planes); break;
  }
  // run_all always evaluates every comb, so the per-settle increments
  // are constants of the tape -- no hot-loop counters needed.
  const std::uint64_t ncombs = tape_.combs().size();
  stats.combs_evaluated += ncombs;
  stats.combs_bit_parallel += ncombs - scalar_combs_;
  stats.combs_scalar += scalar_combs_;
  stats.scalar_lane_evals += scalar_combs_ * lanes();
  stats.plane_instructions += plane_insns_per_settle_;
  stats.fused_ops += fused_per_settle_;
  stats.scalar_ops += scalar_insns_per_lane_ * lanes();
}

void BatchTape::run_comb(std::size_t ci, std::uint64_t* planes) {
  if (!bcombs_[ci].parallel) {
    run_lanes(ci, planes);
    return;
  }
  const NetId target = tape_.combs()[ci].target;
  switch (super_) {
    case 4: run_planes<4>(bcombs_[ci], target, planes); break;
    case 8: run_planes<8>(bcombs_[ci], target, planes); break;
    default: run_planes<1>(bcombs_[ci], target, planes); break;
  }
}

template <unsigned K>
void BatchTape::run_combs(std::uint64_t* planes) {
  const auto& combs = tape_.combs();
  for (std::size_t ci = 0; ci < combs.size(); ++ci) {
    if (bcombs_[ci].parallel) {
      run_planes<K>(bcombs_[ci], combs[ci].target, planes);
    } else {
      run_lanes(ci, planes);
    }
  }
}

// The evaluator.  Every value is `w` rows of K words each; each stack
// depth owns a fixed 64-row region, so a result written at depth d never
// aliases an operand at another depth and only strict in-place updates
// (entry d already owning region d) need iteration-order care, noted per
// op.  The inner `j < K` loops carry K as a compile-time constant, so
// they compile to short unrolled (or vectorized) code.
template <unsigned K>
void BatchTape::run_planes(const BComb& bc, NetId target,
                           std::uint64_t* planes) {
  const BatchInsn* ip = bcode_.data() + bc.begin;
  const BatchInsn* const end = bcode_.data() + bc.end;
  Entry* st = entries_.data();
  std::size_t n = 0;
  std::uint64_t* const stack0 = stack_planes_.data();
  std::uint64_t* const slots0 = slot_planes_.data();
  const auto region = [stack0](std::size_t d) -> std::uint64_t* {
    return stack0 + d * (kLanes * K);
  };
  const auto row = [](const Entry& e, unsigned b) -> const std::uint64_t* {
    return b < e.w ? e.p + std::size_t{b} * K : kZeroRow;
  };
  const auto net_entry = [this, planes](std::uint32_t net) -> Entry {
    return Entry{planes + std::size_t{plane_off_[net]} * K, width_[net]};
  };
  // Ordered comparisons share one borrow chain: the carry out of
  // x + ~y + 1 over the full width is 1 exactly when x >= y per lane.
  const auto cmp = [&](const Entry& x, const Entry& y, bool invert,
                       std::size_t depth) -> Entry {
    const unsigned w = x.w > y.w ? x.w : y.w;
    std::uint64_t carry[K];
    for (unsigned j = 0; j < K; ++j) carry[j] = ~std::uint64_t{0};
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* a = row(x, b);
      const std::uint64_t* q = row(y, b);
      for (unsigned j = 0; j < K; ++j) {
        const std::uint64_t av = a[j];
        const std::uint64_t qv = ~q[j];
        carry[j] = (av & qv) | (carry[j] & (av ^ qv));
      }
    }
    std::uint64_t* r = region(depth);
    for (unsigned j = 0; j < K; ++j) r[j] = invert ? ~carry[j] : carry[j];
    return Entry{r, 1};
  };

  // Direct threading (the GNU computed-goto extension): one indirect
  // branch per handler tail instead of a single shared switch branch, so
  // the predictor learns opcode *pairs*.
  static const void* const kJump[kNumBOps] = {
      &&l_PushConst, &&l_PushNet, &&l_PushSlot, &&l_StoreSlot,
      &&l_Not,       &&l_Neg,     &&l_RedOr,    &&l_RedAnd,
      &&l_Slice,     &&l_Add,     &&l_Sub,      &&l_And,
      &&l_Or,        &&l_Xor,     &&l_Eq,       &&l_Ne,
      &&l_Lt,        &&l_Le,      &&l_Gt,       &&l_Ge,
      &&l_Concat,    &&l_Mux,     &&l_AndNet,   &&l_OrNet,
      &&l_XorNet,    &&l_NotNet,  &&l_AndNotNet, &&l_AndNot,
      &&l_MuxNet,    &&l_EqMux,   &&l_NeMux,    &&l_MuxStore};
#define HLCS_BT_OP(name) l_##name:
#define HLCS_BT_NEXT()                                   \
  do {                                                   \
    if (++ip == end) goto l_done;                        \
    goto* kJump[static_cast<std::size_t>(ip->op)];       \
  } while (0)
  if (ip == end) goto l_done;
  goto* kJump[static_cast<std::size_t>(ip->op)];

  HLCS_BT_OP(PushConst) {
    std::uint64_t* r = region(n);
    const unsigned w = static_cast<unsigned>(std::bit_width(ip->imm));
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t v = (ip->imm >> b) & 1 ? ~std::uint64_t{0} : 0;
      for (unsigned j = 0; j < K; ++j) r[b * K + j] = v;
    }
    st[n++] = Entry{r, w};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(PushNet) {
    st[n++] = net_entry(ip->aux);
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(PushSlot) {
    st[n++] = Entry{slots0 + std::size_t{ip->aux} * (kLanes * K),
                    slot_w_[ip->aux]};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(StoreSlot) {
    const Entry e = st[--n];
    std::uint64_t* s = slots0 + std::size_t{ip->aux} * (kLanes * K);
    for (unsigned b = 0; b < e.w; ++b) {
      for (unsigned j = 0; j < K; ++j) s[b * K + j] = e.p[b * K + j];
    }
    slot_w_[ip->aux] = e.w;
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(Not) {
    Entry& e = st[n - 1];
    std::uint64_t* r = region(n - 1);
    const unsigned w = mask_width(ip->imm);
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* a = row(e, b);  // same-index: in-place safe
      for (unsigned j = 0; j < K; ++j) r[b * K + j] = ~a[j];
    }
    e = Entry{r, w};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(Neg) {
    // 0 + ~x + 1: the full-adder chain collapses to carry &= ~x.
    Entry& e = st[n - 1];
    const unsigned w = mask_width(ip->imm);
    std::uint64_t* r = region(n - 1);
    std::uint64_t carry[K];
    for (unsigned j = 0; j < K; ++j) carry[j] = ~std::uint64_t{0};
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* a = row(e, b);
      for (unsigned j = 0; j < K; ++j) {
        const std::uint64_t q = ~a[j];
        r[b * K + j] = q ^ carry[j];
        carry[j] &= q;
      }
    }
    e = Entry{r, w};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(RedOr) {
    Entry& e = st[n - 1];
    std::uint64_t acc[K] = {};
    for (unsigned b = 0; b < e.w; ++b) {
      for (unsigned j = 0; j < K; ++j) acc[j] |= e.p[b * K + j];
    }
    std::uint64_t* r = region(n - 1);
    for (unsigned j = 0; j < K; ++j) r[j] = acc[j];
    e = Entry{r, 1};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(RedAnd) {
    Entry& e = st[n - 1];
    const unsigned w = mask_width(ip->imm);  // operand width
    std::uint64_t acc[K];
    for (unsigned j = 0; j < K; ++j) acc[j] = ~std::uint64_t{0};
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* a = row(e, b);
      for (unsigned j = 0; j < K; ++j) acc[j] &= a[j];
    }
    std::uint64_t* r = region(n - 1);
    for (unsigned j = 0; j < K; ++j) r[j] = acc[j];
    e = Entry{r, 1};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(Slice) {
    Entry& e = st[n - 1];
    std::uint64_t* r = region(n - 1);
    const unsigned w = mask_width(ip->imm);
    // Reads run ahead of writes (b + lsb >= b): ascending is in-place
    // safe.
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* a = row(e, b + ip->aux);
      for (unsigned j = 0; j < K; ++j) r[b * K + j] = a[j];
    }
    e = Entry{r, w};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(Add) {
    // Ripple carry over rows: one K*64-lane full adder per bit.
    const Entry rhs = st[--n];
    Entry& e = st[n - 1];
    const unsigned w = mask_width(ip->imm);
    std::uint64_t* r = region(n - 1);
    std::uint64_t carry[K] = {};
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* a = row(e, b);  // same-index: in-place safe
      const std::uint64_t* q = row(rhs, b);
      for (unsigned j = 0; j < K; ++j) {
        const std::uint64_t av = a[j];
        const std::uint64_t qv = q[j];
        const std::uint64_t x = av ^ qv;
        r[b * K + j] = x ^ carry[j];
        carry[j] = (av & qv) | (carry[j] & x);
      }
    }
    e = Entry{r, w};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(Sub) {
    // lhs + ~rhs + 1; rhs rows beyond its width read as zero and invert
    // to one -- exactly the two's-complement extension (mod 2^w) needs.
    const Entry rhs = st[--n];
    Entry& e = st[n - 1];
    const unsigned w = mask_width(ip->imm);
    std::uint64_t* r = region(n - 1);
    std::uint64_t carry[K];
    for (unsigned j = 0; j < K; ++j) carry[j] = ~std::uint64_t{0};
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* a = row(e, b);
      const std::uint64_t* q = row(rhs, b);
      for (unsigned j = 0; j < K; ++j) {
        const std::uint64_t av = a[j];
        const std::uint64_t qv = ~q[j];
        const std::uint64_t x = av ^ qv;
        r[b * K + j] = x ^ carry[j];
        carry[j] = (av & qv) | (carry[j] & x);
      }
    }
    e = Entry{r, w};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(And) {
    const Entry rhs = st[--n];
    Entry& e = st[n - 1];
    const unsigned w = e.w < rhs.w ? e.w : rhs.w;
    std::uint64_t* r = region(n - 1);
    for (unsigned b = 0; b < w; ++b) {
      for (unsigned j = 0; j < K; ++j) {
        r[b * K + j] = e.p[b * K + j] & rhs.p[b * K + j];
      }
    }
    e = Entry{r, w};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(Or) {
    const Entry rhs = st[--n];
    Entry& e = st[n - 1];
    const unsigned w = e.w > rhs.w ? e.w : rhs.w;
    std::uint64_t* r = region(n - 1);
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* a = row(e, b);
      const std::uint64_t* q = row(rhs, b);
      for (unsigned j = 0; j < K; ++j) r[b * K + j] = a[j] | q[j];
    }
    e = Entry{r, w};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(Xor) {
    const Entry rhs = st[--n];
    Entry& e = st[n - 1];
    const unsigned w = e.w > rhs.w ? e.w : rhs.w;
    std::uint64_t* r = region(n - 1);
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* a = row(e, b);
      const std::uint64_t* q = row(rhs, b);
      for (unsigned j = 0; j < K; ++j) r[b * K + j] = a[j] ^ q[j];
    }
    e = Entry{r, w};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(Eq) {
    const Entry rhs = st[--n];
    Entry& e = st[n - 1];
    const unsigned w = e.w > rhs.w ? e.w : rhs.w;
    std::uint64_t acc[K];
    for (unsigned j = 0; j < K; ++j) acc[j] = ~std::uint64_t{0};
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* a = row(e, b);
      const std::uint64_t* q = row(rhs, b);
      for (unsigned j = 0; j < K; ++j) acc[j] &= ~(a[j] ^ q[j]);
    }
    std::uint64_t* r = region(n - 1);
    for (unsigned j = 0; j < K; ++j) r[j] = acc[j];
    e = Entry{r, 1};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(Ne) {
    const Entry rhs = st[--n];
    Entry& e = st[n - 1];
    const unsigned w = e.w > rhs.w ? e.w : rhs.w;
    std::uint64_t acc[K];
    for (unsigned j = 0; j < K; ++j) acc[j] = ~std::uint64_t{0};
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* a = row(e, b);
      const std::uint64_t* q = row(rhs, b);
      for (unsigned j = 0; j < K; ++j) acc[j] &= ~(a[j] ^ q[j]);
    }
    std::uint64_t* r = region(n - 1);
    for (unsigned j = 0; j < K; ++j) r[j] = ~acc[j];
    e = Entry{r, 1};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(Lt) {
    const Entry rhs = st[--n];
    Entry& e = st[n - 1];
    e = cmp(e, rhs, /*invert=*/true, n - 1);
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(Le) {
    const Entry rhs = st[--n];
    Entry& e = st[n - 1];
    e = cmp(rhs, e, /*invert=*/false, n - 1);
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(Gt) {
    const Entry rhs = st[--n];
    Entry& e = st[n - 1];
    e = cmp(rhs, e, /*invert=*/true, n - 1);
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(Ge) {
    const Entry rhs = st[--n];
    Entry& e = st[n - 1];
    e = cmp(e, rhs, /*invert=*/false, n - 1);
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(Concat) {
    const Entry rhs = st[--n];
    Entry& e = st[n - 1];
    const unsigned lo = ip->aux;
    unsigned w = e.w + lo;
    if (w > kLanes) w = static_cast<unsigned>(kLanes);
    std::uint64_t* r = region(n - 1);
    // High (lhs) part first, descending: write row b reads row b - lo
    // < b, which a descending sweep has not clobbered yet, so the lhs
    // may live in-place at this region.
    for (unsigned b = w; b-- > lo;) {
      const std::uint64_t* a = row(e, b - lo);
      for (unsigned j = 0; j < K; ++j) r[b * K + j] = a[j];
    }
    const unsigned rw = lo < w ? lo : w;
    for (unsigned b = 0; b < rw; ++b) {
      const std::uint64_t* q = row(rhs, b);
      for (unsigned j = 0; j < K; ++j) r[b * K + j] = q[j];
    }
    e = Entry{r, w};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(Mux) {
    const Entry els = st[--n];
    const Entry thn = st[--n];
    Entry& sel = st[n - 1];
    std::uint64_t s[K] = {};  // per-lane truthiness of the selector
    for (unsigned b = 0; b < sel.w; ++b) {
      for (unsigned j = 0; j < K; ++j) s[j] |= sel.p[b * K + j];
    }
    const unsigned w = thn.w > els.w ? thn.w : els.w;
    std::uint64_t* r = region(n - 1);
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* t = row(thn, b);
      const std::uint64_t* z = row(els, b);
      for (unsigned j = 0; j < K; ++j) {
        r[b * K + j] = (s[j] & t[j]) | (~s[j] & z[j]);
      }
    }
    sel = Entry{r, w};
  }
  HLCS_BT_NEXT();

  // ----- fused superinstructions ------------------------------------

  HLCS_BT_OP(AndNet) {
    const Entry rhs = net_entry(ip->aux);
    Entry& e = st[n - 1];
    const unsigned w = e.w < rhs.w ? e.w : rhs.w;
    std::uint64_t* r = region(n - 1);
    for (unsigned b = 0; b < w; ++b) {
      for (unsigned j = 0; j < K; ++j) {
        r[b * K + j] = e.p[b * K + j] & rhs.p[b * K + j];
      }
    }
    e = Entry{r, w};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(OrNet) {
    const Entry rhs = net_entry(ip->aux);
    Entry& e = st[n - 1];
    const unsigned w = e.w > rhs.w ? e.w : rhs.w;
    std::uint64_t* r = region(n - 1);
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* a = row(e, b);
      const std::uint64_t* q = row(rhs, b);
      for (unsigned j = 0; j < K; ++j) r[b * K + j] = a[j] | q[j];
    }
    e = Entry{r, w};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(XorNet) {
    const Entry rhs = net_entry(ip->aux);
    Entry& e = st[n - 1];
    const unsigned w = e.w > rhs.w ? e.w : rhs.w;
    std::uint64_t* r = region(n - 1);
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* a = row(e, b);
      const std::uint64_t* q = row(rhs, b);
      for (unsigned j = 0; j < K; ++j) r[b * K + j] = a[j] ^ q[j];
    }
    e = Entry{r, w};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(NotNet) {
    const Entry src = net_entry(ip->aux);
    std::uint64_t* r = region(n);
    const unsigned w = mask_width(ip->imm);
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* a = row(src, b);
      for (unsigned j = 0; j < K; ++j) r[b * K + j] = ~a[j];
    }
    st[n++] = Entry{r, w};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(AndNotNet) {
    // tos &= ~net, masked to the Not's width: the grant/priority chain
    // shape, three dispatches collapsed into one.
    const Entry rhs = net_entry(ip->aux);
    Entry& e = st[n - 1];
    const unsigned wn = mask_width(ip->imm);
    const unsigned w = e.w < wn ? e.w : wn;
    std::uint64_t* r = region(n - 1);
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* q = row(rhs, b);
      for (unsigned j = 0; j < K; ++j) {
        r[b * K + j] = e.p[b * K + j] & ~q[j];
      }
    }
    e = Entry{r, w};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(AndNot) {
    const Entry rhs = st[--n];
    Entry& e = st[n - 1];
    const unsigned wn = mask_width(ip->imm);
    const unsigned w = e.w < wn ? e.w : wn;
    std::uint64_t* r = region(n - 1);
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* q = row(rhs, b);
      for (unsigned j = 0; j < K; ++j) {
        r[b * K + j] = e.p[b * K + j] & ~q[j];
      }
    }
    e = Entry{r, w};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(MuxNet) {
    const Entry els = net_entry(ip->aux);
    const Entry thn = st[--n];
    Entry& sel = st[n - 1];
    std::uint64_t s[K] = {};
    for (unsigned b = 0; b < sel.w; ++b) {
      for (unsigned j = 0; j < K; ++j) s[j] |= sel.p[b * K + j];
    }
    const unsigned w = thn.w > els.w ? thn.w : els.w;
    std::uint64_t* r = region(n - 1);
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* t = row(thn, b);
      const std::uint64_t* z = row(els, b);
      for (unsigned j = 0; j < K; ++j) {
        r[b * K + j] = (s[j] & t[j]) | (~s[j] & z[j]);
      }
    }
    sel = Entry{r, w};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(EqMux) {
    // The else operand is an Eq whose operands are still on the stack:
    // pop them, fold the compare into the select.  The compare result is
    // accumulated locally before any row of the result is written, so
    // operands may alias the result region.
    const Entry cb = st[--n];
    const Entry ca = st[--n];
    const unsigned cw = ca.w > cb.w ? ca.w : cb.w;
    std::uint64_t eqv[K];
    for (unsigned j = 0; j < K; ++j) eqv[j] = ~std::uint64_t{0};
    for (unsigned b = 0; b < cw; ++b) {
      const std::uint64_t* a = row(ca, b);
      const std::uint64_t* q = row(cb, b);
      for (unsigned j = 0; j < K; ++j) eqv[j] &= ~(a[j] ^ q[j]);
    }
    const Entry thn = st[--n];
    Entry& sel = st[n - 1];
    std::uint64_t s[K] = {};
    for (unsigned b = 0; b < sel.w; ++b) {
      for (unsigned j = 0; j < K; ++j) s[j] |= sel.p[b * K + j];
    }
    // The else (the compare) is 1 wide, so the mux result is
    // max(thn.w, 1) -- thn.w alone would be 0 for a PushConst 0 then.
    const unsigned w = thn.w > 1 ? thn.w : 1;
    std::uint64_t* r = region(n - 1);
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* t = row(thn, b);
      for (unsigned j = 0; j < K; ++j) {
        const std::uint64_t z = b == 0 ? eqv[j] : 0;
        r[b * K + j] = (s[j] & t[j]) | (~s[j] & z);
      }
    }
    sel = Entry{r, w};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(NeMux) {
    const Entry cb = st[--n];
    const Entry ca = st[--n];
    const unsigned cw = ca.w > cb.w ? ca.w : cb.w;
    std::uint64_t eqv[K];
    for (unsigned j = 0; j < K; ++j) eqv[j] = ~std::uint64_t{0};
    for (unsigned b = 0; b < cw; ++b) {
      const std::uint64_t* a = row(ca, b);
      const std::uint64_t* q = row(cb, b);
      for (unsigned j = 0; j < K; ++j) eqv[j] &= ~(a[j] ^ q[j]);
    }
    for (unsigned j = 0; j < K; ++j) eqv[j] = ~eqv[j];
    const Entry thn = st[--n];
    Entry& sel = st[n - 1];
    std::uint64_t s[K] = {};
    for (unsigned b = 0; b < sel.w; ++b) {
      for (unsigned j = 0; j < K; ++j) s[j] |= sel.p[b * K + j];
    }
    const unsigned w = thn.w > 1 ? thn.w : 1;
    std::uint64_t* r = region(n - 1);
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* t = row(thn, b);
      for (unsigned j = 0; j < K; ++j) {
        const std::uint64_t z = b == 0 ? eqv[j] : 0;
        r[b * K + j] = (s[j] & t[j]) | (~s[j] & z);
      }
    }
    sel = Entry{r, w};
  }
  HLCS_BT_NEXT();

  HLCS_BT_OP(MuxStore) {
    // Mux + StoreSlot: the select lands straight in the CSE slot.  Each
    // output row's value is computed before it is stored, so operands
    // borrowed from this very slot (PushSlot) stay safe row by row.
    const Entry els = st[--n];
    const Entry thn = st[--n];
    const Entry sel = st[--n];
    std::uint64_t s[K] = {};
    for (unsigned b = 0; b < sel.w; ++b) {
      for (unsigned j = 0; j < K; ++j) s[j] |= sel.p[b * K + j];
    }
    const unsigned w = thn.w > els.w ? thn.w : els.w;
    std::uint64_t* sp = slots0 + std::size_t{ip->aux} * (kLanes * K);
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t* t = row(thn, b);
      const std::uint64_t* z = row(els, b);
      for (unsigned j = 0; j < K; ++j) {
        sp[b * K + j] = (s[j] & t[j]) | (~s[j] & z[j]);
      }
    }
    slot_w_[ip->aux] = w;
  }
  HLCS_BT_NEXT();

l_done:;
#undef HLCS_BT_OP
#undef HLCS_BT_NEXT

  const Entry res = st[n - 1];
  std::uint64_t* t = planes + std::size_t{plane_off_[target]} * K;
  const unsigned wt = width_[target];
  for (unsigned b = 0; b < wt; ++b) {
    const std::uint64_t* a = row(res, b);
    for (unsigned j = 0; j < K; ++j) t[b * K + j] = a[j];
  }
}

void BatchTape::run_lanes(std::size_t ci, std::uint64_t* planes) {
  const TapeComb& c = tape_.combs()[ci];
  const TapeInsn* ipb = tape_.code().data() + c.begin;
  const TapeInsn* ipe = tape_.code().data() + c.end;
  const NetId* sb = tape_.sources_begin(static_cast<std::uint32_t>(ci));
  const NetId* se = tape_.sources_end(static_cast<std::uint32_t>(ci));
  const unsigned wt = width_[c.target];
  const unsigned K = super_;
  std::uint64_t* res = scalar_res_.data();
  std::fill(res, res + std::size_t{wt} * K, 0);
  const std::size_t all = lanes();
  for (std::size_t lane = 0; lane < all; ++lane) {
    const std::size_t word = lane >> 6;
    const unsigned bit = static_cast<unsigned>(lane & 63);
    // Gather this lane's source values out of the planes, run the
    // ordinary scalar tape, scatter the result bits back.
    for (const NetId* s = sb; s != se; ++s) {
      const std::uint64_t* sp = planes + std::size_t{plane_off_[*s]} * K;
      std::uint64_t v = 0;
      for (unsigned b = 0; b < width_[*s]; ++b) {
        v |= ((sp[b * K + word] >> bit) & 1) << b;
      }
      scalar_nets_[*s] = v;
    }
    const std::uint64_t v = tape_exec(ipb, ipe, scalar_nets_.data(),
                                      scalar_stack_.data(),
                                      scalar_slots_.data());
    for (unsigned b = 0; b < wt; ++b) {
      res[b * K + word] |= ((v >> b) & 1) << bit;
    }
  }
  std::uint64_t* t = planes + std::size_t{plane_off_[c.target]} * K;
  for (std::size_t i = 0; i < std::size_t{wt} * K; ++i) t[i] = res[i];
}

BatchNetlistSim::BatchNetlistSim(const Netlist& nl, unsigned super, bool jit)
    : nl_(nl),
      bt_(nl, super),
      planes_(std::size_t{bt_.total_planes()} * bt_.super(), 0) {
  if (jit && BatchJit::host_supported()) {
    jit_ = std::make_unique<BatchJit>(bt_);
    // Nothing compilable (or no executable pages): fall back wholesale.
    if (!jit_->available()) jit_.reset();
  }
  latch_off_.reserve(nl.regs().size() + 1);
  std::uint32_t off = 0;
  for (const RegDesc& r : nl.regs()) {
    latch_off_.push_back(off);
    off += nl.nets()[r.q].width;
  }
  latch_off_.push_back(off);
  latch_.resize(std::size_t{off} * bt_.super());
  reset_state();
}

void BatchNetlistSim::reset_state() {
  for (const RegDesc& r : nl_.regs()) {
    set_input_broadcast(r.q, r.init);
  }
  settle();
}

void BatchNetlistSim::set_input(NetId n, std::size_t lane, std::uint64_t v) {
  const unsigned K = bt_.super();
  std::uint64_t* p = planes_.data() + std::size_t{bt_.plane_off(n)} * K;
  const unsigned w = nl_.nets()[n].width;
  const std::size_t word = lane >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (lane & 63);
  for (unsigned b = 0; b < w; ++b) {
    // Branchless merge: copy value-bit b into this lane's plane bit.
    std::uint64_t& pw = p[std::size_t{b} * K + word];
    pw ^= (pw ^ (std::uint64_t{0} - ((v >> b) & 1))) & bit;
  }
}

void BatchNetlistSim::set_input_broadcast(NetId n, std::uint64_t v) {
  const unsigned K = bt_.super();
  std::uint64_t* p = planes_.data() + std::size_t{bt_.plane_off(n)} * K;
  const unsigned w = nl_.nets()[n].width;
  for (unsigned b = 0; b < w; ++b) {
    const std::uint64_t row = (v >> b) & 1 ? ~std::uint64_t{0} : 0;
    for (unsigned j = 0; j < K; ++j) p[std::size_t{b} * K + j] = row;
  }
}

std::uint64_t BatchNetlistSim::get(NetId n, std::size_t lane) const {
  const unsigned K = bt_.super();
  const std::uint64_t* p = planes_.data() + std::size_t{bt_.plane_off(n)} * K;
  const unsigned w = nl_.nets()[n].width;
  const std::size_t word = lane >> 6;
  const unsigned bit = static_cast<unsigned>(lane & 63);
  std::uint64_t v = 0;
  for (unsigned b = 0; b < w; ++b) {
    v |= ((p[std::size_t{b} * K + word] >> bit) & 1) << b;
  }
  return v;
}

void BatchNetlistSim::settle() {
  ++stats_.settles;
  if (jit_) {
    jit_->run_all(planes_.data(), stats_);
  } else {
    bt_.run_all(planes_.data(), stats_);
  }
}

void BatchNetlistSim::clock_edge() {
  settle();
  ++stats_.edges;
  const unsigned K = bt_.super();
  const auto& regs = nl_.regs();
  // Two passes so every D is sampled before any Q updates, exactly like
  // the scalar engine's simultaneous latch.
  for (std::size_t i = 0; i < regs.size(); ++i) {
    const std::uint64_t* d =
        planes_.data() + std::size_t{bt_.plane_off(regs[i].d)} * K;
    std::uint64_t* l = latch_.data() + std::size_t{latch_off_[i]} * K;
    const std::size_t words = std::size_t{nl_.nets()[regs[i].q].width} * K;
    for (std::size_t b = 0; b < words; ++b) l[b] = d[b];
  }
  for (std::size_t i = 0; i < regs.size(); ++i) {
    const std::uint64_t* l = latch_.data() + std::size_t{latch_off_[i]} * K;
    std::uint64_t* q =
        planes_.data() + std::size_t{bt_.plane_off(regs[i].q)} * K;
    const std::size_t words = std::size_t{nl_.nets()[regs[i].q].width} * K;
    for (std::size_t b = 0; b < words; ++b) q[b] = l[b];
  }
  settle();
}

// Deterministic sharding: the partition depends only on (lanes, super).
// Full super-wide blocks first; the tail runs at the smallest superlane
// that covers the remaining lanes, so small populations (e.g. the
// classic 64-lane check at super=8) never pay for idle plane words.
std::vector<BatchRunner::Block> BatchRunner::partition(std::size_t lanes,
                                                       unsigned super) {
  if (super != 1 && super != 4 && super != 8) {
    fail("batch engine: superlane factor must be 1, 4 or 8 (got " +
         std::to_string(super) + ")");
  }
  std::vector<Block> blocks;
  std::size_t lane0 = 0;
  while (lane0 < lanes) {
    const std::size_t rem = lanes - lane0;
    unsigned k = 1;
    if (super >= 4 && rem > std::size_t{k} * BatchTape::kLanes) k = 4;
    if (super >= 8 && rem > std::size_t{k} * BatchTape::kLanes) k = 8;
    const std::size_t width = std::size_t{k} * BatchTape::kLanes;
    blocks.push_back(Block{lane0, rem < width ? rem : width, k});
    lane0 += width;
  }
  return blocks;
}

void BatchRunner::run(std::size_t lanes, unsigned threads, unsigned super,
                      const BlockFn& fn) {
  const std::vector<Block> blocks = partition(lanes, super);
  sim::parallel_for_indexed(blocks.size(), threads,
                            [&](std::size_t i) { fn(i, blocks[i]); });
}

}  // namespace hlcs::synth
