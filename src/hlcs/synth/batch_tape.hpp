// Superlane bit-parallel evaluation of TapeProgram bytecode.
//
// The scalar engine (rtl_sim.hpp) holds every net in one packed uint64
// and evaluates one stimulus vector at a time, leaving 63/64ths of each
// machine word idle for 1-bit nets.  BatchTape transposes that layout:
// every net becomes `width` bit-plane *rows*, each row K consecutive
// uint64 words (a superlane) whose bit 64*j + L is that net-bit's value
// in lane 64*j + L.  One tape instruction over rows then advances
// K x 64 independent simulations at once -- classic bit-parallel gate
// simulation, applied to the existing bytecode.  K is a runtime choice
// from {1, 4, 8} (64 / 256 / 512 lanes per instruction); the inner
// loops carry K as a compile-time constant so the compiler unrolls a
// row op into K plain word ops.  cpu_superlanes() reports the widest K
// the host's vector units back natively, the width the interpreter runs
// at when there is no JIT (hlcs/synth/jit.hpp runs K = 1 natively).
//
// The per-instruction dispatch itself is direct-threaded through the
// GNU computed-goto extension (one indirect branch per handler, giving
// the predictor one BTB entry per opcode *pair* instead of a single
// shared switch branch).  On top of that, tape compilation runs a
// superinstruction fusion pass:
// the hottest adjacent pairs/triples in synthesized arbitration tapes
// (push-net feeding a bitwise op, And over a negated net, a compare
// feeding a Mux, a Mux feeding a CSE-slot store) are peepholed into
// single fused handlers, so the common gate shapes cost one dispatch
// instead of two or three.  Fusion is observable: BatchTape reports
// per-opcode compile-time hit counts and BatchStats counts executed
// fused superinstructions.
//
// Ops with per-bit semantics run on rows directly, and Add/Sub/Neg plus
// the ordered comparisons run as K*64-lane ripple carry/borrow chains.
// Combs containing Mul or the data-dependent shifts (Shl/Shr) -- where
// the cross-bit structure depends on lane values -- fall back to
// per-lane scalar evaluation of the SAME tape segment, so every verdict
// stays bit-identical to the scalar engine no matter how a comb is
// classified.  Classification is per-comb and static; BatchStats
// reports the fallback fraction and instruction counts.
//
// BatchNetlistSim stacks the sequential layer on top: K*64 independent
// register files latched together through clock_edge()/settle(), with
// the same reset semantics as NetlistSim.  BatchRunner shards lane
// populations into superlane blocks across the ParallelSweep worker
// pool (results indexed by block, bit-identical at any thread count,
// lane count, or superlane width).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hlcs/synth/jit.hpp"
#include "hlcs/synth/netlist.hpp"
#include "hlcs/synth/tape.hpp"

namespace hlcs::synth {

/// Widest superlane factor K the host CPU's vector units execute as
/// single instructions: 8 with AVX-512, 4 with AVX2, else 1.  Every K
/// is correct on every host (the row loops compile portably); this only
/// picks the default that amortizes dispatch best without wasting plane
/// work on lanes the hardware cannot stream.
unsigned cpu_superlanes();

/// Batch-engine opcodes: the scalar TapeOps that can run on bit-plane
/// rows, plus the fused superinstructions the peephole pass emits.
/// Mul/Shl/Shr never appear (combs containing them take the scalar
/// fallback and keep their original tape segment).
enum class BOp : std::uint8_t {
  PushConst,
  PushNet,
  PushSlot,
  StoreSlot,
  Not,
  Neg,
  RedOr,
  RedAnd,
  Slice,
  Add,
  Sub,
  And,
  Or,
  Xor,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  Concat,
  Mux,
  // --- fused superinstructions (see BatchTape::fusion_hits) ---------
  AndNet,     ///< PushNet + And:        tos &= net
  OrNet,      ///< PushNet + Or
  XorNet,     ///< PushNet + Xor
  NotNet,     ///< PushNet + Not:        push ~net (masked)
  AndNotNet,  ///< PushNet + Not + And:  tos &= ~net  (priority chains)
  AndNot,     ///< Not + And:            tos &= ~pop  (general operand)
  MuxNet,     ///< PushNet + Mux:        else operand straight from a net
  EqMux,      ///< Eq + Mux:             else operand is a comparison
  NeMux,      ///< Ne + Mux
  MuxStore,   ///< Mux + StoreSlot:      mux written into the CSE slot
  kCount,
};

constexpr std::size_t kFirstFusedBOp = static_cast<std::size_t>(BOp::AndNet);
constexpr std::size_t kNumBOps = static_cast<std::size_t>(BOp::kCount);

/// One batch-engine instruction.  Fused ops reuse the same two operand
/// fields: `aux` is a net, slot or lsb; `imm` is the relevant mask.
struct BatchInsn {
  BOp op;
  std::uint32_t aux = 0;
  std::uint64_t imm = 0;
};

/// Observability counters for the batch engine, mirroring NetlistStats.
/// One "comb evaluation" here advances all lanes() of that comb.
struct BatchStats {
  std::uint64_t settles = 0;             ///< settle() calls
  std::uint64_t edges = 0;               ///< clock_edge() calls
  std::uint64_t combs_evaluated = 0;     ///< comb evaluations (all lanes each)
  std::uint64_t combs_bit_parallel = 0;  ///< evaluated on bit-plane rows
  std::uint64_t combs_scalar = 0;        ///< evaluated via per-lane fallback
  std::uint64_t scalar_lane_evals = 0;   ///< lanes() x combs_scalar
  std::uint64_t plane_instructions = 0;  ///< bit-parallel batch insns executed
  std::uint64_t fused_ops = 0;           ///< fused superinstructions executed
  std::uint64_t scalar_ops = 0;  ///< scalar tape insns executed in fallback

  /// Fraction of comb evaluations that took the scalar fallback.
  double scalar_fraction() const {
    return combs_evaluated == 0
               ? 0.0
               : static_cast<double>(combs_scalar) /
                     static_cast<double>(combs_evaluated);
  }

  BatchStats& operator+=(const BatchStats& o) {
    settles += o.settles;
    edges += o.edges;
    combs_evaluated += o.combs_evaluated;
    combs_bit_parallel += o.combs_bit_parallel;
    combs_scalar += o.combs_scalar;
    scalar_lane_evals += o.scalar_lane_evals;
    plane_instructions += o.plane_instructions;
    fused_ops += o.fused_ops;
    scalar_ops += o.scalar_ops;
    return *this;
  }

  friend bool operator==(const BatchStats&, const BatchStats&) = default;
};

/// Lane-transposed evaluator for a compiled TapeProgram.  Owns the
/// per-comb bit-parallel/scalar classification, the fused batch
/// instruction stream, and the evaluation scratch; the caller owns the
/// plane array (see BatchNetlistSim).
class BatchTape {
public:
  /// Lanes per machine word; one superlane is `super()` words.
  static constexpr std::size_t kLanes = 64;
  static constexpr unsigned kMaxSuper = 8;

  /// `super` must be 1, 4 or 8.
  explicit BatchTape(const Netlist& nl, unsigned super = 1);

  const TapeProgram& program() const { return tape_; }
  unsigned super() const { return super_; }
  /// Simulations advanced per instruction: super() * 64.
  std::size_t lanes() const { return std::size_t{super_} * kLanes; }
  /// First row of net n; the row's words start at row * super() inside
  /// the caller's plane array.
  std::uint32_t plane_off(NetId n) const { return plane_off_[n]; }
  /// Total rows across all nets; the plane array holds
  /// total_planes() * super() words.
  std::uint32_t total_planes() const { return plane_off_.back(); }
  bool comb_bit_parallel(std::size_t ci) const { return bcombs_[ci].parallel; }
  /// Static classification: combs that will take the scalar fallback.
  std::size_t scalar_combs() const { return scalar_combs_; }
  /// Fused superinstructions in the compiled batch stream (static).
  std::uint64_t fused_insns() const { return fused_total_; }
  /// Compile-time fusion hits per fused opcode, for the stats report.
  std::vector<std::pair<std::string, std::uint64_t>> fusion_hits() const;

  /// Evaluate every comb in topological order (one full settle's worth
  /// of work) over `planes`.  Not thread-safe per instance (uses
  /// internal scratch); give each thread its own BatchTape /
  /// BatchNetlistSim.
  void run_all(std::uint64_t* planes, BatchStats& stats);

private:
  /// The batch JIT (hlcs/synth/jit.hpp) compiles against this tape's
  /// plane layout and routes its per-comb deopts back through
  /// run_comb(), so it needs the classification internals.
  friend class BatchJit;

  /// A parallel comb's fused instruction range, or the marker for the
  /// scalar fallback.
  struct BComb {
    std::uint32_t begin = 0;  ///< [begin, end) into bcode_
    std::uint32_t end = 0;
    std::uint32_t fused = 0;  ///< fused superinstructions in the range
    bool parallel = false;
  };

  template <unsigned K>
  void run_combs(std::uint64_t* planes);
  /// Evaluate a single comb through the interpreter (plane or scalar
  /// path per its classification) -- the JIT's per-comb deopt entry.
  void run_comb(std::size_t ci, std::uint64_t* planes);
  template <unsigned K>
  void run_planes(const BComb& bc, NetId target, std::uint64_t* planes);
  void run_lanes(std::size_t ci, std::uint64_t* planes);
  void fuse_comb(const TapeInsn* ip, const TapeInsn* end, BComb& bc);

  /// A plane-stack entry: `p` points either at a net's rows (borrowed)
  /// or at this entry's own fixed 64-row region in stack_planes_.
  /// Rows at index >= w read as an all-zero row (values are stored
  /// masked, so a missing high row is always all-zero).
  struct Entry {
    const std::uint64_t* p;
    unsigned w;
  };

  TapeProgram tape_;
  unsigned super_;
  std::vector<std::uint32_t> plane_off_;  ///< size nets()+1, in rows
  std::vector<unsigned> width_;           ///< net widths
  std::vector<BatchInsn> bcode_;          ///< fused batch stream
  std::vector<BComb> bcombs_;             ///< per comb (topo index)
  std::size_t scalar_combs_ = 0;
  std::array<std::uint64_t, kNumBOps> fusion_hits_{};  ///< compile-time
  std::uint64_t fused_total_ = 0;
  // Per-settle stat increments, precomputed (run_all always evaluates
  // every comb, so these are constants of the tape).
  std::uint64_t plane_insns_per_settle_ = 0;
  std::uint64_t fused_per_settle_ = 0;
  std::uint64_t scalar_insns_per_lane_ = 0;

  // Bit-parallel scratch: one fixed 64-row region per stack slot / CSE
  // slot, so entries never alias each other.
  std::vector<Entry> entries_;
  std::vector<std::uint64_t> stack_planes_;  ///< max_stack x 64 x super
  std::vector<std::uint64_t> slot_planes_;   ///< max_slots x 64 x super
  std::vector<unsigned> slot_w_;

  // Scalar-fallback scratch: per-lane gather/exec buffers.
  std::vector<std::uint64_t> scalar_nets_;  ///< size nets(), sources filled
  std::vector<std::uint64_t> scalar_stack_;
  std::vector<std::uint64_t> scalar_slots_;
  std::vector<std::uint64_t> scalar_res_;  ///< result rows, 64 x super
};

/// K*64 independent netlist simulations stepped in lock step: one
/// shared combinational tape over bit-plane rows, K*64 register files
/// latched together.  The API mirrors NetlistSim with an extra lane
/// index; settle() evaluates the full tape (the batch engine's win is
/// lane parallelism, not sparsity).  Not movable: the BatchJit holds a
/// reference to bt_.
class BatchNetlistSim {
public:
  static constexpr std::size_t kLanes = BatchTape::kLanes;

  /// `super` must be 1, 4 or 8.  With
  /// `jit = true` the comb tape runs as native code (hlcs/synth/jit.hpp)
  /// where the host supports it and super is 1; the flag is a silent
  /// no-op otherwise, so callers can request the JIT unconditionally.
  explicit BatchNetlistSim(const Netlist& nl, unsigned super = 1,
                           bool jit = false);
  BatchNetlistSim(const BatchNetlistSim&) = delete;
  BatchNetlistSim& operator=(const BatchNetlistSim&) = delete;

  unsigned super() const { return bt_.super(); }
  /// Non-null when settles run through the native batch JIT.
  const JitStats* jit_stats() const { return jit_ ? &jit_->stats() : nullptr; }
  /// Independent simulations carried by this instance: super() * 64.
  std::size_t lanes() const { return bt_.lanes(); }

  /// Latch every register's initial value (all lanes) and settle.
  void reset_state();

  void set_input(NetId n, std::size_t lane, std::uint64_t v);
  void set_input(const std::string& name, std::size_t lane, std::uint64_t v) {
    set_input(nl_.find(name), lane, v);
  }
  /// Same value into every lane.
  void set_input_broadcast(NetId n, std::uint64_t v);

  std::uint64_t get(NetId n, std::size_t lane) const;
  std::uint64_t get(const std::string& name, std::size_t lane) const {
    return get(nl_.find(name), lane);
  }
  /// One bit of net n across 64 lanes (bit L = lane 64*word + L).
  std::uint64_t plane(NetId n, unsigned bit, unsigned word = 0) const {
    return planes_[(bt_.plane_off(n) + bit) * bt_.super() + word];
  }

  /// Evaluate every comb in topological order, all lanes at once.
  void settle();
  /// One rising clock edge: settle, latch all registers (all lanes)
  /// simultaneously, settle again.
  void clock_edge();

  const Netlist& netlist() const { return nl_; }
  const BatchTape& tape() const { return bt_; }
  const BatchStats& stats() const { return stats_; }
  void reset_stats() { stats_ = BatchStats{}; }

private:
  const Netlist& nl_;
  BatchTape bt_;
  std::unique_ptr<BatchJit> jit_;  ///< null = interpreter settles
  std::vector<std::uint64_t> planes_;
  std::vector<std::uint64_t> latch_;      ///< register-D row scratch
  std::vector<std::uint32_t> latch_off_;  ///< per reg, into latch_ (rows)
  BatchStats stats_;
};

/// Shards a lane population into superlane blocks over the same
/// dynamic-claiming worker pool ParallelSweep uses.  The partition
/// depends only on (lanes, super) -- full `super`-wide blocks first,
/// then one tail block using the smallest superlane that covers the
/// remainder -- and callers store results by block index, so outcomes
/// are bit-identical at any thread count.
class BatchRunner {
public:
  struct Block {
    std::size_t lane0;  ///< first lane of the block
    std::size_t lanes;  ///< active lanes in the block (<= super * 64)
    unsigned super;     ///< superlane factor the block should run at
  };

  /// fn(block_index, block); blocks may run concurrently, each on its
  /// own worker.  threads == 0 picks hardware concurrency, threads == 1
  /// runs serially on the calling thread.
  using BlockFn = std::function<void(std::size_t, const Block&)>;

  static std::vector<Block> partition(std::size_t lanes, unsigned super);

  static std::size_t block_count(std::size_t lanes, unsigned super = 1) {
    return partition(lanes, super).size();
  }

  static void run(std::size_t lanes, unsigned threads, unsigned super,
                  const BlockFn& fn);
};

}  // namespace hlcs::synth
