// Synthesis fuzzing: randomly generated synthesisable objects (random
// state variables, random guarded methods built from random expression
// trees) must survive the complete flow -- validation, synthesis,
// netlist checks, and lock-step equivalence against the interpreter.
// Every seed is deterministic, so a failure here is a reproducible
// counterexample against the synthesiser.
#include <gtest/gtest.h>

#include "hlcs/sim/random.hpp"
#include "hlcs/synth/equiv.hpp"
#include "equiv_replay.hpp"

namespace hlcs::synth {
namespace {

/// Build a random expression over `vars` (widths given) and the args of
/// the method under construction.
ExprId random_expr(ObjectDesc& d, sim::Xorshift& rng,
                   const std::vector<std::pair<std::uint32_t, unsigned>>& vars,
                   const std::vector<ArgDesc>& args, unsigned want_width,
                   int depth) {
  auto& A = d.arena();
  // Leaves.
  if (depth <= 0 || rng.chance(1, 4)) {
    switch (rng.below(3)) {
      case 0:
        return A.cst(rng.next(), want_width);
      case 1: {
        // A variable, width-adjusted.
        auto [idx, w] = vars[rng.below(vars.size())];
        ExprId v = A.var(idx, w);
        if (w == want_width) return v;
        if (w > want_width) return A.slice(v, 0, want_width);
        return A.zext(v, want_width);
      }
      default: {
        if (args.empty()) return A.cst(rng.next(), want_width);
        const std::uint32_t ai =
            static_cast<std::uint32_t>(rng.below(args.size()));
        ExprId a = A.arg(ai, args[ai].width);
        if (args[ai].width == want_width) return a;
        if (args[ai].width > want_width) return A.slice(a, 0, want_width);
        return A.zext(a, want_width);
      }
    }
  }
  // Operators.
  switch (rng.below(8)) {
    case 0:
      return A.bin(ExprOp::Add,
                   random_expr(d, rng, vars, args, want_width, depth - 1),
                   random_expr(d, rng, vars, args, want_width, depth - 1));
    case 1:
      return A.bin(ExprOp::Sub,
                   random_expr(d, rng, vars, args, want_width, depth - 1),
                   random_expr(d, rng, vars, args, want_width, depth - 1));
    case 2:
      return A.bin(ExprOp::Xor,
                   random_expr(d, rng, vars, args, want_width, depth - 1),
                   random_expr(d, rng, vars, args, want_width, depth - 1));
    case 3:
      return A.bin(ExprOp::And,
                   random_expr(d, rng, vars, args, want_width, depth - 1),
                   random_expr(d, rng, vars, args, want_width, depth - 1));
    case 4:
      return A.un(ExprOp::Not,
                  random_expr(d, rng, vars, args, want_width, depth - 1));
    case 5: {
      ExprId sel = A.bin(ExprOp::Eq,
                         random_expr(d, rng, vars, args, 4, depth - 1),
                         random_expr(d, rng, vars, args, 4, depth - 1));
      return A.mux(sel, random_expr(d, rng, vars, args, want_width, depth - 1),
                   random_expr(d, rng, vars, args, want_width, depth - 1));
    }
    case 6: {
      // Comparison zero-extended to the wanted width.
      ExprId c = A.bin(ExprOp::Lt,
                       random_expr(d, rng, vars, args, 8, depth - 1),
                       random_expr(d, rng, vars, args, 8, depth - 1));
      return want_width == 1 ? c : A.zext(c, want_width);
    }
    default:
      return A.bin(ExprOp::Or,
                   random_expr(d, rng, vars, args, want_width, depth - 1),
                   random_expr(d, rng, vars, args, want_width, depth - 1));
  }
}

ObjectDesc random_object(std::uint64_t seed) {
  sim::Xorshift rng(seed);
  ObjectDesc d("fuzz_" + std::to_string(seed));
  const std::size_t n_vars = 1 + rng.below(4);
  std::vector<std::pair<std::uint32_t, unsigned>> vars;
  for (std::size_t v = 0; v < n_vars; ++v) {
    static const unsigned widths[] = {1, 4, 8, 16, 32};
    const unsigned w = widths[rng.below(5)];
    vars.emplace_back(d.add_var("v" + std::to_string(v), w, rng.next()), w);
  }
  const std::size_t n_methods = 1 + rng.below(5);
  for (std::size_t m = 0; m < n_methods; ++m) {
    auto b = d.add_method("m" + std::to_string(m));
    std::vector<ArgDesc> args;
    const std::size_t n_args = rng.below(3);
    for (std::size_t a = 0; a < n_args; ++a) {
      static const unsigned widths[] = {1, 8, 16};
      const unsigned w = widths[rng.below(3)];
      b.arg("a" + std::to_string(a), w);
      args.push_back(ArgDesc{"a" + std::to_string(a), w});
    }
    // Guards must not be uniformly false or the object deadlocks; bias
    // toward "some variable bit" style guards half the time, none the
    // other half.
    if (rng.chance(1, 2)) {
      auto [idx, w] = vars[rng.below(vars.size())];
      ExprId v = d.arena().var(idx, w);
      ExprId bit = w == 1 ? v : d.arena().slice(v, 0, 1);
      if (rng.chance(1, 2)) bit = d.arena().un(ExprOp::Not, bit);
      b.guard(bit);
    }
    // Assign a random subset of variables.
    for (std::size_t v = 0; v < n_vars; ++v) {
      if (!rng.chance(1, 2)) continue;
      b.assign(vars[v].first,
               random_expr(d, rng, vars, args, vars[v].second, 3));
    }
    if (rng.chance(1, 2)) {
      const unsigned rw = vars[rng.below(vars.size())].second;
      b.returns(random_expr(d, rng, vars, args, rw, 3), rw);
    }
  }
  return d;
}

class SynthFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SynthFuzz, RandomObjectSurvivesFullFlow) {
  const std::uint64_t seed = GetParam();
  ObjectDesc d = random_object(seed);
  ASSERT_NO_THROW(d.validate()) << "generator produced invalid object";
  for (auto policy : {osss::PolicyKind::StaticPriority,
                      osss::PolicyKind::Fifo, osss::PolicyKind::Adaptive}) {
    // Four independently seeded stimulus lanes: 4x the coverage per
    // seed.  A failure names the failing lane's root seed -- replayed
    // standalone by feeding it back as the seed of a single-lane run.
    EquivResult r = check_equivalence(
        d, SynthOptions{.clients = 2, .policy = policy},
        EquivOptions{.cycles = 300, .seed = seed ^ 0xF00D,
                     .reset_percent = 3, .lanes = 4});
    EXPECT_TRUE(r) << "seed " << seed << " policy "
                   << osss::policy_name(policy) << ": " << r.first_mismatch
                   << " [replay: seed 0x" << std::hex << r.first_bad_seed
                   << ", lanes=1]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthFuzz,
                         ::testing::Range<std::uint64_t>(1, 26));

TEST(SynthFuzzBatch, BatchAndScalarBackendsAgreeOnFuzzObjects) {
  // Same objects, full-result identity: a 64-lane check against its
  // one-lane replays.  Fuzz objects are arithmetic-heavy (Add/Sub/Mul/
  // compare combs, which the JIT partly deopts), and no difference may
  // leak into verdicts, grants or recorded vectors.
  for (std::uint64_t seed : {3u, 11u, 19u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ObjectDesc d = random_object(seed);
    const SynthOptions opt{.clients = 2, .policy = osss::PolicyKind::Fifo};
    expect_matches_replays(d, opt,
                           EquivOptions{.cycles = 200,
                                        .seed = seed * 0xABC,
                                        .reset_percent = 3,
                                        .lanes = 64});
  }
}

}  // namespace
}  // namespace hlcs::synth
