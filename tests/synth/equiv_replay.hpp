// Block sharding and merging in check_equivalence: an N-lane check (its
// lanes cut into 64-lane blocks, merged in lane order) against N
// one-lane replays.  Lane i of root seed S replays standalone as a
// one-lane run rooted at sim::lane_root(S, i).
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hlcs/sim/random.hpp"
#include "hlcs/synth/equiv.hpp"

namespace hlcs::synth {

inline void expect_same_vectors(const std::vector<EquivVector>& a,
                                const std::vector<EquivVector>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const EquivVector& va = a[i];
    const EquivVector& vb = b[i];
    ASSERT_EQ(va.rst, vb.rst) << "vector " << i;
    ASSERT_EQ(va.grant, vb.grant) << "vector " << i;
    ASSERT_EQ(va.ret, vb.ret) << "vector " << i;
    ASSERT_EQ(va.vars, vb.vars) << "vector " << i;
    ASSERT_EQ(va.in.size(), vb.in.size()) << "vector " << i;
    for (std::size_t c = 0; c < va.in.size(); ++c) {
      ASSERT_EQ(va.in[c].req, vb.in[c].req) << "vector " << i;
      ASSERT_EQ(va.in[c].sel, vb.in[c].sel) << "vector " << i;
      ASSERT_EQ(va.in[c].args, vb.in[c].args) << "vector " << i;
    }
  }
}

/// The mismatch text after its "lane L (seed S): " prefix.
inline std::string mismatch_body(const std::string& m) {
  const std::size_t at = m.find("): ");
  return at == std::string::npos ? m : m.substr(at + 3);
}

/// Run `eopt` as one check of `nl`, then each of its lanes as a one-lane
/// replay, and require the same verdict, grants, recorded vectors and
/// first failing lane (with its seed and mismatch).  Returns the N-lane
/// result.
inline EquivResult expect_matches_replays(const ObjectDesc& d,
                                          const SynthOptions& opt,
                                          const Netlist& nl,
                                          const EquivOptions& eopt) {
  const EquivResult all = check_equivalence(d, opt, nl, eopt);
  EXPECT_EQ(all.lanes, eopt.lanes);
  EXPECT_EQ(all.cycles, eopt.cycles * eopt.lanes);
  std::size_t grants = 0;
  bool equal = true;
  for (std::size_t lane = 0; lane < eopt.lanes; ++lane) {
    EquivOptions one = eopt;
    one.seed = sim::lane_root(eopt.seed, lane);
    one.lanes = 1;
    const EquivResult r = check_equivalence(d, opt, nl, one);
    grants += r.grants;
    if (lane == 0 && all.equal) expect_same_vectors(all.vectors, r.vectors);
    if (r.equal || !equal) continue;
    equal = false;
    EXPECT_EQ(all.first_bad_lane, lane);
    EXPECT_EQ(all.first_bad_seed, one.seed);
    EXPECT_EQ(mismatch_body(all.first_mismatch),
              mismatch_body(r.first_mismatch));
    expect_same_vectors(all.vectors, r.vectors);
  }
  EXPECT_EQ(all.equal, equal) << all.first_mismatch;
  EXPECT_EQ(all.grants, grants);
  return all;
}

inline EquivResult expect_matches_replays(const ObjectDesc& d,
                                          const SynthOptions& opt,
                                          const EquivOptions& eopt) {
  return expect_matches_replays(d, opt, synthesize(d, opt), eopt);
}

}  // namespace hlcs::synth
