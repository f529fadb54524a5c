// RTL netlist: the synthesiser's output.  Nets carry unsigned values of
// 1..64 bits; combinational nets are driven by expressions over other
// nets (Var leaves index nets here), registers latch their D net on the
// rising clock edge.  An implicit synchronous active-high reset restores
// register initial values.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "hlcs/synth/expr.hpp"

namespace hlcs::synth {

using NetId = std::uint32_t;
inline constexpr NetId kNoNet = ~NetId{0};

struct Net {
  std::string name;
  unsigned width;
};

struct CombAssign {
  NetId target;
  ExprId value;
};

struct RegDesc {
  NetId q;
  NetId d;
  std::uint64_t init;
};

class Netlist {
public:
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  ExprArena& arena() { return arena_; }
  const ExprArena& arena() const { return arena_; }

  NetId add_net(std::string net_name, unsigned width) {
    if (width < 1 || width > 64) {
      throw SynthesisError(name_ + ": net '" + net_name + "' is " +
                           std::to_string(width) +
                           " bits wide; nets are limited to 1..64 bits (the "
                           "simulation engines store values in 64-bit "
                           "words)");
    }
    const NetId id = static_cast<NetId>(nets_.size());
    if (!index_.emplace(net_name, id).second) {
      throw SynthesisError(name_ + ": duplicate net name '" + net_name + "'");
    }
    nets_.push_back(Net{std::move(net_name), width});
    return id;
  }
  void mark_input(NetId n) { inputs_.push_back(check(n)); }
  void mark_output(NetId n) { outputs_.push_back(check(n)); }

  /// Reference a net in an expression.
  ExprId net_ref(NetId n) {
    check(n);
    return arena_.var(n, nets_[n].width);
  }

  void add_comb(NetId target, ExprId value) {
    check(target);
    HLCS_ASSERT(arena_.at(value).width == nets_[target].width,
                "comb assign width mismatch on net " + nets_[target].name);
    combs_.push_back(CombAssign{target, value});
  }

  void add_reg(NetId q, NetId d, std::uint64_t init) {
    check(q);
    check(d);
    HLCS_ASSERT(nets_[q].width == nets_[d].width, "register width mismatch");
    regs_.push_back(RegDesc{q, d, init & ExprArena::mask(nets_[q].width)});
  }

  const std::vector<Net>& nets() const { return nets_; }
  const std::vector<NetId>& inputs() const { return inputs_; }
  const std::vector<NetId>& outputs() const { return outputs_; }
  const std::vector<CombAssign>& combs() const { return combs_; }
  const std::vector<RegDesc>& regs() const { return regs_; }

  NetId find(const std::string& net_name) const {
    auto it = index_.find(net_name);
    if (it == index_.end()) fail("Netlist: no net named " + net_name);
    return it->second;
  }

  /// Checks the netlist is well-formed: every net driven exactly once
  /// (inputs are driven externally), no combinational cycles.  Returns
  /// the topological evaluation order of the comb assigns.
  std::vector<std::size_t> validate_and_order() const;

private:
  NetId check(NetId n) const {
    HLCS_ASSERT(n < nets_.size(), "bad NetId");
    return n;
  }

  std::string name_;
  ExprArena arena_;
  std::unordered_map<std::string, NetId> index_;  ///< name -> NetId
  std::vector<Net> nets_;
  std::vector<NetId> inputs_;
  std::vector<NetId> outputs_;
  std::vector<CombAssign> combs_;
  std::vector<RegDesc> regs_;
};

}  // namespace hlcs::synth
