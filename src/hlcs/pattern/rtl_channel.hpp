// RtlChannel: a synthesised netlist co-simulated inside the kernel as
// the communication fabric between behavioural modules -- the "Model
// implementation" of the paper's Figure 2, where the communication part
// of the design has been replaced by its RT-level synthesis result while
// the surrounding modules stay behavioural.
//
// Each behavioural client holds a Port.  A call drives the client's
// req/sel/args pins; on every rising edge the channel feeds all pins into
// the netlist, reads the combinational grant/ret (pre-latch, exactly
// what the hardware client FSM would sample), latches the edge, and
// resumes granted callers.  Like a hardware client FSM, a Port's request
// deasserts in the grant cycle, so a call executes exactly once.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hlcs/sim/clock.hpp"
#include "hlcs/sim/module.hpp"
#include "hlcs/synth/comm_synth.hpp"
#include "hlcs/synth/rtl_sim.hpp"

namespace hlcs::pattern {

class RtlChannel : public sim::Module {
  struct ClientState {
    /// The client's port nets, resolved once by make_port().
    synth::NetId req_net, sel_net, args_net, grant_net, ret_net;
    bool req = false;
    std::uint64_t sel = 0;
    std::uint64_t args = 0;
    std::uint64_t ret = 0;
    std::coroutine_handle<> waiter{};
    std::uint64_t waited_cycles = 0;
  };

public:
  /// `netlist` must outlive the channel; it must have been synthesised
  /// with at least as many clients as ports created (make_port() throws
  /// "no net named ..." otherwise).
  RtlChannel(sim::Kernel& k, std::string name, const synth::Netlist& netlist,
             sim::Clock& clk)
      : Module(k, std::move(name)), rtl_(netlist) {
    rtl_.set_input("rst", 0);
    sim::MethodProcess& m =
        method("edge", [this] { on_edge(); }, /*initial_trigger=*/false);
    clk.posedge().add_static(m);
  }

  class Port {
  public:
    Port() = default;

    /// Awaitable guarded-method call through the synthesised object:
    /// suspends until the hardware grants it; returns the ret-port value.
    struct CallAwaiter {
      RtlChannel* chan;
      std::size_t client;
      std::uint64_t sel;
      std::uint64_t args;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        ClientState& cs = *chan->clients_[client];
        HLCS_ASSERT(!cs.req, "RtlChannel: port already has a call in flight");
        cs.req = true;
        cs.sel = sel;
        cs.args = args;
        cs.waited_cycles = 0;
        cs.waiter = h;
      }
      std::uint64_t await_resume() const {
        return chan->clients_[client]->ret;
      }
    };

    CallAwaiter call(std::size_t method_index, std::uint64_t args = 0) const {
      HLCS_ASSERT(chan_ != nullptr, "call through unconnected RtlChannel::Port");
      return CallAwaiter{chan_, client_, method_index, args};
    }

    bool connected() const { return chan_ != nullptr; }

  private:
    friend class RtlChannel;
    Port(RtlChannel* c, std::size_t id) : chan_(c), client_(id) {}
    RtlChannel* chan_ = nullptr;
    std::size_t client_ = 0;
  };

  Port make_port() {
    const std::size_t c = clients_.size();
    const synth::Netlist& nl = rtl_.netlist();
    clients_.push_back(std::make_unique<ClientState>(ClientState{
        nl.find(synth::req_port(c)), nl.find(synth::sel_port(c)),
        nl.find(synth::args_port(c)), nl.find(synth::grant_port(c)),
        nl.find(synth::ret_port(c))}));
    return Port(this, c);
  }

  synth::NetlistSim& netlist_sim() { return rtl_; }
  std::uint64_t grants() const { return grants_; }
  std::uint64_t edges() const { return edges_; }

  /// Peek a synthesised state variable by net name ("var_<name>").
  std::uint64_t state(const std::string& var_net) const {
    return rtl_.get(var_net);
  }

private:
  void on_edge() {
    ++edges_;
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      ClientState& cs = *clients_[c];
      rtl_.set_input(cs.req_net, cs.req ? 1 : 0);
      rtl_.set_input(cs.sel_net, cs.sel);
      rtl_.set_input(cs.args_net, cs.args);
    }
    rtl_.settle();
    // Capture combinational grant/ret before latching -- the values a
    // hardware client samples on this edge.  The grant list is a
    // persistent scratch buffer so the per-edge hot path never
    // allocates.
    granted_.clear();
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      ClientState& cs = *clients_[c];
      if (!cs.req) continue;
      if (rtl_.get(cs.grant_net) != 0) {
        cs.ret = rtl_.get(cs.ret_net);
        granted_.push_back(c);
      } else {
        cs.waited_cycles++;
      }
    }
    rtl_.clock_edge();
    for (std::size_t c : granted_) {
      ClientState& cs = *clients_[c];
      cs.req = false;  // the client FSM deasserts on grant
      ++grants_;
      if (cs.waiter) {
        auto h = cs.waiter;
        cs.waiter = nullptr;
        kernel().make_runnable(h);
      }
    }
  }

  synth::NetlistSim rtl_;
  std::vector<std::size_t> granted_;  ///< per-edge scratch (no allocation)
  std::vector<std::unique_ptr<ClientState>> clients_;
  std::uint64_t grants_ = 0;
  std::uint64_t edges_ = 0;
};

}  // namespace hlcs::pattern
