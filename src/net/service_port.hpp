// Network endpoint for the stable auxiliary servers (Event Logger,
// checkpoint server, dispatcher): a single-threaded select-loop model with
// one CPU busy-until serializing its work, sending frames directly on the
// fabric (servers do not use the rank daemon).
#pragma once

#include <algorithm>

#include "net/network.hpp"
#include "util/slab.hpp"

namespace mpiv::net {

class ServicePort {
 public:
  ServicePort(Network& net, NodeId node) : net_(net), node_(node) {}

  NodeId node() const { return node_; }
  sim::Engine& engine() { return net_.engine(); }
  const CostModel& cost() const { return net_.cost(); }

  /// Occupies the service CPU for `cpu`, then runs `fn`. FIFO per server.
  void charge_then(sim::Time cpu, std::function<void()> fn) {
    sim::Engine& eng = net_.engine();
    cpu_free_ = std::max(eng.now(), cpu_free_) + cpu;
    eng.at(cpu_free_, std::move(fn));
  }

  /// Sends `m` from this node after `cpu` of service time. The frame parks
  /// in a slab so the scheduled closure stays inline in std::function.
  void send_after(sim::Time cpu, Message&& m) {
    m.src = node_;
    const std::uint32_t slot = parked_.put(std::move(m));
    charge_then(cpu, [this, slot] {
      Message frame = parked_.take(slot);
      frame.wire_bytes =
          net_.cost().header_bytes + frame.payload.bytes + frame.body_bytes();
      net_.send(std::move(frame));
    });
  }

 private:
  Network& net_;
  NodeId node_;
  util::Slab<Message> parked_;
  sim::Time cpu_free_ = 0;
};

}  // namespace mpiv::net
