// The V-protocol hook interface (the "fault tolerance API" of MPICH-V).
//
// The generic rank runtime (src/mpi) calls these hooks at the relevant
// points of the message path, exactly as the paper describes for the ch_v
// channel: every fault-tolerance protocol — Vdummy, the causal family,
// pessimistic logging, coordinated checkpointing — is an implementation of
// this interface, so all protocols share the same framework overheads and
// can be compared fairly.
#pragma once

#include <cstdint>
#include <vector>

#include "ftapi/determinant.hpp"
#include "ftapi/services.hpp"
#include "net/message.hpp"
#include "sim/task.hpp"
#include "util/buffer.hpp"

namespace mpiv::ftapi {

/// Runtime checkpoint operations exposed to protocols at checkpoint sites.
class ICheckpointOps {
 public:
  virtual ~ICheckpointOps() = default;
  /// True if the checkpoint scheduler asked this rank to checkpoint.
  virtual bool checkpoint_requested() const = 0;
  virtual void clear_checkpoint_request() = 0;
  /// Assembles the full image (app state + matching state + protocol state),
  /// stores it on the checkpoint server (blocking transaction) and
  /// broadcasts the sender-log GC notice to peers and the Event Logger.
  /// `version` tags the image (0 = auto-increment; coordinated waves pass
  /// the wave number so a global rollback can name a consistent snapshot).
  virtual sim::Task<void> store_checkpoint(const util::Buffer& app_state,
                                           std::uint64_t version) = 0;
};

struct PiggybackOut {
  util::Buffer bytes;       // protocol bytes appended to the message body
  // Simulated size of `bytes` on the wire (net::Message::sim_body_bytes):
  // what every byte probe and the fabric count.
  std::uint64_t sim_bytes = 0;
  sim::Time cpu = 0;        // total cost charged to the sender
  // The causality-management part of `cpu` (strategy selection +
  // serialization), the quantity the paper's Fig. 8 reports — excludes
  // payload copies and generic logging bookkeeping.
  sim::Time stats_cpu = 0;
  std::uint64_t events = 0; // events piggybacked (Fig. 7 probe)
  // Cross-edge targets of the piggybacked events, in piggyback order, one
  // Determinant::dep_word() each (simulator-side shadow; see
  // net::Message::dep_shadow).
  std::vector<std::uint64_t> deps;
};

class VProtocol {
 public:
  virtual ~VProtocol() = default;
  virtual const char* name() const = 0;
  /// Message-logging protocols replay receptions after a crash; coordinated
  /// checkpointing rolls everyone back instead.
  virtual bool is_message_logging() const { return false; }
  /// Events currently held for piggybacking (not yet EL-stable / pruned) —
  /// the metrics sampler's per-rank causality-footprint probe. Protocols
  /// without a piggyback set report 0.
  virtual std::size_t pb_set_size() const { return 0; }

  virtual void bind(const RankServices& svc) { svc_ = svc; }

  // --- fault-free path -----------------------------------------------------
  /// Awaited before every app send (pessimistic logging blocks here until
  /// its events are stable; everyone else passes through).
  virtual sim::Task<void> send_gate() { co_return; }
  /// An app message is leaving: log the payload (sender-based logging) and
  /// build the causal piggyback for `dst_rank`.
  virtual PiggybackOut on_send(int dst_rank, std::uint64_t ssn,
                               const net::Payload& payload, std::int32_t tag) {
    (void)dst_rank; (void)ssn; (void)payload; (void)tag;
    return {};
  }
  struct PacketCost {
    sim::Time cpu = 0;        // total cost charged on the receive path
    sim::Time stats_cpu = 0;  // causality-management part (Fig. 8 probe)
  };
  /// An app packet arrived (before matching): absorb its piggyback.
  virtual PacketCost on_packet(net::Message& m) {
    (void)m;
    return {};
  }
  /// A reception event was created at matching time.
  virtual sim::Time on_deliver(const Determinant& d) {
    (void)d;
    return 0;
  }
  /// Control frames addressed to the protocol (Event Logger acks, recovery
  /// requests/responses, coordinated-checkpoint markers, GC notices).
  virtual void on_ctl(net::Message&& m) { (void)m; }

  // --- checkpoint ------------------------------------------------------------
  /// Called at every application checkpoint site. The default takes an
  /// uncoordinated checkpoint if the scheduler requested one; coordinated
  /// checkpointing overrides this with its marker flush wave.
  virtual sim::Task<void> at_checkpoint_site(ICheckpointOps& ops,
                                             const util::Buffer& app_state) {
    if (ops.checkpoint_requested()) {
      ops.clear_checkpoint_request();
      co_await ops.store_checkpoint(app_state, 0);
    }
  }
  /// Protocol state carried inside the checkpoint image.
  virtual void serialize(util::Buffer& b) const { (void)b; }
  virtual void restore(util::Buffer& b) { (void)b; }
  /// Called on the new incarnation after a crash, before restore().
  virtual void reset() {}

  // --- recovery --------------------------------------------------------------
  /// Restarting rank: collect every determinant of this rank with
  /// seq > `already_rsn` (receptions after the checkpoint) and trigger
  /// payload resends from survivors. `arr_watermarks[s]` is the restored
  /// per-sender arrival watermark (survivors resend logged payloads above
  /// it). The protocol attaches its own restored-knowledge vector to the
  /// requests so survivors can clamp their beliefs (docs/DESIGN.md §4).
  virtual sim::Task<DeterminantList> recover(
      std::uint64_t already_rsn,
      const std::vector<std::uint64_t>& arr_watermarks) {
    (void)already_rsn; (void)arr_watermarks;
    co_return DeterminantList{};
  }
  /// Survivor side: receiver `peer` checkpointed; all messages whose
  /// arrival ssn on channel (this rank -> peer) is <= `arr_ssn` may be
  /// garbage-collected from the sender-based payload log.
  virtual void on_peer_checkpoint(int peer, std::uint64_t arr_ssn) {
    (void)peer; (void)arr_ssn;
  }

 protected:
  RankServices svc_{};
};

/// Vdummy: the trivial implementation of the hooks — no fault tolerance.
/// Running it measures the raw cost of the generic MPICH-V framework
/// itself (Fig. 6a: P4 vs Vdummy).
class Vdummy final : public VProtocol {
 public:
  const char* name() const override { return "Vdummy"; }
};

}  // namespace mpiv::ftapi
