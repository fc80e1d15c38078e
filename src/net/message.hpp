// Wire messages exchanged between simulated nodes.
//
// A Message models one TCP-level application frame. Routing/matching
// metadata lives in typed fields whose wire size is accounted by the cost
// model's header constant; *protocol* content that the paper measures in
// bytes (causal piggybacks, Event Logger records, checkpoint images) is
// carried as real serialized bytes in `body` so byte counts are exact.
#pragma once

#include <cstdint>
#include <vector>

#include "util/buffer.hpp"

namespace mpiv::net {

using NodeId = std::uint32_t;
constexpr NodeId kNoNode = UINT32_MAX;

enum class MsgKind : std::uint8_t {
  // Application path (MPI payload, possibly with causal piggyback in body).
  kAppData,
  kRendezvousRts,
  kRendezvousCts,
  // Event Logger protocol.
  kElEvent,          // determinant record(s) -> EL
  kElAck,            // EL -> node: stable clock vector
  kElRecoveryReq,    // restarting node -> EL
  kElRecoveryResp,   // EL -> restarting node: stored determinants
  // Checkpoint server protocol.
  kCkptStore,
  kCkptStoreAck,
  kCkptFetchReq,
  kCkptFetchResp,
  kCkptDelete,
  // Recovery between peers.
  kRecoveryReq,      // restarting node -> survivor
  kRecoveryResp,     // survivor -> restarting node: determinants it holds
  kPayloadResend,    // survivor -> restarting node: logged payload
  // Runtime control (dispatcher, checkpoint scheduler, snapshot markers).
  kControl,
};

/// Logical application payload: workloads exchange sizes plus a checksum
/// word standing in for content, so multi-megabyte NAS messages cost no
/// host memory while fault-recovery tests can still verify replayed bytes.
struct Payload {
  std::uint64_t bytes = 0;
  std::uint64_t check = 0;
};

struct Message {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  MsgKind kind = MsgKind::kAppData;

  // Total wire size (headers + payload + body) — computed by the daemon.
  std::uint64_t wire_bytes = 0;

  // MPI-level addressing (kAppData / kPayloadResend).
  std::int32_t src_rank = -1;
  std::int32_t dst_rank = -1;
  std::int32_t tag = 0;
  std::uint64_t ssn = 0;  // per (src_rank,dst_rank) send sequence number
  Payload payload;

  // Protocol bytes: piggyback, determinants, images, control records.
  util::Buffer body;

  // Simulator-side shadow of the piggybacked events' causal dependencies
  // (cross-edge targets), in piggyback order. Real Manetho derives these
  // from the positional structure of its graph-fragment piggyback, so they
  // are NOT wire bytes (docs/DESIGN.md §2); carrying them out of band keeps the
  // byte accounting identical to the paper's formats while keeping every
  // node's antecedence graph causally exact. One word per event: the edge's
  // creator is always the event's src (ftapi::Determinant::dep_word).
  std::vector<std::uint64_t> dep_shadow;

  // Generic small scalar for control messages (avoids a body round-trip).
  std::uint64_t arg = 0;
};

}  // namespace mpiv::net
