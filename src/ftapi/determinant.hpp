// Reception determinants — the nondeterministic events of message logging.
//
// Message-logging protocols assume piecewise-deterministic execution: a
// process's run is fully determined by the sequence of its reception events.
// A determinant records one reception: "my `seq`-th delivery matched the
// message with send-sequence `ssn` from rank `src`". Replaying the
// determinant sequence after a crash reproduces the pre-crash run.
#pragma once

#include <cstdint>
#include <vector>

#include "util/buffer.hpp"
#include "util/check.hpp"

namespace mpiv::ftapi {

// Members are ordered for a padding-free 40-byte layout (every store keeps
// determinants by value); the wire order is set by serialize(), not here.
struct Determinant {
  std::uint32_t creator = 0;  // rank whose reception this describes
  std::uint32_t src = 0;      // sender of the matched message
  std::uint64_t seq = 0;      // creator's reception sequence number (1-based)
  std::uint64_t ssn = 0;      // sender's (src -> creator) send sequence
  std::int32_t tag = 0;

  // Simulator-side causal dependency (antecedence-graph edge target): the
  // latest event of `src` known when the message was sent. Real Manetho
  // recovers this from the structure of its graph-fragment piggyback, so it
  // is NOT counted as wire bytes (see docs/DESIGN.md §2). `dep_creator` is
  // `src` or UINT32_MAX (no edge, `dep_seq` 0), so the edge packs into one
  // word: dep_word().
  std::uint32_t dep_creator = UINT32_MAX;
  std::uint64_t dep_seq = 0;

  /// dep_word() of a determinant without a cross edge.
  static constexpr std::uint64_t kNoDep = UINT64_MAX;

  bool operator==(const Determinant& o) const {
    return creator == o.creator && seq == o.seq && src == o.src &&
           ssn == o.ssn && tag == o.tag;
  }

  /// The cross edge as one word: `dep_seq`, or kNoDep when there is none.
  /// The edge's creator is implied: it is always `src`.
  std::uint64_t dep_word() const {
    if (dep_creator == UINT32_MAX) {
      MPIV_CHECK(dep_seq == 0, "edge-less determinant (%u,%llu) with dep_seq %llu",
                 creator, static_cast<unsigned long long>(seq),
                 static_cast<unsigned long long>(dep_seq));
      return kNoDep;
    }
    MPIV_CHECK(dep_creator == src && dep_seq != kNoDep,
               "cross edge of (%u,%llu) on rank %u, not its src %u", creator,
               static_cast<unsigned long long>(seq), dep_creator, src);
    return dep_seq;
  }
  /// Inverse of dep_word() (`src` must already be set).
  void set_dep_word(std::uint64_t w) {
    dep_creator = w == kNoDep ? UINT32_MAX : src;
    dep_seq = w == kNoDep ? 0 : w;
  }

  /// Bytes of one determinant in the Event Logger / recovery wire format.
  static constexpr std::uint64_t kWireSize = 2 + 8 + 2 + 8 + 4;

  void serialize(util::Buffer& b) const {
    b.put_u16(static_cast<std::uint16_t>(creator));
    b.put_u64(seq);
    b.put_u16(static_cast<std::uint16_t>(src));
    b.put_u64(ssn);
    b.put_u32(static_cast<std::uint32_t>(tag));
  }
  static Determinant deserialize(util::Buffer& b) {
    Determinant d;
    d.creator = b.get_u16();
    d.seq = b.get_u64();
    d.src = b.get_u16();
    d.ssn = b.get_u64();
    d.tag = static_cast<std::int32_t>(b.get_u32());
    return d;
  }
};

using DeterminantList = std::vector<Determinant>;

}  // namespace mpiv::ftapi
