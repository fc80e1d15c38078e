// Message-matching state: arrival dedup and the unexpected-message queue.
//
// Dedup exists because message logging re-sends: after a crash, survivors
// resend logged payloads and the restarted rank re-emits its sends; every
// app message therefore carries a per-channel send sequence number (ssn)
// and receivers drop anything they have already accepted. Rendezvous can
// reorder a large message behind later eager ones, so dedup tolerates
// out-of-order arrival (watermark + sparse set above it).
#pragma once

#include <cstdint>
#include <deque>
#include <set>

#include "net/message.hpp"
#include "util/buffer.hpp"
#include "util/check.hpp"

namespace mpiv::mpi {

class ArrivalDedup {
 public:
  /// Returns true if `ssn` is new (accept), false if duplicate (drop).
  bool accept(std::uint64_t ssn) {
    if (ssn <= watermark_) return false;
    if (ssn == watermark_ + 1 && above_.empty()) {  // in order: no set node
      watermark_ = ssn;
      return true;
    }
    if (!above_.insert(ssn).second) return false;
    while (!above_.empty() && *above_.begin() == watermark_ + 1) {
      ++watermark_;
      above_.erase(above_.begin());
    }
    return true;
  }

  /// Everything <= watermark has been accepted (contiguously).
  std::uint64_t watermark() const { return watermark_; }

  void serialize(util::Buffer& b) const {
    b.put_u64(watermark_);
    b.put_u32(static_cast<std::uint32_t>(above_.size()));
    for (const std::uint64_t s : above_) b.put_u64(s);
  }
  void restore(util::Buffer& b) {
    above_.clear();
    watermark_ = b.get_u64();
    const std::uint32_t n = b.get_u32();
    for (std::uint32_t i = 0; i < n; ++i) above_.insert(b.get_u64());
  }
  void reset() {
    watermark_ = 0;
    above_.clear();
  }

 private:
  std::uint64_t watermark_ = 0;
  std::set<std::uint64_t> above_;
};

/// An arrived-but-unmatched application message (piggyback already absorbed).
struct StoredMsg {
  int src_rank = -1;
  int tag = 0;
  std::uint64_t ssn = 0;
  net::Payload payload;

  void serialize(util::Buffer& b) const {
    b.put_u16(static_cast<std::uint16_t>(src_rank));
    b.put_u32(static_cast<std::uint32_t>(tag));
    b.put_u64(ssn);
    b.put_u64(payload.bytes);
    b.put_u64(payload.check);
  }
  static StoredMsg deserialize(util::Buffer& b) {
    StoredMsg m;
    m.src_rank = b.get_u16();
    m.tag = static_cast<std::int32_t>(b.get_u32());
    m.ssn = b.get_u64();
    m.payload.bytes = b.get_u64();
    m.payload.check = b.get_u64();
    return m;
  }
};

}  // namespace mpiv::mpi
