// Piggyback wire formats (paper §III-C).
//
// Vcausal and Manetho factor events by the rank that created them ("the
// receiver rank of the event"): a block carries {creator, count, first_seq}
// once, then per-event {src, ssn, tag}. LogOn's partial order forbids
// factoring — events from different creators interleave — so every event
// carries its creator and sequence explicitly, making each event wider:
// "for the same number of events to piggyback, the actual size in bytes of
// data added to the message is higher for LogOn". For very small piggybacks
// the factored block header dominates and LogOn is the smaller format (the
// paper's LU/4-nodes observation).
//
// The factored format has two implementations. The strategies stream it:
// FactoredWriter copies held runs straight from the EventStore into the
// outgoing buffer, and FactoredReader hands the receiver one block header at
// a time so it can skip, undecoded, the prefix it already holds and take the
// rest as raw records. factored_serialize / factored_parse round-trip a
// vector and are the reference both are tested against. A block holds at
// most UINT16_MAX events (longer runs continue in the next block) and a
// piggyback at most UINT16_MAX blocks.
//
// The factored per-event record is also the EventStore's storage layout, so
// a run moves between store and buffer with one memcpy. encode_record /
// decode_record are the only code that knows the record's fields.
//
// The plain (LogOn) record is {creator u16, seq u64} followed by the same
// factored record, so LogOn's build writes each event as a key plus one
// memcpy from the store (put_plain_record) and its absorb decodes records
// in place (decode_plain_record). plain_serialize / plain_parse round-trip
// a vector and are the reference both are tested against.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "ftapi/determinant.hpp"
#include "util/buffer.hpp"

namespace mpiv::causal::wire {

// Factored format sizes.
constexpr std::uint64_t kFactoredHeader = 2;              // u16 block count
constexpr std::uint64_t kFactoredBlockHeader = 2 + 2 + 8; // creator,count,first
constexpr std::uint64_t kFactoredPerEvent = 2 + 8 + 4;    // src,ssn,tag
// Per-event (LogOn) format sizes.
constexpr std::uint64_t kPlainHeader = 2;                  // u16 event count
constexpr std::uint64_t kPlainPerEvent = 2 + 8 + 2 + 8 + 4;// creator,seq,src,ssn,tag
static_assert(kPlainPerEvent == 10 + kFactoredPerEvent,
              "a plain record is {creator, seq} + a factored record");

/// Writes `d`'s factored record {src u16, ssn u64, tag u32} at `p`.
inline void encode_record(std::uint8_t* p, const ftapi::Determinant& d) {
  const auto src = static_cast<std::uint16_t>(d.src);
  const auto tag = static_cast<std::uint32_t>(d.tag);
  std::memcpy(p, &src, 2);
  std::memcpy(p + 2, &d.ssn, 8);
  std::memcpy(p + 10, &tag, 4);
}
/// Reads the record at `p` into `d`'s src, ssn and tag.
inline void decode_record(const std::uint8_t* p, ftapi::Determinant& d) {
  std::uint16_t src;
  std::uint32_t tag;
  std::memcpy(&src, p, 2);
  std::memcpy(&d.ssn, p + 2, 8);
  std::memcpy(&tag, p + 10, 4);
  d.src = src;
  d.tag = static_cast<std::int32_t>(tag);
}
/// The determinant `creator`'s event `seq` whose record is at `p` (no edge).
inline ftapi::Determinant decode_record(const std::uint8_t* p,
                                        std::uint32_t creator,
                                        std::uint64_t seq) {
  ftapi::Determinant d;
  d.creator = creator;
  d.seq = seq;
  decode_record(p, d);
  return d;
}

/// The `src` field of the factored record at `p`.
inline std::uint32_t record_src(const std::uint8_t* p) {
  std::uint16_t src;
  std::memcpy(&src, p, 2);
  return src;
}

/// Writes the plain record of `creator`'s event `seq` at `p`, copying its
/// factored record from `record`.
inline void put_plain_record(std::uint8_t* p, std::uint32_t creator,
                             std::uint64_t seq, const std::uint8_t* record) {
  const auto c16 = static_cast<std::uint16_t>(creator);
  std::memcpy(p, &c16, 2);
  std::memcpy(p + 2, &seq, 8);
  std::memcpy(p + 10, record, kFactoredPerEvent);
}
/// The determinant whose plain record is at `p` (no edge).
inline ftapi::Determinant decode_plain_record(const std::uint8_t* p) {
  std::uint16_t creator;
  std::uint64_t seq;
  std::memcpy(&creator, p, 2);
  std::memcpy(&seq, p + 2, 8);
  return decode_record(p + 10, creator, seq);
}

/// Serializes events factored by creator. `events` must be grouped by
/// creator with contiguous seq runs inside a group (the builder emits runs).
void factored_serialize(const std::vector<ftapi::Determinant>& events,
                        util::Buffer& out);
/// Parses a factored piggyback (inverse of factored_serialize).
std::vector<ftapi::Determinant> factored_parse(util::Buffer& in);

/// Serializes events one-by-one preserving their order (LogOn format).
void plain_serialize(const std::vector<ftapi::Determinant>& events,
                     util::Buffer& out);
std::vector<ftapi::Determinant> plain_parse(util::Buffer& in);

/// Appends a factored piggyback to `out` run by run, producing the bytes
/// factored_serialize gives for the same event sequence. The buffer
/// is sized once, from the bounds given at construction (it still grows if
/// they are exceeded); finish() must be called before `out` is used.
class FactoredWriter {
 public:
  FactoredWriter(util::Buffer& out, std::uint64_t max_events,
                 std::uint64_t max_blocks);

  /// Appends `creator`'s events first .. first+n-1, whose `n` records lie
  /// back to back at `records`. The run continues the open block when it
  /// follows on from it; blocks are cut every UINT16_MAX events.
  void put_run(std::uint32_t creator, std::uint64_t first, std::size_t n,
               const std::uint8_t* records);

  /// Writes the block count and trims the unused room.
  void finish();
  std::uint64_t events() const { return events_; }

 private:
  void open_block(std::uint32_t creator, std::uint64_t first);
  void close_block();
  void grow(std::size_t n);

  util::Buffer& out_;
  std::size_t start_;           // offset of the piggyback in `out_`
  std::uint8_t* base_;          // out_'s bytes at `start_`
  std::size_t cap_;             // room sized from `start_`
  std::size_t pos_ = kFactoredHeader;  // bytes written from `start_`
  std::size_t block_ = 0;       // the open block's header, from `start_`
  std::uint32_t creator_ = 0;   // the open block's creator
  std::uint64_t next_seq_ = 0;  // seq that continues the open block
  std::uint32_t count_ = UINT16_MAX;  // events in the open block (full: none open)
  std::uint64_t blocks_ = 0;
  std::uint64_t events_ = 0;
};

/// Reads a factored piggyback block by block: each block's header, then its
/// events, taken as raw records or skipped in O(1).
class FactoredReader {
 public:
  struct Block {
    std::uint32_t creator = 0;
    std::uint32_t count = 0;
    std::uint64_t first = 0;  // seq of the block's first event
  };

  explicit FactoredReader(util::Buffer& in) : in_(in), blocks_left_(in.get_u16()) {}

  /// Reads the next block header, first skipping whatever the current block
  /// has left. Returns false once every block was read.
  bool next_block();
  const Block& block() const { return block_; }

  /// Takes the next `n` events of the current block as raw records
  /// (n * kFactoredPerEvent bytes, valid while the input is).
  const std::uint8_t* records(std::uint32_t n) {
    MPIV_CHECK(n <= left_, "take %u of %u events", n, left_);
    left_ -= n;
    return in_.read_span(static_cast<std::size_t>(n) * kFactoredPerEvent);
  }
  /// Skips the next `n` events of the current block without decoding them.
  void skip(std::uint32_t n) { records(n); }

 private:
  util::Buffer& in_;
  std::uint32_t blocks_left_;
  Block block_;
  std::uint32_t left_ = 0;  // events of the current block not yet read
};

}  // namespace mpiv::causal::wire
