// LogOn piggyback reduction (Lee, Park, Yeom, Cho — SRDS'98; paper §III-B.2).
//
// Selects the same event set as Manetho (antecedence-graph pruning) but
// emits it in a causal (topological) order: for any two piggybacked events
// m_i, m_j with i < j, m_j is never in the causal past of m_i. The receiver
// can then merge the piggyback in a single pass — every event's
// antecedents are already in place — making receive cheap; the reordering
// work moves to the send side, and the partial order forbids factoring, so
// each event carries its creator and sequence (wider wire format).
//
// The send side orders the store's held runs in place: each event is an
// entry {creator, seq, record pointer, dep word} in scratch vectors the
// strategy reuses across sends, a CSR Kahn pass orders the entries, and
// each plain record is written as its key plus one memcpy of the store's
// record. The receive side decodes the records where they lie in the
// buffer. causal_order, wire::plain_serialize and wire::plain_parse are the
// reference (Reference<LogOnStrategy> in causal/reference_strategy.hpp);
// the two paths give the same bytes, in the same order.
#pragma once

#include "causal/manetho_strategy.hpp"

namespace mpiv::causal {

class LogOnStrategy : public ManethoStrategy {
 public:
  const char* name() const override { return "LogOn"; }
  Work build(int dst, util::Buffer& out, DepShadow& deps) override;
  Work absorb(int src, util::Buffer& in, const DepShadow& deps) override;

  /// Orders `events` topologically w.r.t. causal dependencies (ancestors
  /// first), by a FIFO Kahn pass over a map index: the reference order.
  static std::vector<ftapi::Determinant> causal_order(
      std::vector<ftapi::Determinant> events);

 protected:
  /// Appends to `out` the plain piggyback of the held events above holds_
  /// (set by select) in causal order, their cross edges to `deps`, and
  /// records in dst's view what was sent. Returns the events.
  virtual std::uint64_t put_plain(int dst, util::Buffer& out, DepShadow& deps);
  /// Merges a plain piggyback from `src` (deps in wire order) into the
  /// store and graph. Returns the events it carried.
  virtual std::uint64_t take_plain(int src, util::Buffer& in,
                                   const DepShadow& deps);

 private:
  struct Entry {
    const std::uint8_t* record;  // the store's factored record
    std::uint64_t seq;
    std::uint64_t dep;  // Determinant::dep_word
    std::uint32_t creator;
  };
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// Index of `creator`'s event `seq` among the entries, or kNone.
  std::uint32_t find(std::uint32_t creator, std::uint64_t seq) const;
  /// Fills order_ with the entries' indices in causal_order's order.
  void order();

  // Scratch reused across sends. Entries are grouped by creator, seqs
  // ascending; creator c's are [seg_[c], seg_[c+1]).
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> seg_;
  std::vector<std::uint32_t> preds_;     // per entry: process, cross (or kNone)
  std::vector<std::uint32_t> indegree_;
  std::vector<std::uint32_t> edge_at_;   // CSR offsets into edges_
  std::vector<std::uint32_t> edges_;     // out-edge targets, ascending per node
  std::vector<std::uint32_t> order_;     // the FIFO ready queue = the order
};

}  // namespace mpiv::causal
