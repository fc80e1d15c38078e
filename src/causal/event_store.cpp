#include "causal/event_store.hpp"

#include "causal/columnar_store.hpp"
#include "causal/reference_strategy.hpp"

namespace mpiv::causal {

EventStore::EventStore(int nranks)
    : private_(std::make_unique<DetTable>(nranks)), table_(private_.get()),
      per_(static_cast<std::size_t>(nranks)) {
  table_->attach(this);
  if (reference_checks().on) ref_ = std::make_unique<ColumnarStore>(nranks);
}

EventStore::EventStore(int nranks, DetTable& table)
    : table_(&table), per_(static_cast<std::size_t>(nranks)) {
  MPIV_CHECK(table.nranks() == nranks, "store for %d ranks over a %d-rank table",
             nranks, table.nranks());
  table_->attach(this);
  if (reference_checks().on) ref_ = std::make_unique<ColumnarStore>(nranks);
}

EventStore::~EventStore() { table_->detach(this); }

bool EventStore::insert_above(Per& p, const ftapi::Determinant& d) {
  bool fresh = false;
  const auto put_fresh = [&](std::uint64_t, std::uint64_t) {
    put(d);
    fresh = true;
  };
  hold(p, d.seq, d.seq, put_fresh);
  return fresh;
}

void EventStore::keep_own(const ftapi::Determinant& d) {
  Own& o = own_[{d.creator, d.seq}];
  wire::encode_record(o.record, d);
  o.dep = d.dep_word();
}

void EventStore::mirror_add(const ftapi::Determinant& d, bool fresh) {
  MPIV_CHECK(ref_->add(d) == fresh, "reference store disagrees on (%u,%llu)",
             d.creator, static_cast<unsigned long long>(d.seq));
}

void EventStore::set_stable(const std::vector<std::uint64_t>& stable) {
  MPIV_CHECK(stable.size() == per_.size(), "stable vector size %zu vs %zu",
             stable.size(), per_.size());
  for (std::size_t c = 0; c < per_.size(); ++c) {
    Per& p = per_[c];
    const std::uint64_t s = stable[c];
    if (s <= p.stable) continue;
    // Drop the held seqs at or below s: the prefix, then whole or cut
    // intervals.
    std::size_t dropped = static_cast<std::size_t>(std::min(p.held_through, s) - p.stable);
    auto it = p.above.begin();
    for (; it != p.above.end() && it->hi <= s; ++it) {
      dropped += static_cast<std::size_t>(it->hi - it->lo + 1);
    }
    if (it != p.above.end() && it->lo <= s) {
      dropped += static_cast<std::size_t>(s - it->lo + 1);
      it->lo = s + 1;
    }
    p.above.erase(p.above.begin(), it);
    held_ -= dropped;
    if (!own_.empty()) {
      const auto creator = static_cast<std::uint32_t>(c);
      own_.erase(own_.lower_bound({creator, 0}), own_.upper_bound({creator, s}));
    }
    p.stable = s;
    if (p.held_through < s) p.held_through = s;
    // The prefix now reaches the first interval if that starts right after.
    if (!p.above.empty() && p.above.front().lo == p.held_through + 1) {
      p.held_through = p.above.front().hi;
      p.above.erase(p.above.begin());
    }
  }
  if (ref_ != nullptr) ref_->set_stable(stable);
}

void EventStore::serialize(util::Buffer& b) const {
  for (std::size_t c = 0; c < per_.size(); ++c) {
    const auto creator = static_cast<std::uint32_t>(c);
    const Per& p = per_[c];
    b.put_u64(p.stable);
    b.put_u64(p.known);
    std::uint64_t n = 0;
    for_spans(creator, 0, UINT64_MAX,
              [&n](std::uint64_t a, std::uint64_t e) { n += e - a + 1; });
    b.put_u32(static_cast<std::uint32_t>(n));
    for_range(creator, 0, UINT64_MAX, [&b](const ftapi::Determinant& d) {
      d.serialize(b);
      b.put_u16(static_cast<std::uint16_t>(
          d.dep_creator == UINT32_MAX ? 0xFFFF : d.dep_creator));
      b.put_u64(d.dep_seq);
    });
  }
}

void EventStore::restore(util::Buffer& b) {
  const std::size_t start = b.cursor();
  std::unique_ptr<ColumnarStore> ref = std::move(ref_);  // mirrored below
  reset();
  for (std::size_t c = 0; c < per_.size(); ++c) {
    Per& p = per_[c];
    p.stable = b.get_u64();
    p.known = b.get_u64();
    p.held_through = p.stable;
    const std::uint32_t n = b.get_u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      ftapi::Determinant d = ftapi::Determinant::deserialize(b);
      const std::uint16_t dc = b.get_u16();
      d.dep_creator = dc == 0xFFFF ? UINT32_MAX : dc;
      d.dep_seq = b.get_u64();
      MPIV_CHECK(d.creator == c, "image holds creator %u's event under %zu",
                 d.creator, c);
      // The table packs the edge, checking it is (src, seq) or none.
      if (d.seq > p.stable) insert(p, d);
    }
  }
  ref_ = std::move(ref);
  if (ref_ != nullptr) {
    const std::vector<std::uint8_t>& bytes = b.bytes();
    util::Buffer image(std::vector<std::uint8_t>(
        bytes.begin() + static_cast<std::ptrdiff_t>(start),
        bytes.begin() + static_cast<std::ptrdiff_t>(b.cursor())));
    ref_->restore(image);
    check_reference();
  }
}

void EventStore::reset() {
  for (Per& p : per_) {
    p.stable = 0;
    p.known = 0;
    p.held_through = 0;
    p.above.clear();
  }
  held_ = 0;
  own_.clear();
  if (ref_ != nullptr) ref_->reset();
}

void EventStore::check_reference() const {
  if (ref_ == nullptr) return;
  MPIV_CHECK(held_ == ref_->held_count(), "held %zu vs reference %zu", held_,
             ref_->held_count());
  for (std::size_t c = 0; c < per_.size(); ++c) {
    const auto creator = static_cast<std::uint32_t>(c);
    MPIV_CHECK(per_[c].held_through == ref_->held_through(creator),
               "creator %zu held through %llu vs reference %llu", c,
               static_cast<unsigned long long>(per_[c].held_through),
               static_cast<unsigned long long>(ref_->held_through(creator)));
  }
  util::Buffer mine, theirs;
  serialize(mine);
  ref_->serialize(theirs);
  MPIV_CHECK(mine == theirs, "store and reference store hold different sets");
  ++reference_checks().stores;
}

}  // namespace mpiv::causal
