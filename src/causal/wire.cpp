#include "causal/wire.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace mpiv::causal::wire {

void factored_serialize(const std::vector<ftapi::Determinant>& events,
                        util::Buffer& out) {
  // A block is a maximal run of the same creator with consecutive sequence
  // numbers, cut every UINT16_MAX events.
  const auto run_end = [&events](std::size_t i) {
    std::size_t j = i + 1;
    while (j < events.size() && j - i < UINT16_MAX &&
           events[j].creator == events[j - 1].creator &&
           events[j].seq == events[j - 1].seq + 1) {
      ++j;
    }
    return j;
  };
  std::size_t nblocks = 0;
  for (std::size_t i = 0; i < events.size(); i = run_end(i)) ++nblocks;
  MPIV_CHECK(nblocks <= UINT16_MAX, "piggyback too large: %zu blocks", nblocks);
  out.put_u16(static_cast<std::uint16_t>(nblocks));
  for (std::size_t i = 0, j = 0; i < events.size(); i = j) {
    j = run_end(i);
    MPIV_CHECK(events[i].creator <= UINT16_MAX, "creator %u exceeds u16",
               events[i].creator);
    out.put_u16(static_cast<std::uint16_t>(events[i].creator));
    out.put_u16(static_cast<std::uint16_t>(j - i));
    out.put_u64(events[i].seq);
    for (std::size_t k = i; k < j; ++k) {
      out.put_u16(static_cast<std::uint16_t>(events[k].src));
      out.put_u64(events[k].ssn);
      out.put_u32(static_cast<std::uint32_t>(events[k].tag));
    }
  }
}

std::vector<ftapi::Determinant> factored_parse(util::Buffer& in) {
  std::vector<ftapi::Determinant> out;
  const std::uint16_t nblocks = in.get_u16();
  for (std::uint16_t b = 0; b < nblocks; ++b) {
    const std::uint16_t creator = in.get_u16();
    const std::uint16_t count = in.get_u16();
    const std::uint64_t first = in.get_u64();
    for (std::uint16_t k = 0; k < count; ++k) {
      ftapi::Determinant d;
      d.creator = creator;
      d.seq = first + k;
      d.src = in.get_u16();
      d.ssn = in.get_u64();
      d.tag = static_cast<std::int32_t>(in.get_u32());
      out.push_back(d);
    }
  }
  return out;
}

void plain_serialize(const std::vector<ftapi::Determinant>& events,
                     util::Buffer& out) {
  MPIV_CHECK(events.size() <= UINT16_MAX, "piggyback too large: %zu events",
             events.size());
  out.put_u16(static_cast<std::uint16_t>(events.size()));
  for (const ftapi::Determinant& d : events) {
    out.put_u16(static_cast<std::uint16_t>(d.creator));
    out.put_u64(d.seq);
    out.put_u16(static_cast<std::uint16_t>(d.src));
    out.put_u64(d.ssn);
    out.put_u32(static_cast<std::uint32_t>(d.tag));
  }
}

std::vector<ftapi::Determinant> plain_parse(util::Buffer& in) {
  std::vector<ftapi::Determinant> out;
  const std::uint16_t n = in.get_u16();
  out.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) {
    ftapi::Determinant d;
    d.creator = in.get_u16();
    d.seq = in.get_u64();
    d.src = in.get_u16();
    d.ssn = in.get_u64();
    d.tag = static_cast<std::int32_t>(in.get_u32());
    out.push_back(d);
  }
  return out;
}

FactoredWriter::FactoredWriter(util::Buffer& out, std::uint64_t max_events,
                               std::uint64_t max_blocks)
    : out_(out),
      start_(out.size()),
      cap_(static_cast<std::size_t>(kFactoredHeader +
                                    max_blocks * kFactoredBlockHeader +
                                    max_events * kFactoredPerEvent)) {
  base_ = out_.extend(cap_);
}

void FactoredWriter::put_run(std::uint32_t creator, std::uint64_t first,
                             std::size_t n, const std::uint8_t* records) {
  while (n > 0) {
    if (creator != creator_ || first != next_seq_ || count_ == UINT16_MAX) {
      open_block(creator, first);
    }
    const std::size_t take = std::min<std::size_t>(n, UINT16_MAX - count_);
    const std::size_t bytes = take * kFactoredPerEvent;
    if (pos_ + bytes > cap_) grow(bytes);
    std::memcpy(base_ + pos_, records, bytes);
    pos_ += bytes;
    count_ += static_cast<std::uint32_t>(take);
    next_seq_ += take;
    events_ += take;
    first += take;
    records += bytes;
    n -= take;
  }
}

void FactoredWriter::open_block(std::uint32_t creator, std::uint64_t first) {
  close_block();
  MPIV_CHECK(blocks_ < UINT16_MAX, "piggyback too large: over %u blocks",
             static_cast<unsigned>(UINT16_MAX));
  MPIV_CHECK(creator <= UINT16_MAX, "creator %u exceeds u16", creator);
  if (pos_ + kFactoredBlockHeader > cap_) grow(kFactoredBlockHeader);
  std::uint8_t* p = base_ + pos_;
  const auto c16 = static_cast<std::uint16_t>(creator);
  std::memcpy(p, &c16, 2);  // count (p + 2) is written by close_block
  std::memcpy(p + 4, &first, 8);
  block_ = pos_;
  pos_ += kFactoredBlockHeader;
  ++blocks_;
  creator_ = creator;
  next_seq_ = first;
  count_ = 0;
}

void FactoredWriter::close_block() {
  if (blocks_ == 0) return;
  const auto count = static_cast<std::uint16_t>(count_);
  std::memcpy(base_ + block_ + 2, &count, 2);
}

void FactoredWriter::grow(std::size_t n) {
  const std::size_t more = std::max(cap_, pos_ + n - cap_);
  base_ = out_.extend(more) - cap_;
  cap_ += more;
}

void FactoredWriter::finish() {
  close_block();
  const auto nblocks = static_cast<std::uint16_t>(blocks_);
  std::memcpy(base_, &nblocks, 2);
  out_.truncate(start_ + pos_);
}

bool FactoredReader::next_block() {
  if (left_ > 0) skip(left_);
  if (blocks_left_ == 0) return false;
  --blocks_left_;
  block_.creator = in_.get_u16();
  block_.count = in_.get_u16();
  block_.first = in_.get_u64();
  left_ = block_.count;
  return true;
}

}  // namespace mpiv::causal::wire
