#include "causal/strategy.hpp"

#include <algorithm>

#include "causal/reference_strategy.hpp"

namespace mpiv::causal {

void Strategy::put_factored(int dst, bool raise_cap, util::Buffer& out,
                            DepShadow& deps, Work& w) {
  (void)deps;  // receivers read values from the table (and the host form)
  runs_.clear();
  owns_.clear();
  std::uint64_t blocks = 0;
  std::uint64_t events = 0;
  for_held_spans(dst, raise_cap,
                 [&](std::uint32_t creator, std::uint64_t a, std::uint64_t b) {
                   runs_.push_back({creator, a, b - a + 1});
                   store_->for_own(creator, a, b,
                                   [&](std::uint64_t seq, const EventStore::Own& o) {
                                     owns_.push_back({creator, seq, o.record, o.dep});
                                   });
                   blocks += wire::factored_blocks(b - a + 1);
                   events += b - a + 1;
                 });
  MPIV_CHECK(blocks <= UINT16_MAX, "piggyback too large: %llu blocks",
             static_cast<unsigned long long>(blocks));
  const std::size_t start = out.size();
  std::uint8_t* p = out.extend(wire::kHostHeader + runs_.size() * wire::kHostRun +
                               4 + owns_.size() * wire::kHostOwn);
  const auto table = static_cast<std::uint64_t>(
      reinterpret_cast<std::uintptr_t>(&store_->table()));
  const auto nruns = static_cast<std::uint32_t>(runs_.size());
  std::memcpy(p, &table, 8);
  std::memcpy(p + 8, &nruns, 4);
  p += wire::kHostHeader;
  for (const wire::HostRun& r : runs_) {
    wire::put_host_run(p, r);
    p += wire::kHostRun;
  }
  const auto nowns = static_cast<std::uint32_t>(owns_.size());
  std::memcpy(p, &nowns, 4);
  p += 4;
  for (const wire::HostOwn& o : owns_) {
    wire::put_host_own(p, o);
    p += wire::kHostOwn;
  }
  w.events = events;
  w.bytes = wire::factored_size(blocks, events);
  if (store_->reference() != nullptr) {
    check_build(*store_, dst, nranks_, holds_, out, start, w);
  }
}

std::uint64_t Strategy::take_factored(int src, util::Buffer& in,
                                      const DepShadow& deps) {
  (void)deps;  // values come from the table (and the host form)
  const auto* from = reinterpret_cast<const DetTable*>(
      static_cast<std::uintptr_t>(in.get_u64()));
  const std::uint32_t nruns = in.get_u32();
  const std::uint8_t* p =
      in.read_span(static_cast<std::size_t>(nruns) * wire::kHostRun);
  const std::uint32_t nowns = in.get_u32();
  const std::uint8_t* o =
      in.read_span(static_cast<std::size_t>(nowns) * wire::kHostOwn);
  const std::uint8_t* const owns_end = o + nowns * wire::kHostOwn;
  std::uint64_t events = 0;
  for (std::uint32_t k = 0; k < nruns; ++k, p += wire::kHostRun) {
    const wire::HostRun r = wire::get_host_run(p);
    if (r.count == 0) continue;  // carries nothing (no writer emits it)
    store_->absorb_run(*from, r.creator, r.first, r.count,
                       [&](std::uint64_t a, std::uint64_t n) {
                         // The sender's own copies come in (creator, seq)
                         // order; those of events held already are skipped.
                         for (; o != owns_end; o += wire::kHostOwn) {
                           const wire::HostOwn x = wire::get_host_own(o);
                           if (x.creator < r.creator ||
                               (x.creator == r.creator && x.seq < a)) {
                             continue;
                           }
                           if (x.creator != r.creator || x.seq >= a + n) break;
                           store_->set_own(x.creator, x.seq, x.record, x.dep);
                         }
                         if (!absorb_hook_) return;
                         for (std::uint64_t q = a; q < a + n; ++q) {
                           on_absorbed(store_->get(r.creator, q));
                         }
                       });
    note_learned(src, r.creator, r.first + r.count - 1);
    events += r.count;
  }
  if (store_->reference() != nullptr) {
    check_absorb(*store_, in, events);
  }
  return events;
}

}  // namespace mpiv::causal
