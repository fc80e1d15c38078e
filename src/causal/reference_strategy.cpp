#include "causal/reference_strategy.hpp"

#include <algorithm>
#include <cstring>

#include "causal/columnar_store.hpp"

namespace mpiv::causal {

ReferenceChecks& reference_checks() {
  static ReferenceChecks checks;
  return checks;
}

std::vector<ftapi::Determinant> host_form_events(util::Buffer& in) {
  const auto* table =
      reinterpret_cast<const DetTable*>(static_cast<std::uintptr_t>(in.get_u64()));
  std::vector<ftapi::Determinant> events;
  const std::uint32_t nruns = in.get_u32();
  for (std::uint32_t k = 0; k < nruns; ++k) {
    const wire::HostRun r = wire::get_host_run(in.read_span(wire::kHostRun));
    for (std::uint64_t s = r.first; s < r.first + r.count; ++s) {
      events.push_back(table->get(r.creator, s));
    }
  }
  const std::uint32_t nowns = in.get_u32();
  for (std::uint32_t k = 0; k < nowns; ++k) {
    const wire::HostOwn o = wire::get_host_own(in.read_span(wire::kHostOwn));
    const auto it = std::find_if(
        events.begin(), events.end(), [&o](const ftapi::Determinant& d) {
          return d.creator == o.creator && d.seq == o.seq;
        });
    MPIV_CHECK(it != events.end(), "host form copy (%u,%llu) outside its runs",
               o.creator, static_cast<unsigned long long>(o.seq));
    *it = wire::decode_record(o.record, o.creator, o.seq);
    it->set_dep_word(o.dep);
  }
  return events;
}

void check_build(const EventStore& store, int dst, int nranks,
                 const std::vector<std::uint64_t>& holds, util::Buffer& out,
                 std::size_t start, const Strategy::Work& w) {
  util::Buffer bytes;
  Strategy::DepShadow deps;
  const std::uint64_t events =
      reference_put_factored(*store.reference(), dst, nranks, holds, bytes, deps);
  MPIV_CHECK(bytes.size() == w.bytes && events == w.events,
             "computed piggyback of %llu events, %llu bytes; serialized %llu "
             "events, %zu bytes",
             static_cast<unsigned long long>(w.events),
             static_cast<unsigned long long>(w.bytes),
             static_cast<unsigned long long>(events), bytes.size());
  // The host form's events are the serialized ones.
  util::Buffer host(std::vector<std::uint8_t>(
      out.bytes().begin() + static_cast<std::ptrdiff_t>(start), out.bytes().end()));
  const std::vector<ftapi::Determinant> mine = host_form_events(host);
  util::Buffer parse = bytes;
  std::vector<ftapi::Determinant> theirs = wire::factored_parse(parse);
  MPIV_CHECK(mine.size() == theirs.size() && theirs.size() == deps.size(),
             "host form carries %zu events, the bytes %zu", mine.size(),
             theirs.size());
  for (std::size_t i = 0; i < mine.size(); ++i) {
    theirs[i].set_dep_word(deps[i]);
    MPIV_CHECK(mine[i] == theirs[i] && mine[i].dep_word() == deps[i],
               "piggyback event %zu: host form (%u,%llu) vs bytes (%u,%llu)", i,
               mine[i].creator, static_cast<unsigned long long>(mine[i].seq),
               theirs[i].creator, static_cast<unsigned long long>(theirs[i].seq));
  }
  // The receiver merges the same bytes into its twin.
  out.put_u64(bytes.size());
  std::memcpy(out.extend(bytes.size()), bytes.bytes().data(), bytes.size());
  out.put_u64(deps.size());
  for (const std::uint64_t d : deps) out.put_u64(d);
  ReferenceChecks& rc = reference_checks();
  ++rc.builds;
  rc.events += events;
}

void check_absorb(EventStore& store, util::Buffer& in, std::uint64_t events) {
  const std::uint64_t n = in.get_u64();
  const std::uint8_t* p = in.read_span(static_cast<std::size_t>(n));
  util::Buffer bytes(std::vector<std::uint8_t>(p, p + n));
  Strategy::DepShadow deps(static_cast<std::size_t>(in.get_u64()));
  for (std::uint64_t& d : deps) d = in.get_u64();
  const std::uint64_t got = reference_take_factored(
      *store.reference(), bytes, deps, [](std::uint32_t, std::uint64_t) {},
      [](const ftapi::Determinant&) {});
  MPIV_CHECK(got == events, "host form carried %llu events, the bytes %llu",
             static_cast<unsigned long long>(events),
             static_cast<unsigned long long>(got));
  store.check_reference();
  ++reference_checks().absorbs;
}

}  // namespace mpiv::causal
