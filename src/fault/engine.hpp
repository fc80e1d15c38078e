// FaultEngine — owns a declarative fault Campaign and sequences it against
// a running cluster.
//
// The engine is the single place failures enter the simulation:
//  - timed and Poisson rank crashes go through the dispatcher's serialized
//    fault path (exactly the plumbing the pre-engine Cluster had inline),
//  - Event Logger shard crashes/outages drive the elog failover machinery
//    (service down -> detection -> successor mounts the persistent log ->
//    directory re-home -> re-homed ranks re-persist their unacked suffix),
//  - checkpoint-server outages toggle the service node (the disk persists;
//    clients ride it out with retransmits),
//  - link faults perturb the network (latency spikes, drop-with-retransmit
//    windows).
// Event-triggered injections ("kill rank 3 on its 5th checkpoint", "crash
// shard 0 once N determinants are stored") arrive through the
// ftapi::FaultObserver hooks the cluster wires into the rank runtimes and
// EL shards.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "elog/el_directory.hpp"
#include "fault/campaign.hpp"
#include "fault/timeline.hpp"
#include "ftapi/services.hpp"
#include "net/network.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace mpiv::elog {
class EventLogger;
}

namespace mpiv::fault {

class FaultEngine final : public ftapi::FaultObserver {
 public:
  /// Everything the engine acts on, wired by runtime::Cluster. The rank
  /// path goes through callbacks so the engine stays below the runtime
  /// layer.
  struct Bindings {
    sim::Engine* eng = nullptr;
    net::Network* net = nullptr;
    ftapi::NodeLayout layout{};
    elog::ElDirectory* directory = nullptr;      // null when EL disabled
    std::vector<elog::EventLogger*> els;         // all shards incl. standby
    std::function<void(int)> crash_rank;         // dispatcher serialized path
    std::function<std::vector<int>()> alive_ranks;
    std::function<bool()> run_done;
    std::function<void(net::Message&&)> send_ctl;  // from the dispatcher node
    /// Daemon failure domain (RankRuntime::daemon_crash / daemon_restart /
    /// daemon_down; restart returns -1 when a rank crash superseded the
    /// outage — the node restart respawned the daemon early).
    std::function<void(int)> crash_daemon;
    std::function<long(int)> restart_daemon;
    std::function<bool(int)> daemon_is_down;
    /// Daemon outage records land here (null = no timeline).
    RecoveryTimeline* timeline = nullptr;
    /// The cluster's engine-side trace lane (null = tracing off).
    trace::Lane* trace = nullptr;
    /// Cluster-level failure-detection delay: the default suspicion window
    /// for a service cut when the campaign does not override it.
    sim::Time detection_delay = 0;
  };

  FaultEngine(Campaign campaign, std::uint64_t seed, Bindings b);

  /// Schedules the campaign's timed and stochastic injections in campaign
  /// order. Call once, before the run starts.
  void arm();

  // --- execution-event triggers (ftapi::FaultObserver) ---------------------
  void on_rank_checkpoint(int rank, std::uint64_t completed) override;
  void on_el_stored(int shard, std::uint64_t stored) override;

  // --- direct injection (benches/tests may drive the engine manually) -----
  void crash_el_shard(int shard);
  void el_outage(int shard, sim::Time duration);
  void ckpt_outage(sim::Time duration);
  void link_fault(int rank, Action action, sim::Time magnitude,
                  sim::Time duration);
  /// Kills rank `rank`'s communication daemon; the dispatcher respawns it
  /// `downtime` later (0 = the campaign's daemon_restart_delay). No-op on a
  /// daemon already down.
  void crash_daemon(int rank, sim::Time downtime = 0);
  /// Opens a partition window between the two groups. Each side may name
  /// service endpoints (EL shards by id, kCkptService for the checkpoint
  /// server) alongside its ranks; cutting a serving EL shard from clients
  /// arms the suspicion -> split-brain -> heal-time reconcile machinery.
  void partition(const std::vector<int>& group_a,
                 const std::vector<int>& group_b, sim::Time duration,
                 sim::Time heal_backoff,
                 const std::vector<int>& services_a = {},
                 const std::vector<int>& services_b = {});

  const Campaign& campaign() const { return campaign_; }
  const FaultCounts& counts() const { return counts_; }
  /// Time of the first EL shard loss (0 = none): the piggyback-regrowth
  /// reference point. The pointer form is stable for the lifetime of the
  /// engine (RankHooks::el_fault_at).
  sim::Time first_el_fault() const { return first_el_fault_; }
  const sim::Time* first_el_fault_ptr() const { return &first_el_fault_; }

 private:
  void fire(std::size_t idx);
  void execute(const Injection& inj);
  void trigger_async(std::size_t idx);
  void arm_poisson(std::size_t idx);
  void fail_over(int dead_shard);
  void announce_failover(const std::vector<int>& ranks, int dead_shard,
                         int successor);
  /// True when every live moved rank can reach shard `succ` right now.
  bool successor_reachable(int succ, const std::vector<int>& ranks) const;
  /// Detection-delay check behind a service cut: still-unreachable clients
  /// of a live shard are re-homed onto a reachable successor (split-brain).
  void suspect_shard(int shard, sim::Time cut_at, sim::Time heal_at);
  /// Heal-time merge of the stale shard's live log into the successor's.
  void reconcile(int stale_shard, int successor, std::vector<int> ranks,
                 int record_idx);

  Campaign campaign_;
  Bindings b_;
  util::Rng rng_;
  std::vector<char> fired_;      // one-shot latch per injection
  std::vector<char> in_outage_;  // per shard: down transiently, will return
  /// Per rank: daemon-outage generation. A rank crash can end an outage
  /// early (the node restart respawns the daemon), so the respawn timer
  /// captures its generation and only acts if no newer outage started —
  /// the live daemon state (Bindings::daemon_is_down), not this counter,
  /// decides whether a new injection may fire.
  std::vector<std::uint32_t> daemon_gen_;
  FaultCounts counts_;
  sim::Time first_el_fault_ = 0;
};

}  // namespace mpiv::fault
