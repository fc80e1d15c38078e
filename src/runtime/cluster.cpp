#include "runtime/cluster.hpp"

#include <algorithm>
#include <string>

#include "fault/engine.hpp"
#include "scenario/registry.hpp"

namespace mpiv::runtime {

namespace {

/// Validates and normalizes a config before any member sizes anything off
/// it (a bad nranks must hit these diagnostics, not a multi-GB allocation
/// in Network / the stats vector).
ClusterConfig validated(ClusterConfig cfg) {
  MPIV_CHECK(cfg.nranks >= 1 && cfg.nranks <= 4096,
             "nranks must be in [1, 4096] (got %d)", cfg.nranks);
  MPIV_CHECK(cfg.el_shards >= 1, "el_shards must be >= 1 (got %d)",
             cfg.el_shards);
  MPIV_CHECK(cfg.el_shards <= cfg.nranks,
             "el_shards (%d) cannot exceed nranks (%d)", cfg.el_shards,
             cfg.nranks);
  MPIV_CHECK(cfg.el_shards == 1 || cfg.event_logger,
             "el_shards = %d requires event_logger = true (sharding a "
             "disabled Event Logger is meaningless)",
             cfg.el_shards);
  MPIV_CHECK(cfg.el_standby >= 0 && cfg.el_standby <= 64,
             "el_standby must be in [0, 64] (got %d)", cfg.el_standby);
  MPIV_CHECK(cfg.el_standby == 0 || cfg.event_logger,
             "el_standby = %d requires event_logger = true", cfg.el_standby);
  const scenario::ProtocolEntry& proto = scenario::protocol_entry(cfg.protocol);
  MPIV_CHECK(proto.fault_tolerant || cfg.campaign.empty(),
             "%s is not fault tolerant", proto.label(cfg).c_str());
  // Campaign sanity through the shared rule set (fault/campaign.hpp): every
  // injection must name a real target and an implementable trigger/action
  // combination before anything is scheduled.
  fault::validate_campaign(cfg.campaign, cfg.nranks,
                           cfg.el_shards + cfg.el_standby, cfg.event_logger,
                           [](const std::string& what) {
                             MPIV_CHECK(false, "campaign: %s", what.c_str());
                           });
  if (proto.global_checkpoints && cfg.ckpt_policy != ckpt::Policy::kNone) {
    cfg.ckpt_policy = ckpt::Policy::kAllAtOnce;
  }
  return cfg;
}

}  // namespace

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(validated(std::move(cfg))),
      layout_{cfg_.nranks, cfg_.el_shards + cfg_.el_standby},
      net_(eng_, layout_.total_nodes(), cfg_.cost),
      stats_(static_cast<std::size_t>(cfg_.nranks)) {
  el_dir_.init(cfg_.nranks, cfg_.el_shards, cfg_.el_standby);
  timeline_.reset(cfg_.nranks);
  if (cfg_.trace.enabled) {
    trace_ = std::make_unique<trace::TraceSink>(cfg_.nranks, layout_.el_count,
                                                cfg_.trace.capacity);
    net_.set_trace(trace_->engine_lane());
  }

  for (int shard = 0; shard < layout_.el_count; ++shard) {
    els_.push_back(std::make_unique<elog::EventLogger>(
        net_, layout_, &el_stats_, shard, &el_dir_, nullptr));
    if (trace_) els_.back()->set_trace(trace_->el_lane(shard));
  }

  fault::FaultEngine::Bindings fb;
  fb.eng = &eng_;
  fb.net = &net_;
  fb.layout = layout_;
  fb.directory = &el_dir_;
  for (auto& e : els_) fb.els.push_back(e.get());
  fb.crash_rank = [this](int r) {
    if (dispatcher_) dispatcher_->fault(r);
  };
  fb.alive_ranks = [this] {
    return dispatcher_ ? dispatcher_->alive_ranks() : std::vector<int>{};
  };
  fb.run_done = [this] { return dispatcher_ && dispatcher_->all_done(); };
  fb.send_ctl = [this](net::Message&& m) {
    if (dispatcher_) dispatcher_->send_ctl(std::move(m));
  };
  fb.crash_daemon = [this](int r) {
    ranks_[static_cast<std::size_t>(r)]->daemon_crash();
  };
  fb.restart_daemon = [this](int r) {
    return ranks_[static_cast<std::size_t>(r)]->daemon_restart();
  };
  fb.daemon_is_down = [this](int r) {
    return ranks_[static_cast<std::size_t>(r)]->daemon_down();
  };
  fb.timeline = &timeline_;
  if (trace_) fb.trace = trace_->engine_lane();
  // The same detector window the dispatcher uses for rank crashes bounds
  // how long a service cut goes unsuspected (faults.detection_delay
  // overrides it per campaign).
  fb.detection_delay = cfg_.detection_delay;
  fault_engine_ = std::make_unique<fault::FaultEngine>(cfg_.campaign, cfg_.seed,
                                                       std::move(fb));
  for (auto& e : els_) e->set_observer(fault_engine_.get());

  mpi::RankHooks hooks;
  hooks.el_directory = &el_dir_;
  hooks.observer = fault_engine_.get();
  hooks.timeline = &timeline_;
  hooks.el_fault_at = fault_engine_->first_el_fault_ptr();
  // Retransmit timers fire only when a service or link can fail: fault-free
  // and rank-crash-only runs stay event-for-event identical to the
  // pre-engine runtime (the determinism goldens pin this).
  hooks.service_retry = cfg_.campaign.needs_service_retry()
                            ? cfg_.campaign.service_retry
                            : 0;
  hooks.trace = trace_.get();
  det_table_ = std::make_unique<causal::DetTable>(cfg_.nranks);
  hooks.det_table = det_table_.get();

  const net::ChannelKind channel =
      scenario::protocol_entry(cfg_.protocol).channel;
  for (int r = 0; r < cfg_.nranks; ++r) {
    ranks_.push_back(std::make_unique<mpi::RankRuntime>(
        eng_, net_, layout_, r, channel, make_protocol(),
        &stats_[static_cast<std::size_t>(r)], cfg_.seed, hooks));
    ranks_.back()->set_process(
        &eng_.create_process("rank" + std::to_string(r)));
  }
  ckpt_ = std::make_unique<ckpt::CheckpointServer>(net_, layout_);
  sched_ = std::make_unique<ckpt::CheckpointScheduler>(
      net_, layout_, cfg_.ckpt_policy, cfg_.ckpt_interval, cfg_.seed);
  arm_metrics();
}

namespace {
/// Per-rank series columns are emitted only up to this rank count; beyond
/// it the CSV keeps the always-present sum/max aggregates (a 4096-rank
/// sweep must not produce a 4096-column series).
constexpr int kPerRankSeriesCap = 32;
}  // namespace

void Cluster::arm_metrics() {
  if (!cfg_.metrics.enabled) return;
  metrics_ = std::make_unique<metrics::Registry>();
  sampler_ = std::make_unique<metrics::Sampler>(cfg_.metrics.sample_interval);
  metrics::Sampler& s = *sampler_;
  // EL shards: submissions awaiting ack, and the stability-watermark lag —
  // determinants created by the shard's clientele that its contiguous
  // stable clock does not yet cover (what keeps piggyback sets fat).
  for (int sh = 0; sh < layout_.el_count; ++sh) {
    elog::EventLogger* el = els_[static_cast<std::size_t>(sh)].get();
    const std::string tag = "el" + std::to_string(sh);
    s.add_probe(tag + ".queue",
                [el] { return static_cast<std::int64_t>(el->queue_depth()); });
    s.add_probe(tag + ".lag", [this, el] {
      std::int64_t lag = 0;
      for (int r = 0; r < cfg_.nranks; ++r) {
        if (!el->owns_rank(r)) continue;
        const auto created = static_cast<std::int64_t>(
            stats_[static_cast<std::size_t>(r)].dets_created);
        const auto stable =
            static_cast<std::int64_t>(el->stable(static_cast<std::uint32_t>(r)));
        lag += std::max<std::int64_t>(0, created - stable);
      }
      return lag;
    });
  }
  s.add_probe("net.inflight", [this] {
    return static_cast<std::int64_t>(net_.inflight_frames());
  });
  s.add_probe("daemon.backlog", [this] {
    std::int64_t held = 0;
    for (auto& r : ranks_)
      held += static_cast<std::int64_t>(r->daemon().held_depth());
    return held;
  });
  s.add_probe("heap", [this] {
    return static_cast<std::int64_t>(eng_.queue_size());
  });
  // Piggyback set sizes: per-rank columns for small clusters, sum/max
  // aggregates always.
  if (cfg_.nranks <= kPerRankSeriesCap) {
    for (int r = 0; r < cfg_.nranks; ++r) {
      std::string col = "r";
      col += std::to_string(r);
      col += ".pb";
      s.add_probe(std::move(col), [this, r] {
        return static_cast<std::int64_t>(
            ranks_[static_cast<std::size_t>(r)]->protocol().pb_set_size());
      });
    }
  }
  s.add_probe("pb.sum", [this] {
    std::int64_t sum = 0;
    for (auto& r : ranks_)
      sum += static_cast<std::int64_t>(r->protocol().pb_set_size());
    return sum;
  });
  s.add_probe("pb.max", [this] {
    std::int64_t mx = 0;
    for (auto& r : ranks_)
      mx = std::max(mx,
                    static_cast<std::int64_t>(r->protocol().pb_set_size()));
    return mx;
  });
  // The engine's observation side-channel: fires between events, schedules
  // nothing — the run's event sequence stays byte-identical to metrics-off
  // (tests/test_determinism.cpp pins it).
  eng_.set_sampler(cfg_.metrics.sample_interval, cfg_.metrics.sample_interval,
                   [this](sim::Time t) { sampler_->tick(t); });
}

Cluster::~Cluster() = default;

std::unique_ptr<ftapi::VProtocol> Cluster::make_protocol() const {
  return scenario::protocol_entry(cfg_.protocol).make(cfg_);
}

std::string Cluster::protocol_label() const {
  return scenario::protocol_entry(cfg_.protocol).label(cfg_);
}

ClusterReport Cluster::run(mpi::AppFactory factory) {
  dispatcher_ = std::make_unique<Dispatcher>(
      net_, layout_, [this] {
        std::vector<mpi::RankRuntime*> v;
        for (auto& r : ranks_) v.push_back(r.get());
        return v;
      }(),
      factory, scenario::protocol_entry(cfg_.protocol).recovery,
      cfg_.detection_delay, &timeline_, cfg_.ulfm_repair_cost);
  fault_engine_->arm();
  sched_->start();
  dispatcher_->launch_all();

  if (cfg_.max_sim_time > 0) {
    eng_.run_until(cfg_.max_sim_time);
  } else {
    eng_.run();
  }

  // A daemon can still be inside a specified downtime window when the
  // workload completes (the victim had nothing left to send, or a
  // partition heal redelivered the last completion frame): the dispatcher
  // stops the engine at completion, so the respawn timer never fires.
  // Teardown drains those daemons here — the outage ends at run end —
  // instead of leaving the record open as if the daemon were lost.
  // Abandoned runs keep their records open: there "still down at run end"
  // is the truth.
  if (dispatcher_->all_done()) {
    for (int r = 0; r < cfg_.nranks; ++r) {
      mpi::RankRuntime& rr = *ranks_[static_cast<std::size_t>(r)];
      if (!rr.daemon_down()) continue;
      const long drained = rr.daemon_restart();
      if (drained >= 0) {
        timeline_.end_daemon(r, eng_.now(),
                             static_cast<std::uint64_t>(drained));
      }
    }
  }

  ClusterReport rep;
  rep.completed = dispatcher_->all_done();
  rep.completion_time = dispatcher_->completion_time();
  rep.faults_injected = dispatcher_->faults_injected();
  rep.rank_stats = stats_;
  // EL-side split-brain counters are kept per creator rank inside each
  // shard (all shards share one ElStats); fold them into the per-rank rows.
  for (const auto& e : els_) {
    for (int r = 0; r < cfg_.nranks; ++r) {
      rep.rank_stats[static_cast<std::size_t>(r)].el_dup_submissions +=
          e->dup_submissions(r);
      rep.rank_stats[static_cast<std::size_t>(r)].el_reconciled_records +=
          e->reconciled_records(r);
    }
  }
  rep.el_stats = el_stats_;
  rep.recoveries = timeline_.records();
  rep.daemon_outages = timeline_.daemon_records();
  rep.el_reconciles = timeline_.reconcile_records();
  rep.repairs = timeline_.repair_records();
  rep.promotions = timeline_.promotion_records();
  rep.fault_counts = fault_engine_->counts();
  rep.first_el_fault = fault_engine_->first_el_fault();
  fold_metrics(rep);
  return rep;
}

void Cluster::fold_metrics(ClusterReport& rep) {
  if (!metrics_) return;
  metrics::Registry& m = *metrics_;
  // Fabric totals.
  m.counter("net.frames_sent").add(net_.frames_sent());
  m.counter("net.frames_dropped").add(net_.frames_dropped());
  m.counter("net.frames_delayed").add(net_.frames_delayed());
  m.counter("net.frames_partitioned").add(net_.frames_partitioned());
  m.counter("net.bytes_sent").add(net_.bytes_sent());
  // Event Logger totals plus per-shard store activity (feeds `mpiv_stat
  // --top` shard ranking).
  m.counter("el.events_stored").add(el_stats_.events_stored);
  m.counter("el.acks_sent").add(el_stats_.acks_sent);
  m.counter("el.bytes_in").add(el_stats_.bytes_in);
  m.gauge("el.peak_queue").set(static_cast<std::int64_t>(el_stats_.peak_queue));
  for (int sh = 0; sh < layout_.el_count; ++sh) {
    m.counter("el" + std::to_string(sh) + ".stored_ops")
        .add(els_[static_cast<std::size_t>(sh)]->stored_ops());
  }
  // EL ack latency: per-rank histograms (feeds `--top` rank ranking) plus
  // the cluster-wide fold.
  metrics::Histogram all_acks;
  for (int r = 0; r < cfg_.nranks; ++r) {
    const metrics::Histogram& h =
        rep.rank_stats[static_cast<std::size_t>(r)].el_ack_latency_us;
    if (h.count() == 0) continue;
    m.histogram("rank" + std::to_string(r) + ".ack_us").merge(h);
    all_acks.merge(h);
  }
  if (all_acks.count() != 0) m.histogram("el.ack_us").merge(all_acks);
  // Per-rank piggyback traffic (the Fig. 7 quantity, rankable by --top).
  for (int r = 0; r < cfg_.nranks; ++r) {
    const ftapi::RankStats& rs =
        rep.rank_stats[static_cast<std::size_t>(r)];
    if (rs.pb_bytes_sent != 0) {
      m.counter("rank" + std::to_string(r) + ".pb_bytes").add(rs.pb_bytes_sent);
    }
  }
  // Recovery phase durations (Figs. 9-10): one histogram sample per
  // completed recovery, folded off-schedule from the timeline.
  for (const fault::RecoveryRecord& rec : rep.recoveries) {
    if (!rec.complete()) continue;
    m.histogram("recovery.detect_ms").add(sim::to_ms(rec.detect_ns()));
    m.histogram("recovery.image_ms").add(sim::to_ms(rec.image_ns()));
    m.histogram("recovery.collect_ms").add(sim::to_ms(rec.collect_ns()));
    m.histogram("recovery.replay_ms").add(sim::to_ms(rec.replay_ns()));
    m.histogram("recovery.total_ms").add(sim::to_ms(rec.total_ns()));
  }
  for (const fault::DaemonOutageRecord& d : rep.daemon_outages) {
    if (d.complete()) m.histogram("daemon.down_ms").add(sim::to_ms(d.down_ns()));
  }
  // Trace-lane ring overflow, visible in the report instead of only in
  // dump headers: one gauge per overflowed lane plus the total.
  if (trace_) {
    std::int64_t total_dropped = 0;
    for (const trace::Lane& lane : trace_->lanes()) {
      const auto dropped = static_cast<std::int64_t>(lane.dropped());
      total_dropped += dropped;
      if (dropped != 0) {
        m.gauge("trace." + lane.name() + ".dropped").set(dropped);
      }
    }
    m.gauge("trace.dropped_total").set(total_dropped);
  }
  rep.metrics = m.snapshot(sampler_.get());
}

}  // namespace mpiv::runtime
