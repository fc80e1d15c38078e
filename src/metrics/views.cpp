#include "metrics/views.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "causal/wire.hpp"
#include "net/cost_model.hpp"
#include "util/table.hpp"

namespace mpiv::metrics {

namespace {

// ---------------------------------------------------------------------------
// Run-object accessors shared by the cell functions.

std::string label_of(const Json& run) {
  const Json* l = run.find("label");
  return l != nullptr && l->kind == Json::Kind::kString ? l->str : "?";
}

const std::string& axis_value(const Json& run, const std::string& axis) {
  const Json* axes = run.find("axes");
  const Json* v = axes != nullptr ? axes->find(axis) : nullptr;
  if (v == nullptr || v->kind != Json::Kind::kString) {
    throw std::runtime_error("run '" + label_of(run) +
                             "' has no sweep axis '" + axis + "'");
  }
  return v->str;
}

/// Header text for an axis value: the protocol label for `variant`.
std::string display(const Json& run, const std::string& axis) {
  if (axis == "variant") {
    if (const Json* p = run.find("protocol");
        p != nullptr && p->kind == Json::Kind::kString) {
      return p->str;
    }
  }
  return axis_value(run, axis);
}

/// Numeric member at a dotted path ("el.mean_ack_us").
double num(const Json& obj, const std::string& path) {
  const Json* v = &obj;
  for (std::size_t start = 0; v != nullptr;) {
    const std::size_t dot = path.find('.', start);
    v = v->find(path.substr(start, dot - start));
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  if (v == nullptr || v->kind != Json::Kind::kNumber) {
    throw std::runtime_error("run '" + label_of(obj) + "' has no metric '" +
                             path + "'");
  }
  return v->number;
}

bool completed(const Json& run) {
  const Json* c = run.find("completed");
  return c != nullptr && c->kind == Json::Kind::kBool && c->boolean;
}

const std::vector<Json>& points(const Json& run) {
  const Json* pts = run.find("points");
  if (pts == nullptr || pts->kind != Json::Kind::kArray) {
    throw std::runtime_error("run '" + label_of(run) + "' has no points[]");
  }
  return pts->items;
}

/// A field of the run's first recovery record (Fig. 10's timeline).
double recovery(const Json& run, const char* field) {
  const Json* recs = run.find("recoveries");
  if (recs == nullptr || recs->items.empty()) {
    throw std::runtime_error("run '" + label_of(run) + "' has no recovery");
  }
  return num(recs->items[0], field);
}

/// The cell's only run; a second one means the report sweeps an axis the
/// view neither shows nor averages.
const Json& one(const CellRuns& c) {
  if (c.runs.size() != 1) {
    throw std::runtime_error(
        "cell of '" + label_of(*c.runs.front()) + "' folds " +
        std::to_string(c.runs.size()) +
        " runs: the report sweeps an axis this view does not show");
  }
  return *c.runs.front();
}

/// The row's run with `axis` = `value` (Fig. 10 pairs EL and no-EL runs).
const Json& pick(const CellRuns& c, const std::string& axis,
                 const std::string& value) {
  for (const Json* r : c.runs) {
    if (axis_value(*r, axis) == value) return *r;
  }
  throw std::runtime_error("row of '" + label_of(*c.runs.front()) +
                           "' has no run with " + axis + " = " + value);
}

std::string fmt(const char* f, double v) { return util::cell(f, v); }

// ---------------------------------------------------------------------------
// Cell functions.

/// A string literal usable as a template argument, so the one-field cells
/// below are instantiations instead of hand-written lambdas.
template <std::size_t N>
struct Lit {
  constexpr Lit(const char (&s)[N]) { std::copy_n(s, N, str); }
  char str[N];
};

/// Metric `Key` (a dotted path) of the cell's only run, printed with `F`.
template <Lit F, Lit Key>
std::string field(const CellRuns& c) {
  return fmt(F.str, num(one(c), Key.str));
}

/// Recovery-timeline field `Key` of the cell's only run.
template <Lit F, Lit Key>
std::string recovery_field(const CellRuns& c) {
  return fmt(F.str, recovery(one(c), Key.str));
}

/// Recovery-timeline field `Key` of the row's `Variant` run (Fig. 10).
template <Lit F, Lit Variant, Lit Key>
std::string variant_recovery(const CellRuns& c) {
  return fmt(F.str, recovery(pick(c, "variant", Variant.str), Key.str));
}

/// Fig. 1: mean completion time over the folded seeds, in % of the same
/// protocol's fault-free row; any seed that missed max_sim_time makes the
/// cell "no progress".
std::string fig1_slowdown(const CellRuns& c) {
  const auto mean_time = [](const CellRuns& cell, double& out) {
    out = 0;
    for (const Json* r : cell.runs) {
      if (!completed(*r)) return false;
      out += num(*r, "sim_time_s");
    }
    out /= static_cast<double>(cell.runs.size());
    return true;
  };
  double t = 0;
  double base = 0;
  if (c.base->runs.empty()) return "-";
  if (!mean_time(c, t) || !mean_time(*c.base, base)) return "no progress";
  return fmt("%.0f%%", 100.0 * t / base);
}

std::string paper_latency_us(const CellRuns& c) {
  static const std::pair<const char*, double> kPaper[] = {
      {"p4", 99.56},          {"vdummy", 134.84},
      {"vcausal:el", 156.92}, {"manetho:el", 156.80},
      {"logon:el", 155.83},   {"vcausal:noel", 165.17},
      {"manetho:noel", 173.15}, {"logon:noel", 172.80},
  };
  const std::string& variant = axis_value(one(c), "variant");
  for (const auto& [name, us] : kPaper) {
    if (variant == name) return fmt("%.2f", us);
  }
  throw std::runtime_error("no paper latency for variant '" + variant + "'");
}

/// Fig. 6b's analytic RAW TCP curve from the default cost model: one-way
/// time = serialization of payload + 66 B of headers + wire latency.
std::string raw_tcp_mbps(const CellRuns& c) {
  const double bytes = num(points(*c.runs.front()).at(c.point), "bytes");
  const net::CostModel cost;
  const double oneway_us =
      sim::to_us(cost.tx_time(static_cast<std::uint64_t>(bytes) + 66) +
                 cost.wire_latency);
  return fmt("%.2f", bytes * 8.0 / oneway_us);
}

/// Fig. 8b: piggyback CPU over total CPU time (makespan x ranks).
std::string pb_cpu_share(const CellRuns& c) {
  const Json& r = one(c);
  const double exec = num(r, "sim_time_s") *
                      std::strtod(axis_value(r, "nranks").c_str(), nullptr);
  const double cpu = num(r, "pb_send_cpu_s") + num(r, "pb_recv_cpu_s");
  return fmt("%.2f%%", exec > 0 ? 100.0 * cpu / exec : 0.0);
}

std::string bytes_per_event(const CellRuns& c) {
  const Json& r = one(c);
  return fmt("%.2f", num(r, "pb_bytes") / num(r, "pb_events"));
}

std::string collect_ratio(const CellRuns& c) {
  const double with_el =
      recovery(pick(c, "variant", "vcausal:el"), "collect_ms");
  const double without_el =
      recovery(pick(c, "variant", "vcausal:noel"), "collect_ms");
  return fmt("%.1fx", without_el / std::max(0.001, with_el));
}

bool not_ft(const Json& run) {
  return axis_value(run, "nas").rfind("ft:", 0) != 0;
}

/// The wire-format ablation's runs: LU without the EL (the biggest
/// piggybacks) at the two ends of the block-size spectrum, 4 and 16 ranks.
bool lu_noel_4_16(const Json& run) {
  const std::string& v = axis_value(run, "variant");
  const std::string& n = axis_value(run, "nranks");
  return axis_value(run, "nas").rfind("lu:", 0) == 0 && v.size() > 5 &&
         v.compare(v.size() - 5, 5, ":noel") == 0 && (n == "4" || n == "16") &&
         num(run, "pb_events") > 0;
}

std::string wire_footer() {
  return util::cell(
      "Format constants: factored block = %llu B header + %llu B/event;\n"
      "per-event (LogOn) = %llu B/event flat.\n",
      static_cast<unsigned long long>(causal::wire::kFactoredBlockHeader),
      static_cast<unsigned long long>(causal::wire::kFactoredPerEvent),
      static_cast<unsigned long long>(causal::wire::kPlainPerEvent));
}

std::vector<TableView> make_views() {
  std::vector<TableView> v;
  v.push_back({
      .scenarios = {"fig1_coordinated", "fig1_logging"},
      .title = "Fig. 1 — slowdown vs fault frequency, BT-class on 25 nodes "
               "(in % of fault-free execution, mean over seeds)\n(paper: "
               "coordinated hits a vertical slope by ~2/3 faults/min; "
               "logging degrades gracefully)",
      .row_axis = "faults_per_minute",
      .col_axis = "variant",
      .cell = fig1_slowdown,
  });
  v.push_back({
      .scenarios = {"fig6a"},
      .title = "Fig. 6(a) — NetPIPE 1-byte latency (us), Ethernet 100 Mb/s\n"
               "(paper: P4 99.56 | Vdummy 134.84 | EL ~156 | noEL 165-173)",
      .row_axis = "variant",
      .columns = {{"latency (us)",
                   [](const CellRuns& c) {
                     return fmt("%.2f",
                                num(points(one(c)).at(0), "latency_us"));
                   }},
                  {"paper (us)", paper_latency_us},
                  {"empty piggybacks", field<"%.0f", "pb_empty_msgs">},
                  {"messages", field<"%.0f", "app_msgs">}},
  });
  v.push_back({
      .scenarios = {"fig6b"},
      .title = "Fig. 6(b) — NetPIPE bandwidth (Mb/s) vs message size\n"
               "(paper: raw TCP ~89 peak; Vdummy > P4 at large sizes; causal "
               "~7-10% below)",
      .row_axis = kPointRows,
      .col_axis = "variant",
      .cell =
          [](const CellRuns& c) {
            return fmt("%.2f",
                       num(points(one(c)).at(c.point), "bandwidth_mbps"));
          },
      .columns = {{"RAW TCP", raw_tcp_mbps}},
      .footer = "Note: causal curves coincide in ping-pong (same single-event\n"
                "piggyback); the sender-based payload copy causes the drop "
                "below\nVdummy, the half-duplex ch_p4 protocol the P4 "
                "deficit.\n",
  });
  v.push_back({
      .scenarios = {"fig78"},
      .title = "Fig. 7 — piggybacked data, % of application data exchanged\n"
               "(paper: EL cuts volume 10-100x; Vcausal worst w/o EL; LU/16 "
               "stresses the EL)",
      .panel_axis = "nas",
      .row_axis = "nranks",
      .col_axis = "variant",
      .cell = field<"%.3f", "pb_pct">,
      .keep = not_ft,
  });
  v.push_back({
      .scenarios = {"fig78"},
      .title = "Fig. 8(a) — cumulative piggyback management time (cells: "
               "send / recv seconds)\n(paper: Vcausal << graphs; LogOn "
               "send-heavy, Manetho recv-heavy; no EL explodes)",
      .panel_axis = "nas",
      .row_axis = "nranks",
      .col_axis = "variant",
      .cell =
          [](const CellRuns& c) {
            const Json& r = one(c);
            return util::cell("%.4f / %.4f", num(r, "pb_send_cpu_s"),
                              num(r, "pb_recv_cpu_s"));
          },
  });
  v.push_back({
      .scenarios = {"fig78"},
      .title = "Fig. 8(b) — piggyback computation, % of total execution "
               "time\n(paper: BT/FT ~0-1% w/ EL; LU up to ~40% w/o EL)",
      .panel_axis = "nas",
      .row_axis = "nranks",
      .col_axis = "variant",
      .cell = pb_cpu_share,
  });
  v.push_back({
      .scenarios = {"fig78"},
      .title = "Ablation C — factored vs per-event piggyback encoding (LU, "
               "no EL)\n(LogOn wider per event, except when blocks are "
               "tiny: LU/4)",
      .panel_axis = "nranks",
      .row_axis = "variant",
      .columns = {{"events", field<"%.0f", "pb_events">},
                  {"pb bytes", field<"%.0f", "pb_bytes">},
                  {"bytes/event", bytes_per_event}},
      .keep = lu_noel_4_16,
      .footer = wire_footer(),
  });
  v.push_back({
      .scenarios = {"fig9"},
      .title = "Fig. 9 — NAS benchmark total Mop/s per protocol\n(paper: EL "
               "> no EL everywhere; causal ~Vdummy at coarse grain; LU/16 "
               "separates)",
      .panel_axis = "nas",
      .row_axis = "nranks",
      .col_axis = "variant",
      .cell = field<"%.0f", "mops">,
  });
  v.push_back({
      .scenarios = {"fig10"},
      .title = "Fig. 10 — time to recover all events to replay (ms), "
               "Vcausal\n(paper: EL: one transfer, flat in #procs; no EL: all "
               "survivors ship copies. Phase columns from the EL run's "
               "recovery timeline.)",
      .panel_axis = "nas",
      .row_axis = "nranks",
      .columns =
          {{"with EL (ms)",
            variant_recovery<"%.3f", "vcausal:el", "collect_ms">},
           {"without EL (ms)",
            variant_recovery<"%.3f", "vcausal:noel", "collect_ms">},
           {"ratio", collect_ratio},
           {"image (ms)", variant_recovery<"%.3f", "vcausal:el", "image_ms">},
           {"replay (ms)",
            variant_recovery<"%.3f", "vcausal:el", "replay_ms">},
           {"events", variant_recovery<"%.0f", "vcausal:el", "events">}},
  });
  v.push_back({
      .scenarios = {"recovery_saturated_el"},
      .title = "Fig. 10 beyond the paper — collect vs EL redundancy under a "
               "saturated shard (LU A / 8, el_service = 2 ms)",
      .row_axis = "el_shards",
      .columns = {{"collect (ms)", recovery_field<"%.3f", "collect_ms">},
                  {"image (ms)", recovery_field<"%.3f", "image_ms">},
                  {"replay (ms)", recovery_field<"%.3f", "replay_ms">},
                  {"events", recovery_field<"%.0f", "events">}},
  });
  v.push_back({
      .scenarios = {"ablation_el_latency"},
      .title = "Ablation A — Event Logger service-time sweep (CG A / 8 "
               "ranks)\n(slow EL converges to no-EL piggyback volume; the "
               "no-EL reference is fig78's cg:A:1.0 / 8 / Vcausal (no EL) "
               "cell)",
      .row_axis = "cost.el_service",
      .columns = {{"pb % of app bytes", field<"%.3f", "pb_pct">},
                  {"ack latency (us)", field<"%.1f", "el.mean_ack_us">},
                  {"run time (s)", field<"%.2f", "sim_time_s">},
                  {"EL peak queue", field<"%.0f", "el.peak_queue">}},
  });
  v.push_back({
      .scenarios = {"ablation_ckpt_sched"},
      .title = "Ablation B — checkpoint scheduler policies (CG A / 8, "
               "causal+EL)\n(round-robin maximizes sender-log GC at steady "
               "server load)",
      .row_axis = "ckpt_policy",
      .columns = {{"run time (s)", field<"%.2f", "sim_time_s">},
                  {"peak sender log (KB)",
                   [](const CellRuns& c) {
                     return fmt("%.1f",
                                num(one(c), "sender_log_peak_bytes") / 1024.0);
                   }},
                  {"recovery events", field<"%.0f", "recovery.events">},
                  {"recovery time (ms)", field<"%.2f", "recovery.total_ms">}},
  });
  v.push_back({
      .scenarios = {"ablation_multi_el"},
      .title = "Ablation D — distributed Event Logger on the LU/16 "
               "bottleneck\n(paper SVI: sharding the EL relieves the ack "
               "backlog; the no-EL reference is fig78's lu:A:0.12 / 16 / "
               "Vcausal (no EL) cell)",
      .row_axis = "el_shards",
      .columns = {{"pb % of app bytes", field<"%.3f", "pb_pct">},
                  {"ack latency (us)", field<"%.1f", "el.mean_ack_us">},
                  {"Mop/s", field<"%.0f", "mops">},
                  {"EL peak queue", field<"%.0f", "el.peak_queue">}},
  });
  return v;
}

// ---------------------------------------------------------------------------
// Layout: panels x rows x columns, each in first-appearance (sweep) order.

struct Row {
  std::string key;
  std::string label;
  std::size_t point = 0;
  std::vector<const Json*> runs;
};

struct Panel {
  std::string key;
  std::vector<Row> rows;
};

/// The report's run sets: the document itself, or each of its "reports".
std::vector<const Json*> report_sets(const Json& doc) {
  std::vector<const Json*> sets;
  if (const Json* reports = doc.find("reports");
      reports != nullptr && reports->kind == Json::Kind::kArray) {
    for (const Json& sub : reports->items) sets.push_back(&sub);
  } else {
    sets.push_back(&doc);
  }
  return sets;
}

std::string scenario_of(const Json& set) {
  const Json* s = set.find("scenario");
  return s != nullptr && s->kind == Json::Kind::kString ? s->str : "";
}

/// True for the runs a table can use: skipped corners and lost workers
/// carry no metrics.
bool has_metrics(const Json& run) {
  for (const char* flag : {"skipped", "failed"}) {
    const Json* f = run.find(flag);
    if (f != nullptr && f->kind == Json::Kind::kBool && f->boolean) {
      return false;
    }
  }
  return true;
}

/// The entry of `v` with `key`, appended when new (keeps first-seen order).
template <typename T>
T& slot(std::vector<T>& v, const std::string& key) {
  for (T& x : v) {
    if (x.key == key) return x;
  }
  v.push_back(T{});
  v.back().key = key;
  return v.back();
}

CellRuns column_cell(const Row& row, const std::string& col_axis,
                     const std::string& col) {
  CellRuns c;
  c.point = row.point;
  for (const Json* r : row.runs) {
    if (axis_value(*r, col_axis) == col) c.runs.push_back(r);
  }
  return c;
}

std::string render(const TableView& view,
                   const std::vector<const Json*>& sets) {
  std::vector<Panel> panels;
  std::vector<std::pair<std::string, std::string>> cols;  // key, header
  bool any = false;
  for (const Json* set : sets) {
    const Json* runs = set->find("runs");
    if (runs == nullptr) continue;
    for (const Json& r : runs->items) {
      if (!has_metrics(r) || (view.keep != nullptr && !view.keep(r))) continue;
      any = true;
      Panel& panel = slot(panels, view.panel_axis.empty()
                                      ? ""
                                      : axis_value(r, view.panel_axis));
      if (view.row_axis == kPointRows) {
        const std::vector<Json>& pts = points(r);
        for (std::size_t i = 0; i < pts.size(); ++i) {
          const std::string bytes = fmt("%.0f", num(pts[i], "bytes"));
          Row& row = slot(panel.rows, bytes);
          row.label = bytes;
          row.point = i;
          row.runs.push_back(&r);
        }
      } else {
        Row& row = slot(panel.rows, axis_value(r, view.row_axis));
        row.label = display(r, view.row_axis);
        row.runs.push_back(&r);
      }
      if (!view.col_axis.empty()) {
        const std::string& col = axis_value(r, view.col_axis);
        if (std::none_of(cols.begin(), cols.end(),
                         [&](const auto& c) { return c.first == col; })) {
          cols.emplace_back(col, display(r, view.col_axis));
        }
      }
    }
  }

  std::string out = "== " + view.title + "\n";
  if (!any) out += "(no runs)\n";
  for (const Panel& panel : panels) {
    if (!view.panel_axis.empty()) {
      out += "\n-- " + view.panel_axis + " = " + panel.key + " --\n";
    }
    std::vector<std::string> headers = {
        view.row_axis == kPointRows ? "bytes" : view.row_axis};
    for (const ViewColumn& c : view.columns) headers.push_back(c.header);
    for (const auto& c : cols) headers.push_back(c.second);
    util::Table table(headers);
    for (const Row& row : panel.rows) {
      std::vector<std::string> cells = {row.label};
      const CellRuns all{row.runs, nullptr, row.point};
      for (const ViewColumn& c : view.columns) cells.push_back(c.cell(all));
      for (const auto& c : cols) {
        const CellRuns base =
            column_cell(panel.rows.front(), view.col_axis, c.first);
        CellRuns cell = column_cell(row, view.col_axis, c.first);
        cell.base = &base;
        cells.push_back(cell.runs.empty() ? "-" : view.cell(cell));
      }
      table.add_row(std::move(cells));
    }
    out += table.str();
  }
  if (!view.footer.empty()) out += "\n" + view.footer;
  return out;
}

}  // namespace

const std::vector<TableView>& table_views() {
  static const std::vector<TableView> views = make_views();
  return views;
}

std::string render_tables(const Json& report) {
  const std::vector<const Json*> sets = report_sets(report);
  std::string out;
  for (const TableView& view : table_views()) {
    std::vector<const Json*> read;
    for (const Json* set : sets) {
      if (std::find(view.scenarios.begin(), view.scenarios.end(),
                    scenario_of(*set)) != view.scenarios.end()) {
        read.push_back(set);
      }
    }
    if (read.empty()) continue;
    if (!out.empty()) out += "\n";
    out += render(view, read);
  }
  if (out.empty()) {
    std::string names;
    for (const Json* set : sets) {
      names += (names.empty() ? "" : ", ") + scenario_of(*set);
    }
    throw std::runtime_error("no table view for scenario(s) '" + names + "'");
  }
  return out;
}

}  // namespace mpiv::metrics
