// Paper-figure tables over mpiv_run JSON reports — the views behind
// `mpiv_stat --table`. Each view is one static entry: the report sets it
// reads (by "scenario" name), a title, the sweep axes that lay out its
// panels, rows and columns, and cell functions over the run objects. A
// report picks its views by scenario name; there is no view selector and
// no expression language.
//
// Lives in the library (not the tool) so tests/test_metrics.cpp can unit
// test the renderers on hand-written reports and check every view's axes
// against its scenario file.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "metrics/stat.hpp"

namespace mpiv::metrics {

/// The runs behind one table cell: every kept run sharing the view's panel,
/// row and column values. A view folds any axis it does not show, so a cell
/// can hold several runs (Fig. 1 averages over `seed`).
struct CellRuns {
  std::vector<const Json*> runs;
  /// The same column in the panel's first row (Fig. 1 normalizes by it).
  const CellRuns* base = nullptr;
  /// Index into each run's `points[]` when rows are ping-pong sizes.
  std::size_t point = 0;
};

using CellFn = std::string (*)(const CellRuns&);

/// A fixed column, computed over every run of its row.
struct ViewColumn {
  std::string header;
  CellFn cell;
};

/// Row axis meaning "one row per entry of the runs' points[] array" (the
/// ping-pong message sizes of Fig. 6b).
inline const std::string kPointRows = "points[]";

struct TableView {
  std::vector<std::string> scenarios = {};  // report sets the view reads
  std::string title = {};
  std::string panel_axis = {};  // one table per value; empty = a single table
  std::string row_axis = {};    // sweep axis (or kPointRows) giving the rows
  std::string col_axis = {};    // one column per value; empty = none
  CellFn cell = nullptr;        // body of every col_axis column
  std::vector<ViewColumn> columns = {};  // fixed, left of the axis columns
  bool (*keep)(const Json& run) = nullptr;  // run filter; nullptr keeps all
  std::string footer = {};
};

/// Every view, in print order.
const std::vector<TableView>& table_views();

/// Renders each view that reads one of the report's sets. Throws
/// std::runtime_error when no view matches the report, or when a run lacks
/// an axis or metric its view reads.
std::string render_tables(const Json& report);

}  // namespace mpiv::metrics
