// Shared ASCII timeline plotting.
//
// One renderer for every CLI that draws a per-bin signal as rows of bars:
// trace_synth's delivered-rate view and sweep_report's Figure-1/6-style
// forecast-vs-capacity and delay charts.  A chart is one row per bin, the
// bar scaled so the largest value spans the configured width; an optional
// overlay series marks a second signal's position on the same scale, which
// is how "what the forecast believed" is drawn against "what the channel
// delivered" in one terminal row.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "util/units.h"

namespace sprout {

struct AsciiPlotOptions {
  int width = 60;          // columns of the full-scale bar
  double bin_s = 1.0;      // seconds per row (time labels)
  int time_precision = 1;  // decimals of the row's time label
  char bar = '#';          // bar fill
  char mark = '*';         // overlay marker
};

// Renders `bar` (one value per bin) as rows of bars.  When `overlay` is
// non-empty it must be the same length; each row then also carries a
// single marker at the overlay value's column on the shared scale (the
// scale's peak is the max over BOTH series, so the two signals are
// directly comparable).  Values are clamped at zero; an all-zero chart
// renders empty rows rather than dividing by zero.
void render_ascii_plot(std::ostream& os, const std::vector<double>& bar,
                       const std::vector<double>& overlay,
                       const AsciiPlotOptions& opt);

// Single-series convenience.
void render_ascii_plot(std::ostream& os, const std::vector<double>& bar,
                       const AsciiPlotOptions& opt);

}  // namespace sprout
