package core

import (
	"strings"
	"testing"

	"adhocsim/internal/stats"
)

func fakeSweep() *SweepResult {
	return &SweepResult{
		XLabel:    "pause_s",
		Xs:        []float64{0, 30},
		Protocols: []string{DSR, AODV},
		Cells: map[string][]stats.Results{
			DSR: {
				{PDR: 0.95, AvgDelay: 0.010, RoutingTxPackets: 100, NormalizedRoutingLoad: 1.0, ThroughputKbps: 20},
				{PDR: 0.99, AvgDelay: 0.008, RoutingTxPackets: 50, NormalizedRoutingLoad: 0.5, ThroughputKbps: 21},
			},
			AODV: {
				{PDR: 0.93, AvgDelay: 0.012, RoutingTxPackets: 300, NormalizedRoutingLoad: 3.0, ThroughputKbps: 19},
				{PDR: 0.98, AvgDelay: 0.009, RoutingTxPackets: 120, NormalizedRoutingLoad: 1.2, ThroughputKbps: 20},
			},
		},
	}
}

func TestRenderFigureLayout(t *testing.T) {
	f := Figure{ID: "fig1", Title: "PDR vs pause", Metric: MetricPDR, Sweep: fakeSweep()}
	out := RenderFigure(f)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title + header + 2 data rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "FIG1") || !strings.Contains(lines[0], "%") {
		t.Fatalf("title line %q", lines[0])
	}
	if !strings.Contains(lines[1], "DSR") || !strings.Contains(lines[1], "AODV") {
		t.Fatalf("header %q", lines[1])
	}
	if !strings.Contains(lines[2], "95.000") || !strings.Contains(lines[2], "93.000") {
		t.Fatalf("row 0 %q", lines[2])
	}
}

func TestRenderFigureCSVRoundTrip(t *testing.T) {
	f := Figure{ID: "fig2", Title: "overhead", Metric: MetricOverhead, Sweep: fakeSweep()}
	csv := RenderFigureCSV(f)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+2*2 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if lines[0] != "pause_s,protocol,routing_overhead_pkts" {
		t.Fatalf("header %q", lines[0])
	}
	if lines[1] != "0,DSR,100" || lines[2] != "0,AODV,300" {
		t.Fatalf("rows %q %q", lines[1], lines[2])
	}
}

func TestRenderSummaryTable(t *testing.T) {
	res := map[string]stats.Results{
		DSR:  {PDR: 0.9, AvgDelay: 0.01, NormalizedRoutingLoad: 1, AvgHops: 2.5},
		DSDV: {PDR: 0.5, AvgDelay: 0.002, NormalizedRoutingLoad: 4, AvgHops: 2.0},
	}
	out := RenderSummaryTable(res, []string{DSR, DSDV})
	if !strings.Contains(out, "pdr (%)") || !strings.Contains(out, "90.000") || !strings.Contains(out, "50.000") {
		t.Fatalf("summary:\n%s", out)
	}
}

func TestRenderOverheadBreakdown(t *testing.T) {
	res := map[string]stats.Results{
		DSR:  {RoutingByType: map[string]uint64{"RREQ": 10, "RREP": 5}},
		DSDV: {},
	}
	out := RenderOverheadBreakdown(res, []string{DSR, DSDV})
	if !strings.Contains(out, "RREP=5  RREQ=10") {
		t.Fatalf("breakdown not sorted/complete:\n%s", out)
	}
	if !strings.Contains(out, "(none)") {
		t.Fatalf("empty protocol row missing:\n%s", out)
	}
}

func TestRenderPathOptimality(t *testing.T) {
	hist := map[string]map[int]uint64{
		DSR:  {0: 80, 1: 15, 2: 5},
		AODV: {0: 90, 1: 10},
	}
	out := RenderPathOptimality(hist, []string{DSR, AODV})
	if !strings.Contains(out, "80.0%") || !strings.Contains(out, "90.0%") {
		t.Fatalf("histogram:\n%s", out)
	}
	if !strings.Contains(out, "+0") || !strings.Contains(out, "..") {
		t.Fatalf("labels:\n%s", out)
	}
}

func TestRenderParameters(t *testing.T) {
	out := RenderParameters(DefaultOptions())
	for _, want := range []string{"nodes", "40", "1500 x 300 m", "random waypoint", "802.11"} {
		if !strings.Contains(out, want) {
			t.Fatalf("parameters missing %q:\n%s", want, out)
		}
	}
}

// TestRenderRegistriesGolden pins the `adhocsim models` text: the
// protocol line, the four kinds in table order, every parameter vocabulary.
func TestRenderRegistriesGolden(t *testing.T) {
	const want = `protocols: AODV, AUTOCONF, CBRP, DSDV, DSR, FLOOD, PAODV
mobility models:
  gauss-markov     alpha, margin_m, max_speed_mps, mean_speed_mps, min_speed_mps, sigma_dir_rad, sigma_speed_mps, tick_s
  manhattan        blocks_x, blocks_y, max_speed_mps, min_speed_mps, turn_prob
  rpgm             groups, max_speed_mps, min_speed_mps, pause_s, resample_s, spread_m
  static-grid      jitter_m
  walk             max_speed_mps, min_speed_mps, step_s
  waypoint         max_speed_mps, min_speed_mps, pause_s
traffic models:
  cbr              (no parameters)
  expoo            off_s, on_s
  poisson          (no parameters)
radio models:
  freespace        capture_ratio, noise_dbm
  pathloss         capture_ratio, exponent, noise_dbm, ref_dist_m
  rayleigh         capture_ratio, max_gain_db, noise_dbm
  ricean           capture_ratio, k_db, max_gain_db, noise_dbm
  shadowing        capture_ratio, exponent, max_dev_db, noise_dbm, ref_dist_m, sigma_db
  tworay           capture_ratio, noise_dbm
lifecycle models:
  flashcrowd       at_s, base_frac, window_s
  onoff-fail       mean_down_s, mean_up_s
  partition-heal   at_s, outage_s, region_frac
  staggered-join   start_s, window_s
  static           (no parameters)
`
	if got := RenderRegistries(); got != want {
		t.Errorf("RenderRegistries() =\n%s\nwant\n%s", got, want)
	}
}

func TestDefaultPausesScaling(t *testing.T) {
	full := DefaultPauses(900 * 1e9)
	if len(full) != 7 || full[6] != 900 {
		t.Fatalf("full pauses = %v", full)
	}
	half := DefaultPauses(450 * 1e9)
	if half[6] != 450 || half[0] != 0 {
		t.Fatalf("scaled pauses = %v", half)
	}
}
