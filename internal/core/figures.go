package core

import (
	"fmt"
	"sort"
	"strings"

	"adhocsim/internal/scenario"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// Figure is one rendered experiment: a sweep viewed through one metric.
type Figure struct {
	ID     string
	Title  string
	Metric Metric
	Sweep  *SweepResult
}

// DefaultPauses is the Broch-style pause-time axis, scaled to the scenario
// duration when shorter than the canonical 900 s.
func DefaultPauses(duration sim.Duration) []float64 {
	canonical := []float64{0, 30, 60, 120, 300, 600, 900}
	scale := duration.Seconds() / 900
	if scale >= 1 {
		return canonical
	}
	out := make([]float64, len(canonical))
	for i, p := range canonical {
		out[i] = p * scale
	}
	return out
}

// Figures14 derives the four pause-time figures from one sweep.
func Figures14(sweep *SweepResult) []Figure {
	return []Figure{
		{ID: "fig1", Title: "Packet delivery ratio vs pause time", Metric: MetricPDR, Sweep: sweep},
		{ID: "fig2", Title: "Routing overhead vs pause time", Metric: MetricOverhead, Sweep: sweep},
		{ID: "fig3", Title: "Average end-to-end delay vs pause time", Metric: MetricDelay, Sweep: sweep},
		{ID: "fig4", Title: "Throughput vs pause time", Metric: MetricThroughput, Sweep: sweep},
	}
}

// PathOptimality views a sweep's first point (pause 0 on the pause sweep)
// as Figure 5: per protocol, the histogram of hops beyond optimal.
func PathOptimality(sweep *SweepResult) map[string]map[int]uint64 {
	out := make(map[string]map[int]uint64)
	for _, p := range sweep.Protocols {
		out[p] = sweep.Cells[p][0].HopExcess
	}
	return out
}

// SummaryTable views a sweep's first point — the most stressful, pause 0,
// on the pause sweep — as the headline comparison (Tables 1 and 2): every
// metric for every protocol.
func SummaryTable(sweep *SweepResult) map[string]stats.Results {
	out := make(map[string]stats.Results)
	for _, p := range sweep.Protocols {
		out[p] = sweep.Cells[p][0]
	}
	return out
}

// RenderFigure renders an ASCII table: one row per x, one column per
// protocol.
func RenderFigure(f Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s [%s]\n", strings.ToUpper(f.ID), f.Title, f.Metric.Unit)
	fmt.Fprintf(&b, "%-10s", f.Sweep.XLabel)
	for _, p := range f.Sweep.Protocols {
		fmt.Fprintf(&b, "%12s", p)
	}
	b.WriteByte('\n')
	for xi := range f.Sweep.Xs {
		fmt.Fprintf(&b, "%-10s", f.Sweep.Tick(xi))
		for _, p := range f.Sweep.Protocols {
			fmt.Fprintf(&b, "%12.3f", f.Metric.Value(f.Sweep.Cells[p][xi]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderFigureCSV renders the same data as CSV (x,protocol,value).
func RenderFigureCSV(f Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s,protocol,%s_%s\n", f.Sweep.XLabel, f.Metric.Name, f.Metric.Unit)
	for xi := range f.Sweep.Xs {
		for _, p := range f.Sweep.Protocols {
			fmt.Fprintf(&b, "%s,%s,%g\n", f.Sweep.Tick(xi), p, f.Metric.Value(f.Sweep.Cells[p][xi]))
		}
	}
	return b.String()
}

// RenderSummaryTable renders Table 1.
func RenderSummaryTable(res map[string]stats.Results, protocols []string) string {
	var b strings.Builder
	metrics := []Metric{MetricPDR, MetricDelay, MetricNRL, MetricMacLoad, MetricThroughput, MetricAvgHops}
	fmt.Fprintf(&b, "TABLE 1 — Per-protocol summary\n")
	fmt.Fprintf(&b, "%-22s", "metric")
	for _, p := range protocols {
		fmt.Fprintf(&b, "%12s", p)
	}
	b.WriteByte('\n')
	for _, m := range metrics {
		fmt.Fprintf(&b, "%-22s", m.Name+" ("+m.Unit+")")
		for _, p := range protocols {
			fmt.Fprintf(&b, "%12.3f", m.Value(res[p]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderOverheadBreakdown renders Table 2: routing transmissions by message
// type for each protocol.
func RenderOverheadBreakdown(res map[string]stats.Results, protocols []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE 2 — Routing overhead breakdown by message type (transmissions)\n")
	for _, p := range protocols {
		fmt.Fprintf(&b, "%-8s", p)
		types := sortedKeys(res[p].RoutingByType)
		parts := make([]string, 0, len(types))
		for _, t := range types {
			parts = append(parts, fmt.Sprintf("%s=%d", t, res[p].RoutingByType[t]))
		}
		if len(parts) == 0 {
			parts = append(parts, "(none)")
		}
		b.WriteString(strings.Join(parts, "  "))
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderPathOptimality renders Figure 5 as a cumulative histogram table.
func RenderPathOptimality(hist map[string]map[int]uint64, protocols []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG5 — Path optimality (hops beyond shortest possible, %% of delivered)\n")
	maxExcess := 0
	for _, h := range hist {
		for e := range h {
			if e > maxExcess {
				maxExcess = e
			}
		}
	}
	if maxExcess > 5 {
		maxExcess = 5
	}
	fmt.Fprintf(&b, "%-10s", "excess")
	for _, p := range protocols {
		fmt.Fprintf(&b, "%12s", p)
	}
	b.WriteByte('\n')
	totals := map[string]uint64{}
	for _, p := range protocols {
		for _, n := range hist[p] {
			totals[p] += n
		}
	}
	for e := 0; e <= maxExcess; e++ {
		label := fmt.Sprintf("+%d", e)
		if e == maxExcess {
			label = fmt.Sprintf("+%d..", e)
		}
		fmt.Fprintf(&b, "%-10s", label)
		for _, p := range protocols {
			var n uint64
			if e == maxExcess {
				for ee, c := range hist[p] {
					if ee >= e {
						n += c
					}
				}
			} else {
				n = hist[p][e]
			}
			pct := 0.0
			if totals[p] > 0 {
				pct = 100 * float64(n) / float64(totals[p])
			}
			fmt.Fprintf(&b, "%11.1f%%", pct)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderParameters renders Table 3 — the static parameter table.
func RenderParameters(opts Options) string {
	s := opts.Base
	rows := [][2]string{
		{"nodes", fmt.Sprintf("%d", s.Nodes)},
		{"area", fmt.Sprintf("%.0f x %.0f m", s.Area.W, s.Area.H)},
		{"duration", fmt.Sprintf("%.0f s", s.Duration.Seconds())},
		{"tx range", fmt.Sprintf("%.0f m", s.TxRange)},
		{"mobility", "random waypoint"},
		{"max speed", fmt.Sprintf("%.0f m/s", s.MaxSpeed)},
		{"traffic", fmt.Sprintf("%d CBR sources, %.0f pkt/s, %d-byte payload", s.Sources, s.Rate, s.PayloadBytes)},
		{"MAC", "IEEE 802.11 DCF, 2 Mbit/s, RTS/CTS"},
		{"seeds", fmt.Sprintf("%d replications", max(1, len(opts.Seeds)))},
	}
	var b strings.Builder
	b.WriteString("TABLE 3 — Simulation parameters\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s %s\n", r[0], r[1])
	}
	return b.String()
}

// RenderRegistries lists every registry — the routing protocols, then each
// scenario-model kind with every model's parameter vocabulary, discovered
// by dry-building the model and observing which keys it reads
// (`adhocsim models`).
func RenderRegistries() string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocols: %s\n", strings.Join(RegisteredProtocols(), ", "))
	for _, k := range scenario.ModelKinds {
		fmt.Fprintf(&b, "%s models:\n", k.Name)
		for _, name := range k.Models.Names() {
			params, err := k.Models.ParamNames(name)
			switch {
			case err != nil:
				fmt.Fprintf(&b, "  %-16s (error: %v)\n", name, err)
			case len(params) == 0:
				fmt.Fprintf(&b, "  %-16s (no parameters)\n", name)
			default:
				fmt.Fprintf(&b, "  %-16s %s\n", name, strings.Join(params, ", "))
			}
		}
	}
	return b.String()
}

// SortProtocols orders protocol names in canonical study order.
func SortProtocols(ps []string) {
	order := map[string]int{DSR: 0, AODV: 1, PAODV: 2, CBRP: 3, DSDV: 4, Flood: 5}
	sort.Slice(ps, func(i, j int) bool { return order[ps[i]] < order[ps[j]] })
}
