package stats

import (
	"math"

	"adhocsim/internal/sim"
)

// Summary aggregates a sample of float64 observations (e.g. one metric
// across replication seeds).
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	// CI95 is the half-width of the 95% confidence interval for the mean
	// (Student-t quantiles through n=31, normal approximation beyond).
	// Zero for samples of size < 2.
	CI95 float64
}

// ci95 returns the half-width of the 95% confidence interval for the mean of
// an n-sample with the given sample standard deviation, using Student's t
// quantiles. Zero for samples of size < 2.
func ci95(n int, stddev float64) float64 {
	if n < 2 {
		return 0
	}
	return t95(n-1) * stddev / math.Sqrt(float64(n))
}

// t95 returns the two-sided 95% Student-t quantile for df degrees of
// freedom (table for small df, normal approximation beyond).
func t95(df int) float64 {
	table := []float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
		2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}

// MergeResults averages the scalar metrics of several runs (replication
// seeds) into one Results, summing the histograms and counters. Drop maps
// and per-type overhead are summed; rates are averaged. Stream digests are
// dropped: cross-run sketch aggregation lives in the campaign layer, where
// merge order is pinned to replication order. The maps are the merge's
// own, also for a single run.
func MergeResults(rs []Results) Results {
	if len(rs) == 0 {
		return Results{}
	}
	if len(rs) == 1 {
		r := rs[0].Clone()
		r.Streams = nil
		return r
	}
	out := Results{
		RoutingByType: make(map[string]uint64),
		HopExcess:     make(map[int]uint64),
		Drops:         make(map[DropReason]uint64),
	}
	n := float64(len(rs))
	for _, r := range rs {
		out.Duration += r.Duration
		out.DataSent += r.DataSent
		out.DataDelivered += r.DataDelivered
		out.DupDelivered += r.DupDelivered
		out.PDR += r.PDR / n
		out.AvgDelay += r.AvgDelay / n
		out.P50Delay += r.P50Delay / n
		out.P95Delay += r.P95Delay / n
		out.ThroughputKbps += r.ThroughputKbps / n
		out.RoutingTxPackets += r.RoutingTxPackets
		out.RoutingTxBytes += r.RoutingTxBytes
		out.DataTxPackets += r.DataTxPackets
		out.MacCtlFrames += r.MacCtlFrames
		out.MacCtlBytes += r.MacCtlBytes
		out.NormalizedRoutingLoad += r.NormalizedRoutingLoad / n
		out.NormalizedMacLoad += r.NormalizedMacLoad / n
		out.AvgHops += r.AvgHops / n
		out.OptUnknown += r.OptUnknown
		out.Joins += r.Joins
		out.Leaves += r.Leaves
		out.TimeToConverge += r.TimeToConverge / n
		out.AddrCollisionRate += r.AddrCollisionRate / n
		for k, v := range r.RoutingByType {
			out.RoutingByType[k] += v
		}
		for k, v := range r.HopExcess {
			out.HopExcess[k] += v
		}
		for k, v := range r.Drops {
			out.Drops[k] += v
		}
	}
	out.Duration /= sim.Duration(len(rs))
	return out
}
