package main

import (
	"math"
	"sort"
)

// metricDef mirrors one entry of BENCHMARK.json; bench_test.go checks that
// the two lists agree.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end metrics only
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.25},
	{"allocs_per_run", "count", "lower", 0.08},
	{"alloc_mb_per_run", "MB", "lower", 0.08},
	{"units_per_s", "1/s", "higher", 0.25},
	{"cached_units_per_s", "1/s", "higher", 0.25},
}

var perLayer = []metricDef{
	{"scenario.generate_s", "s", "lower", 0},
	{"scenario.lifecycle_events", "count", "lower", 0},
	{"topo.oracle_s", "s", "lower", 0},
	{"topo.snapshot_bfs_us", "us", "lower", 0},
	{"network.build_s", "s", "lower", 0},
	{"network.loop_s", "s", "lower", 0},
	{"network.data_sent", "count", "higher", 0},
	{"network.data_delivered", "count", "higher", 0},
	{"network.pdr", "ratio", "higher", 0},
	{"sim.events", "count", "lower", 0},
	{"sim.pending_p50", "count", "lower", 0},
	{"sim.heap_ns_per_event", "ns", "lower", 0},
	{"sim.calendar_ns_per_event", "ns", "lower", 0},
	{"sim.timer_reset_ns", "ns", "lower", 0},
	{"mobility.at_ns", "ns", "lower", 0},
	{"mobility.positions_us", "us", "lower", 0},
	{"geo.rebuild_us", "us", "lower", 0},
	{"geo.query_ns", "ns", "lower", 0},
	{"geo.candidates_per_query", "count", "lower", 0},
	{"geo.query_live_ns", "ns", "lower", 0},
	{"phy.tx_count", "count", "lower", 0},
	{"phy.transmit_ns", "ns", "lower", 0},
	{"phy.receivers_per_tx", "count", "lower", 0},
	{"mac.unicast_us", "us", "lower", 0},
	{"mac.broadcast_us", "us", "lower", 0},
	{"mac.data_sent", "count", "lower", 0},
	{"mac.ctl_frames", "count", "lower", 0},
	{"mac.retries", "count", "lower", 0},
	{"mac.retry_ratio", "ratio", "lower", 0},
	{"mac.queue_drops", "count", "lower", 0},
	{"mac.retry_drops", "count", "lower", 0},
	{"routing.calls", "count", "lower", 0},
	{"routing.self_s", "s", "lower", 0},
	{"routing.self_ns_per_call", "ns", "lower", 0},
	{"routing.env_s", "s", "lower", 0},
	{"routing.tx_packets", "count", "lower", 0},
	{"routing.load", "ratio", "lower", 0},
	{"routing.dsr.self_ns_per_call", "ns", "lower", 0},
	{"routing.aodv.self_ns_per_call", "ns", "lower", 0},
	{"routing.paodv.self_ns_per_call", "ns", "lower", 0},
	{"routing.cbrp.self_ns_per_call", "ns", "lower", 0},
	{"routing.dsdv.self_ns_per_call", "ns", "lower", 0},
	{"metrics.sketch_add_ns", "ns", "lower", 0},
	{"metrics.sketch_merge_us", "us", "lower", 0},
	{"metrics.sketch_state_us", "us", "lower", 0},
	{"metrics.window_record_ns", "ns", "lower", 0},
	{"metrics.sink_overhead_ratio", "ratio", "lower", 0},
	{"stats.results_json_us", "us", "lower", 0},
	{"stats.results_json_bytes", "count", "lower", 0},
	{"campaign.expand_ms", "ms", "lower", 0},
	{"campaign.execute_unit_ms", "ms", "lower", 0},
	{"campaign.commit_us", "us", "lower", 0},
	{"campaign.local_units_per_s", "1/s", "higher", 0},
	{"campaign.runs_from_cache", "count", "higher", 0},
	{"dist.lease_rtt_us", "us", "lower", 0},
	{"dist.lease_rtt_us_p99", "us", "lower", 0},
	{"dist.commit_rtt_us", "us", "lower", 0},
	{"dist.commit_rtt_us_p99", "us", "lower", 0},
	{"dist.cache_get_us", "us", "lower", 0},
	{"dist.cache_put_us", "us", "lower", 0},
	{"dist.hub_publish_ns", "ns", "lower", 0},
	{"dist.sse_events", "count", "higher", 0},
	{"dist.units_reissued", "count", "lower", 0},
	{"dist.coord_overhead_ratio", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// exactCounts are the per-layer metrics the simulator counts itself. They
// repeat exactly for a given seed, so -compare diffs them instead of
// applying a bound.
var exactCounts = map[string]bool{
	"scenario.lifecycle_events": true, "network.data_sent": true, "network.data_delivered": true,
	"network.pdr": true, "sim.events": true, "phy.tx_count": true, "phy.receivers_per_tx": true,
	"mac.data_sent": true, "mac.ctl_frames": true, "mac.retries": true, "mac.retry_ratio": true,
	"mac.queue_drops": true, "mac.retry_drops": true, "routing.tx_packets": true,
	"routing.load": true, "geo.candidates_per_query": true, "stats.results_json_bytes": true,
	"campaign.runs_from_cache": true,
}

// stat summarises the samples of one metric within one run of a workload.
type stat struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// quantile interpolates at position p·(n+1) of the sorted samples, the
// method Python's statistics.quantiles uses, clamped to the sample range.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	i := int(pos)
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func summarize(unit string, samples ...float64) stat {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return stat{Unit: unit, N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

func median(samples []float64) float64 { return summarize("", samples...).Median }
