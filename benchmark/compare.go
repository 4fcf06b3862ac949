package main

import (
	"fmt"
	"os"
)

// slack is the absolute change below which a metric counts as unchanged
// whatever its share of the median: campaign_cluster sets up in a
// millisecond, where 25% is scheduler noise.
var slack = map[string]float64{"setup_s": 0.005}

// verdict compares one end-to-end metric of one workload across two
// records. The change is judged against the metric's bound, as a share of
// a's median (or the metric's slack where that is larger). Where either
// side's own spread (q3 − q1) is wider than that and the two interquartile
// ranges overlap, the runs cannot tell, and the row reads unresolved rather
// than unchanged.
func verdict(d metricDef, a, b stat) string {
	if a.Median == 0 {
		return "unresolved"
	}
	limit := max(d.Bound*a.Median, slack[d.Name])
	wide := a.Q3-a.Q1 > limit || b.Q3-b.Q1 > max(d.Bound*b.Median, slack[d.Name])
	overlap := a.Q1 <= b.Q3 && b.Q1 <= a.Q3
	if wide && overlap {
		return "unresolved"
	}
	change := b.Median - a.Median
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case change > limit:
		return "worse"
	case change < -limit:
		return "better"
	}
	return "unchanged"
}

// compareRecords prints one row per (end-to-end metric, workload), then the
// exact counts and result digests that differ. It returns the exit code:
// non-zero when a row is worse or b failed a larger share of its operations.
func compareRecords(pathA, pathB string) int {
	a, err := readRecord(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := readRecord(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Printf("note: a ran -seed %d -seconds %g, b ran -seed %d -seconds %g\n", a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	bad := false
	failedShare := func(r *result) float64 { return float64(r.OpsFailed) / float64(max(r.Ops, 1)) }
	fmt.Printf("%-18s %-20s %14s %14s %8s  %s\n", "workload", "metric", "a", "b", "change", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadRecord
		for i := range b.Workloads {
			if b.Workloads[i].EndToEnd.Workload == wa.EndToEnd.Workload {
				wb = &b.Workloads[i]
			}
		}
		name := wa.EndToEnd.Workload
		if wb == nil {
			fmt.Printf("%-18s missing from %s\n", name, pathB)
			bad = true
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd.Metrics[d.Name], wb.EndToEnd.Metrics[d.Name]
			v := verdict(d, sa, sb)
			bad = bad || v == "worse"
			fmt.Printf("%-18s %-20s %14.6g %14.6g %+7.1f%%  %s\n", name, d.Name, sa.Median, sb.Median, 100*(sb.Median-sa.Median)/sa.Median, v)
		}
		for _, pair := range [][2]*result{{wa.EndToEnd, wb.EndToEnd}, {wa.PerLayer, wb.PerLayer}} {
			if failedShare(pair[1]) > failedShare(pair[0]) {
				fmt.Printf("%-18s ops_failed %d of %d, was %d of %d\n", name, pair[1].OpsFailed, pair[1].Ops, pair[0].OpsFailed, pair[0].Ops)
				bad = true
			}
			if pair[0].ResultDigest != pair[1].ResultDigest {
				fmt.Printf("%-18s result_digest changed (trace %v): %.12s → %.12s\n", name, pair[0].Trace, pair[0].ResultDigest, pair[1].ResultDigest)
			}
		}
		for _, d := range perLayer {
			if va, vb := wa.PerLayer.Metrics[d.Name].Median, wb.PerLayer.Metrics[d.Name].Median; exactCounts[d.Name] && va != vb {
				fmt.Printf("%-18s exact count %s changed: %v → %v\n", name, d.Name, va, vb)
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}
