package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"

	"adhocsim/internal/stats"
)

// Finding is one qualitative claim of the study that the reproduction must
// uphold (the "shape" acceptance criteria; Findings lists them all).
type Finding struct {
	ID    string
	Claim string
	// Check inspects results at the mobile (pause 0) and static points
	// and reports pass/fail with a human-readable detail line.
	Check func(mobile, static map[string]stats.Results) (bool, string)
}

// Findings returns the claim list derived from the study family's
// documented conclusions. A check that picks one of several protocols walks
// them in sorted order, so ties resolve the same way on every call.
func Findings() []Finding {
	return []Finding{
		{
			ID:    "F1-dsr-beats-aodv-overhead",
			Claim: "source routing (DSR) is more efficient than distance-vector AODV: lower routing overhead under mobility",
			Check: func(mobile, _ map[string]stats.Results) (bool, string) {
				d, a := mobile[DSR].RoutingTxPackets, mobile[AODV].RoutingTxPackets
				return d < a, fmt.Sprintf("DSR %d vs AODV %d routing tx", d, a)
			},
		},
		{
			ID:    "F2-ondemand-beats-dsdv-pdr",
			Claim: "on-demand protocols out-deliver proactive DSDV under constant mobility",
			Check: func(mobile, _ map[string]stats.Results) (bool, string) {
				dsdv := mobile[DSDV].PDR
				worstOnDemand := 1.0
				for _, p := range []string{DSR, AODV, CBRP} {
					if v := mobile[p].PDR; v < worstOnDemand {
						worstOnDemand = v
					}
				}
				return worstOnDemand > dsdv,
					fmt.Sprintf("worst on-demand PDR %.1f%% vs DSDV %.1f%%", worstOnDemand*100, dsdv*100)
			},
		},
		{
			ID:    "F3-dsdv-overhead-flat",
			Claim: "DSDV's overhead is mobility-insensitive while on-demand overhead falls as mobility stops",
			Check: func(mobile, static map[string]stats.Results) (bool, string) {
				dm, ds := float64(mobile[DSDV].RoutingTxPackets), float64(static[DSDV].RoutingTxPackets)
				rm, rs := float64(mobile[DSR].RoutingTxPackets), float64(static[DSR].RoutingTxPackets)
				dsdvFlat := ds > 0.5*dm && ds < 2*dm
				dsrDrops := rs < 0.5*rm
				return dsdvFlat && dsrDrops,
					fmt.Sprintf("DSDV %0.f→%0.f tx, DSR %0.f→%0.f tx (mobile→static)", dm, ds, rm, rs)
			},
		},
		{
			ID:    "F4-dsr-best-nrl",
			Claim: "DSR has the lowest normalized routing load of all protocols under mobility",
			Check: func(mobile, _ map[string]stats.Results) (bool, string) {
				best, bestP := 1e18, ""
				for _, p := range slices.Sorted(maps.Keys(mobile)) {
					if r := mobile[p]; r.NormalizedRoutingLoad < best {
						best, bestP = r.NormalizedRoutingLoad, p
					}
				}
				return bestP == DSR, fmt.Sprintf("lowest NRL: %s (%.2f)", bestP, best)
			},
		},
		{
			ID:    "F5-proactive-lowest-delay",
			Claim: "the proactive protocol shows the lowest delay for delivered packets (routes pre-exist)",
			Check: func(mobile, _ map[string]stats.Results) (bool, string) {
				dsdv := mobile[DSDV].AvgDelay
				for _, p := range slices.Sorted(maps.Keys(mobile)) {
					if r := mobile[p]; p != DSDV && r.AvgDelay < dsdv {
						return false, fmt.Sprintf("%s delay %.1f ms < DSDV %.1f ms", p, r.AvgDelay*1e3, dsdv*1e3)
					}
				}
				return true, fmt.Sprintf("DSDV %.1f ms lowest", dsdv*1e3)
			},
		},
		{
			ID:    "F6-paodv-overhead-premium",
			Claim: "preemptive AODV pays an overhead premium over plain AODV (warnings + extra discoveries)",
			Check: func(mobile, _ map[string]stats.Results) (bool, string) {
				a, p := mobile[AODV].RoutingTxPackets, mobile[PAODV].RoutingTxPackets
				return p > a, fmt.Sprintf("PAODV %d vs AODV %d routing tx", p, a)
			},
		},
		{
			ID:    "F7-static-near-lossless",
			Claim: "every protocol is near-lossless on a static, connected network",
			Check: func(_, static map[string]stats.Results) (bool, string) {
				worst, worstP := 2.0, "(none)"
				for _, p := range slices.Sorted(maps.Keys(static)) {
					if r := static[p]; r.PDR < worst {
						worst, worstP = r.PDR, p
					}
				}
				return worst > 0.95, fmt.Sprintf("worst static PDR: %s %.1f%%", worstP, worst*100)
			},
		},
		{
			ID:    "F8-cbrp-cheap-floods",
			Claim: "CBRP's head/gateway-restricted flooding keeps its request cost below AODV's blind flooding (its total overhead adds a constant HELLO floor on top)",
			Check: func(mobile, _ map[string]stats.Results) (bool, string) {
				c, a := mobile[CBRP].RoutingByType["RREQ"], mobile[AODV].RoutingByType["RREQ"]
				hello := mobile[CBRP].RoutingByType["HELLO"]
				return c < a && hello > 0,
					fmt.Sprintf("CBRP RREQ %d < AODV RREQ %d (CBRP HELLO floor %d)", c, a, hello)
			},
		},
	}
}

// VerifyResult is the outcome of one finding check.
type VerifyResult struct {
	Finding Finding
	Pass    bool
	Detail  string
}

// Verify runs the two reference configurations (pause 0 and fully static)
// and evaluates every finding. Options follow the usual semantics; the
// pause axis is overridden internally.
func Verify(ctx context.Context, opts Options) ([]VerifyResult, error) {
	sweep, err := Sweep(ctx, opts, PauseAxis([]float64{0, opts.Base.Duration.Seconds()}))
	if err != nil {
		return nil, err
	}
	mobile := make(map[string]stats.Results)
	static := make(map[string]stats.Results)
	for _, p := range sweep.Protocols {
		mobile[p] = sweep.Cells[p][0]
		static[p] = sweep.Cells[p][1]
	}
	var out []VerifyResult
	for _, f := range Findings() {
		ok, detail := f.Check(mobile, static)
		out = append(out, VerifyResult{Finding: f, Pass: ok, Detail: detail})
	}
	return out, nil
}

// RenderVerify formats verification results as a report.
func RenderVerify(results []VerifyResult) string {
	var b strings.Builder
	pass := 0
	for _, r := range results {
		status := "FAIL"
		if r.Pass {
			status = "PASS"
			pass++
		}
		fmt.Fprintf(&b, "[%s] %-28s %s\n       %s\n", status, r.Finding.ID, r.Finding.Claim, r.Detail)
	}
	fmt.Fprintf(&b, "\n%d/%d findings reproduced\n", pass, len(results))
	return b.String()
}
