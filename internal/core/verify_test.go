package core

import (
	"os"
	"strings"
	"testing"

	"adhocsim/internal/stats"
)

// fabricated result sets that match / violate the documented shapes.
func goodShape() (mobile, static map[string]stats.Results) {
	mobile = map[string]stats.Results{
		DSR: {PDR: 0.96, AvgDelay: 0.06, RoutingTxPackets: 9000, NormalizedRoutingLoad: 1.1,
			RoutingByType: map[string]uint64{"RREQ": 5000}},
		AODV: {PDR: 0.97, AvgDelay: 0.05, RoutingTxPackets: 19000, NormalizedRoutingLoad: 2.4,
			RoutingByType: map[string]uint64{"RREQ": 14000}},
		PAODV: {PDR: 0.96, AvgDelay: 0.06, RoutingTxPackets: 26000, NormalizedRoutingLoad: 3.3,
			RoutingByType: map[string]uint64{"RREQ": 16000}},
		CBRP: {PDR: 0.99, AvgDelay: 0.09, RoutingTxPackets: 14000, NormalizedRoutingLoad: 1.7,
			RoutingByType: map[string]uint64{"RREQ": 7000, "HELLO": 6000}},
		DSDV: {PDR: 0.82, AvgDelay: 0.005, RoutingTxPackets: 10000, NormalizedRoutingLoad: 1.5,
			RoutingByType: map[string]uint64{"UPDATE": 10000}},
	}
	static = map[string]stats.Results{
		DSR:   {PDR: 0.999, RoutingTxPackets: 600},
		AODV:  {PDR: 0.997, RoutingTxPackets: 5700},
		PAODV: {PDR: 0.999, RoutingTxPackets: 10000},
		CBRP:  {PDR: 0.999, RoutingTxPackets: 14000},
		DSDV:  {PDR: 0.999, RoutingTxPackets: 9100},
	}
	return mobile, static
}

func TestFindingsPassOnDocumentedShape(t *testing.T) {
	mobile, static := goodShape()
	for _, f := range Findings() {
		ok, detail := f.Check(mobile, static)
		if !ok {
			t.Errorf("%s failed on the documented shape: %s", f.ID, detail)
		}
		if detail == "" {
			t.Errorf("%s produced no detail", f.ID)
		}
	}
}

// TestPaperListsEveryFinding: PAPER.md's claims list is one "- `ID`: …" line
// per finding, no finding missing and no line naming an unknown one.
func TestPaperListsEveryFinding(t *testing.T) {
	paper, err := os.ReadFile("../../PAPER.md")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]int{}
	for _, line := range strings.Split(string(paper), "\n") {
		if rest, ok := strings.CutPrefix(line, "- `"); ok {
			id, _, _ := strings.Cut(rest, "`")
			listed[id]++
		}
	}
	for _, f := range Findings() {
		if listed[f.ID] != 1 {
			t.Errorf("PAPER.md lists finding %s %d times, want once", f.ID, listed[f.ID])
		}
		delete(listed, f.ID)
	}
	for id := range listed {
		t.Errorf("PAPER.md lists %q, which core.Findings() does not have", id)
	}
}

func TestFindingsCatchViolations(t *testing.T) {
	byID := map[string]Finding{}
	for _, f := range Findings() {
		byID[f.ID] = f
	}

	// DSR more expensive than AODV: F1 must fail.
	mobile, static := goodShape()
	r := mobile[DSR]
	r.RoutingTxPackets = 50000
	mobile[DSR] = r
	if ok, _ := byID["F1-dsr-beats-aodv-overhead"].Check(mobile, static); ok {
		t.Error("F1 did not catch inverted overhead")
	}

	// DSDV delivering more than everyone: F2 must fail.
	mobile, static = goodShape()
	r = mobile[DSDV]
	r.PDR = 0.999
	mobile[DSDV] = r
	if ok, _ := byID["F2-ondemand-beats-dsdv-pdr"].Check(mobile, static); ok {
		t.Error("F2 did not catch DSDV winning PDR")
	}

	// DSDV overhead exploding when static: F3 must fail.
	mobile, static = goodShape()
	r = static[DSDV]
	r.RoutingTxPackets = 100000
	static[DSDV] = r
	if ok, _ := byID["F3-dsdv-overhead-flat"].Check(mobile, static); ok {
		t.Error("F3 did not catch non-flat DSDV overhead")
	}

	// Lossy static network: F7 must fail.
	mobile, static = goodShape()
	r = static[AODV]
	r.PDR = 0.5
	static[AODV] = r
	if ok, _ := byID["F7-static-near-lossless"].Check(mobile, static); ok {
		t.Error("F7 did not catch static losses")
	}

	// CBRP flooding more than AODV: F8 must fail.
	mobile, static = goodShape()
	r = mobile[CBRP]
	r.RoutingByType = map[string]uint64{"RREQ": 50000, "HELLO": 6000}
	mobile[CBRP] = r
	if ok, _ := byID["F8-cbrp-cheap-floods"].Check(mobile, static); ok {
		t.Error("F8 did not catch CBRP out-flooding AODV")
	}
}

// TestFindingsBreakTiesInOneOrder: a check that picks one of several tied
// protocols names the same one — with the same verdict — on every call, not
// whichever the map yields first.
func TestFindingsBreakTiesInOneOrder(t *testing.T) {
	byID := map[string]Finding{}
	for _, f := range Findings() {
		byID[f.ID] = f
	}
	tie := func(set map[string]stats.Results, edit func(*stats.Results)) {
		for p, r := range set {
			edit(&r)
			set[p] = r
		}
	}
	for _, tc := range []struct {
		id   string
		edit func(mobile, static map[string]stats.Results)
		want string
	}{
		{"F4-dsr-best-nrl", func(mobile, _ map[string]stats.Results) {
			tie(mobile, func(r *stats.Results) { r.NormalizedRoutingLoad = 1 })
		}, "lowest NRL: AODV (1.00)"},
		{"F5-proactive-lowest-delay", func(mobile, _ map[string]stats.Results) {
			tie(mobile, func(r *stats.Results) { r.AvgDelay = 0.01 })
			dsdv := mobile[DSDV]
			dsdv.AvgDelay = 0.02
			mobile[DSDV] = dsdv
		}, "AODV delay 10.0 ms < DSDV 20.0 ms"},
		{"F7-static-near-lossless", func(_, static map[string]stats.Results) {
			tie(static, func(r *stats.Results) { r.PDR = 1 })
		}, "worst static PDR: AODV 100.0%"},
	} {
		mobile, static := goodShape()
		tc.edit(mobile, static)
		first, detail := byID[tc.id].Check(mobile, static)
		if detail != tc.want {
			t.Errorf("%s: detail %q, want %q", tc.id, detail, tc.want)
		}
		for range 100 {
			if ok, d := byID[tc.id].Check(mobile, static); ok != first || d != detail {
				t.Fatalf("%s on tied input: (%v, %q), then (%v, %q)", tc.id, first, detail, ok, d)
			}
		}
	}
}

func TestRenderVerify(t *testing.T) {
	results := []VerifyResult{
		{Finding: Finding{ID: "x", Claim: "c"}, Pass: true, Detail: "d1"},
		{Finding: Finding{ID: "y", Claim: "c2"}, Pass: false, Detail: "d2"},
	}
	out := RenderVerify(results)
	if !strings.Contains(out, "[PASS] x") || !strings.Contains(out, "[FAIL] y") {
		t.Fatalf("report:\n%s", out)
	}
	if !strings.Contains(out, "1/2 findings reproduced") {
		t.Fatalf("tally missing:\n%s", out)
	}
}
