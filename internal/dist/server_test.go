package dist

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"adhocsim/internal/campaign"
)

// The coordinator as the plain HTTP simulation service: default local
// executors, no remote worker, specs posted as a client writes them.

const tinySpecJSON = `{
  "name": "smoke",
  "base": {"nodes": 10, "area_w_m": 600, "duration_s": 10, "sources": 3},
  "protocols": ["DSR", "FLOOD"],
  "max_reps": 2
}`

// longSpecJSON is a campaign too long to finish during a test.
const longSpecJSON = `{"base": {"nodes": 20, "duration_s": 600}, "protocols": ["DSR"], "max_reps": 3}`

// TestServerEndToEnd drives submit → progress → results → listing over real
// HTTP.
func TestServerEndToEnd(t *testing.T) {
	_, base := newTestServer(t, ServerOptions{})
	created := submitJSON(t, base, tinySpecJSON)
	if created.ID == "" || created.Cells != 2 || created.MaxRuns != 4 {
		t.Fatalf("created = %+v", created)
	}
	snap := waitDone(t, base, created.ID, 2*time.Minute)
	if snap.RunsDone != 4 || snap.CellsStopped != 2 {
		t.Fatalf("final snapshot = %+v", snap)
	}

	res := httpResults(t, base, created.ID)
	if res.Name != "smoke" || len(res.Cells) != 2 {
		t.Fatalf("result = %+v", res)
	}
	for _, cell := range res.Cells {
		if cell.Reps != 2 || cell.Merged.DataSent == 0 {
			t.Fatalf("cell = %+v", cell)
		}
		if cell.Metrics["pdr"].N != 2 {
			t.Fatalf("pdr summary = %+v", cell.Metrics["pdr"])
		}
		// The streaming pipeline must survive the HTTP results JSON:
		// per-packet delay percentiles, monotone and covering every
		// delivered packet, and a per-cell time series.
		q := cell.Quantiles["delay"]
		if q.Count != float64(cell.Merged.DataDelivered) {
			t.Fatalf("cell %s delay sketch count %v != delivered %d", cell.Label, q.Count, cell.Merged.DataDelivered)
		}
		if !(q.P50 > 0 && q.P50 <= q.P95 && q.P95 <= q.P99) {
			t.Fatalf("cell %s percentiles not monotone: %+v", cell.Label, q)
		}
		if cell.Series == nil || len(cell.Series.Counts) == 0 {
			t.Fatalf("cell %s has no time series", cell.Label)
		}
	}

	resp, err := http.Get(base + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var listed []struct {
		ID string `json:"id"`
		campaign.Snapshot
	}
	decodeBody(t, resp, http.StatusOK, &listed)
	if len(listed) != 1 || listed[0].ID != created.ID || listed[0].State != campaign.StateDone {
		t.Fatalf("list = %+v", listed)
	}
}

// TestServerCancel covers results-before-done (409) and DELETE cancellation
// of a campaign running on local executors.
func TestServerCancel(t *testing.T) {
	_, base := newTestServer(t, ServerOptions{})
	created := submitJSON(t, base, longSpecJSON)

	resp, err := http.Get(base + "/campaigns/" + created.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, http.StatusConflict, nil)

	if snap := deleteCampaign(t, base, created.ID); snap.State != campaign.StateCancelled {
		t.Fatalf("state after delete = %+v", snap)
	}

	// Cancelled campaigns have no final aggregate.
	resp, err = http.Get(base + "/campaigns/" + created.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, http.StatusConflict, nil)
}

// TestServerJournalAcrossRestarts: journals are keyed by spec hash, so a
// restarted daemon (ids back at c1) neither collides with a previous life's
// journals nor re-runs a spec whose journal is already complete.
func TestServerJournalAcrossRestarts(t *testing.T) {
	dir := t.TempDir()

	s1 := NewServer(ServerOptions{JournalDir: dir})
	hs1 := httptest.NewServer(s1.Handler())
	created := submitJSON(t, hs1.URL, tinySpecJSON)
	waitDone(t, hs1.URL, created.ID, 2*time.Minute)
	first := httpResults(t, hs1.URL, created.ID)
	hs1.Close()
	s1.Close()

	// Second life: same journal dir, fresh id sequence.
	_, base2 := newTestServer(t, ServerOptions{JournalDir: dir})

	// A different spec gets id c1 again but its own journal — no collision
	// with the previous life's file.
	other := submitJSON(t, base2, `{"base": {"nodes": 10, "area_w_m": 600, "duration_s": 10, "sources": 3}, "protocols": ["FLOOD"], "max_reps": 1}`)
	if other.ID != created.ID {
		t.Fatalf("restarted daemon issued id %s, first life issued %s", other.ID, created.ID)
	}
	waitDone(t, base2, other.ID, 2*time.Minute)

	// The original spec resumes its completed journal: zero new runs,
	// identical results.
	again := submitJSON(t, base2, tinySpecJSON)
	if snap := waitDone(t, base2, again.ID, 2*time.Minute); snap.RunsFromJournal != 4 {
		t.Fatalf("resubmitted spec: %+v", snap)
	}
	if second := httpResults(t, base2, again.ID); !reflect.DeepEqual(first, second) {
		t.Fatal("results diverge across daemon restart")
	}
}

// TestServerDuplicateLiveSpec: two live campaigns must not share a journal.
func TestServerDuplicateLiveSpec(t *testing.T) {
	_, base := newTestServer(t, ServerOptions{JournalDir: t.TempDir()})
	created := submitJSON(t, base, longSpecJSON)
	resp, err := http.Post(base+"/campaigns", "application/json", strings.NewReader(longSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, http.StatusConflict, nil)
	deleteCampaign(t, base, created.ID)
}

func TestServerRejections(t *testing.T) {
	_, base := newTestServer(t, ServerOptions{})

	resp, err := http.Get(base + "/campaigns/zzz")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, http.StatusNotFound, nil)

	// Four axes of 1 000 values fit the body cap 50 times over and name 10¹²
	// grid points.
	thousand := make([]float64, 1000)
	for i := range thousand {
		thousand[i] = float64(i + 1)
	}
	huge := campaign.Spec{Protocols: []string{"DSR"}}
	for _, name := range []string{"pause", "rate", "speed", "txrange"} {
		huge.Axes = append(huge.Axes, campaign.AxisSpec{Name: name, Values: thousand})
	}
	hugeBody, err := json.Marshal(huge)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"malformed", `{not json`, http.StatusBadRequest},
		{"10^12 cells", string(hugeBody), http.StatusBadRequest},
		{"unknown protocol", `{"protocols": ["NOPE"]}`, http.StatusBadRequest},
		{"min above max reps", `{"min_reps": 9, "max_reps": 2}`, http.StatusBadRequest},
		{"unknown field", `{"unknown_field": 1}`, http.StatusBadRequest},
		// Not a spec field: a run is one goroutine.
		{"removed base.workers", `{"base": {"workers": 4}}`, http.StatusBadRequest},
		// Well-formed, and a dozen bytes past the body cap.
		{"oversized", `{"name": "` + strings.Repeat("a", maxSpecBytes) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(base+"/campaigns", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		resp.Body.Close()
	}
}

// modelMatrixSpecJSON is the acceptance scenario of the model-registry PR:
// a JSON campaign selecting Gauss-Markov mobility parameters, the expoo VBR
// workload and log-normal shadowing decoded under cumulative-interference
// SINR in the base patch, crossed with a mobility-model grid axis.
const modelMatrixSpecJSON = `{
  "name": "model-matrix",
  "base": {
    "nodes": 10, "area_w_m": 600, "duration_s": 10, "sources": 3,
    "mobility": {"name": "gauss-markov", "params": {"alpha": 0.8}},
    "traffic": {"name": "expoo", "params": {"on_s": 0.5, "off_s": 0.5}},
    "radio": {"name": "shadowing", "params": {"sigma_db": 3}, "sinr": true}
  },
  "protocols": ["DSR"],
  "axes": [{"name": "mobility", "models": ["waypoint", "gauss-markov", "manhattan"]}],
  "max_reps": 1
}`

// TestServerModelCampaignEndToEnd drives the acceptance criterion over real
// HTTP: POST a campaign whose base selects gauss-markov/expoo and whose
// grid axis sweeps mobility models, poll to completion, and require
// distinct per-model metric cells in the results.
func TestServerModelCampaignEndToEnd(t *testing.T) {
	_, base := newTestServer(t, ServerOptions{})
	created := submitJSON(t, base, modelMatrixSpecJSON)
	if created.Cells != 3 {
		t.Fatalf("created = %+v", created)
	}
	waitDone(t, base, created.ID, 2*time.Minute)

	res := httpResults(t, base, created.ID)
	if len(res.Cells) != 3 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	seenLabel := make(map[string]bool)
	seenMetrics := make(map[string]bool)
	for _, cell := range res.Cells {
		if cell.Merged.DataSent == 0 {
			t.Fatalf("degenerate cell %q: %+v", cell.Label, cell)
		}
		if !strings.Contains(cell.Label, "mobility_model=") {
			t.Fatalf("cell label %q missing model name", cell.Label)
		}
		seenLabel[cell.Label] = true
		// Distinct models must yield distinct metric cells (identical
		// triples would mean the axis silently failed to apply).
		fp, err := json.Marshal([]float64{cell.Metrics["pdr"].Mean, cell.Metrics["delay"].Mean, cell.Metrics["throughput"].Mean})
		if err != nil {
			t.Fatal(err)
		}
		seenMetrics[string(fp)] = true
	}
	if len(seenLabel) != 3 {
		t.Fatalf("labels not distinct: %v", seenLabel)
	}
	if len(seenMetrics) < 2 {
		t.Fatalf("per-model metric cells are not distinct: %v", seenMetrics)
	}
}
