package campaign

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeJournal writes a journal file from a header and entry lines.
func writeJournal(t *testing.T, path, header string, entries []string) {
	t.Helper()
	content := header + "\n"
	if len(entries) > 0 {
		content += strings.Join(entries, "\n") + "\n"
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestExpandModelAxis: a grid axis sweeping mobility model names must
// produce one cell per model with name-carrying (seed-deriving) labels.
func TestExpandModelAxis(t *testing.T) {
	plan, err := Spec{
		Protocols: []string{"DSR"},
		Axes: []AxisSpec{
			{Name: "mobility", Models: []string{"waypoint", "gauss-markov", "manhattan"}},
		},
		MaxReps: 1,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cells) != 3 {
		t.Fatalf("cells = %d", len(plan.Cells))
	}
	want := []string{
		"DSR|mobility_model=waypoint",
		"DSR|mobility_model=gauss-markov",
		"DSR|mobility_model=manhattan",
	}
	for i, cell := range plan.Cells {
		if cell.Label != want[i] {
			t.Fatalf("cell %d label = %q, want %q", i, cell.Label, want[i])
		}
	}
	// Labels carry names, so replication seeds differ per model.
	if plan.SeedFor(0, 0) == plan.SeedFor(1, 0) {
		t.Fatal("model cells share replication seeds")
	}
}

// TestExpandModelAxisHashDependsOnModels: same indices, different model
// lists → different spec hashes, so a journal cannot silently resume under
// a different model sweep.
func TestExpandModelAxisHashDependsOnModels(t *testing.T) {
	expand := func(models []string) *Plan {
		plan, err := Spec{
			Protocols: []string{"DSR"},
			Axes:      []AxisSpec{{Name: "traffic", Models: models}},
			MaxReps:   1,
		}.Expand()
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	a := expand([]string{"cbr", "poisson"})
	b := expand([]string{"cbr", "expoo"})
	if a.Hash == b.Hash {
		t.Fatal("different model lists produced identical spec hashes")
	}
}

func TestExpandModelAxisErrors(t *testing.T) {
	bad := []Spec{
		{Axes: []AxisSpec{{Name: "mobility", Models: []string{"teleport"}}}},
		{Axes: []AxisSpec{{Name: "pause", Models: []string{"waypoint"}}}},
		{Axes: []AxisSpec{{Name: "mobility", Models: []string{"waypoint"}, Values: []float64{0}}}},
	}
	for i, s := range bad {
		if _, err := s.Expand(); err == nil {
			t.Fatalf("bad model axis %d accepted", i)
		}
	}
}

// TestScenarioPatchModels: the HTTP-facing patch selects models by name
// with parameters, and an unknown name fails expansion loudly.
func TestScenarioPatchModels(t *testing.T) {
	var spec Spec
	blob := `{
	  "base": {
	    "nodes": 12, "duration_s": 20,
	    "mobility": {"name": "gauss-markov", "params": {"alpha": 0.85}},
	    "traffic": {"name": "expoo", "params": {"on_s": 0.5, "off_s": 1.5}}
	  },
	  "protocols": ["DSR"],
	  "max_reps": 1
	}`
	if err := json.Unmarshal([]byte(blob), &spec); err != nil {
		t.Fatal(err)
	}
	plan, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Base.Mobility.Name != "gauss-markov" || plan.Base.Mobility.Params["alpha"] != 0.85 {
		t.Fatalf("mobility patch not applied: %+v", plan.Base.Mobility)
	}
	if plan.Base.Traffic.Name != "expoo" || plan.Base.Traffic.Params["off_s"] != 1.5 {
		t.Fatalf("traffic patch not applied: %+v", plan.Base.Traffic)
	}

	var badSpec Spec
	bad := `{"base": {"mobility": {"name": "teleport"}}, "max_reps": 1}`
	if err := json.Unmarshal([]byte(bad), &badSpec); err != nil {
		t.Fatal(err)
	}
	if _, err := badSpec.Expand(); err == nil {
		t.Fatal("unknown mobility model accepted")
	}
}

// TestExpandRadioAxisAndPatch: the radio model rides the same grid
// machinery as mobility/traffic — name-carrying labels, per-model seeds —
// and the HTTP patch selects a radio model with parameters and the SINR
// reception switch.
func TestExpandRadioAxisAndPatch(t *testing.T) {
	plan, err := Spec{
		Protocols: []string{"DSR"},
		Axes: []AxisSpec{
			{Name: "radio", Models: []string{"tworay", "freespace", "shadowing"}},
		},
		MaxReps: 1,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"DSR|radio_model=tworay",
		"DSR|radio_model=freespace",
		"DSR|radio_model=shadowing",
	}
	for i, cell := range plan.Cells {
		if cell.Label != want[i] {
			t.Fatalf("cell %d label = %q, want %q", i, cell.Label, want[i])
		}
	}
	if plan.SeedFor(0, 0) == plan.SeedFor(2, 0) {
		t.Fatal("radio model cells share replication seeds")
	}

	var spec Spec
	blob := `{
	  "base": {
	    "nodes": 12, "duration_s": 20,
	    "radio": {"name": "shadowing", "params": {"sigma_db": 6}, "sinr": true}
	  },
	  "protocols": ["DSR"],
	  "max_reps": 1
	}`
	if err := json.Unmarshal([]byte(blob), &spec); err != nil {
		t.Fatal(err)
	}
	plan, err = spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Base.Radio.Name != "shadowing" || plan.Base.Radio.Params["sigma_db"] != 6 || !plan.Base.Radio.SINR {
		t.Fatalf("radio patch not applied: %+v", plan.Base.Radio)
	}

	// Bad radio selections fail at submission, not mid-campaign: unknown
	// model, unknown parameter, and the formerly-panicking capture ratio.
	for _, bad := range []string{
		`{"base": {"radio": {"name": "warpdrive"}}, "max_reps": 1}`,
		`{"base": {"radio": {"params": {"sigma_db": 3}}}, "max_reps": 1}`,
		`{"base": {"radio": {"params": {"capture_ratio": 0.5}}}, "max_reps": 1}`,
		`{"axes": [{"name": "radio", "models": ["warpdrive"]}], "max_reps": 1}`,
	} {
		var s Spec
		if err := json.Unmarshal([]byte(bad), &s); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Expand(); err == nil {
			t.Fatalf("bad radio spec accepted: %s", bad)
		}
	}
}

// TestShadowingSINRResumeDeterminism: a campaign under a stochastic radio
// model with SINR reception must replay bit-identically from its journal —
// the per-link shadowing field derives from each run's content-derived
// seed, so re-executed and journal-replayed runs agree exactly.
func TestShadowingSINRResumeDeterminism(t *testing.T) {
	spec := func() Spec {
		s := tinyScenario()
		s.Radio.Name = "shadowing"
		s.Radio.Params = map[string]float64{"sigma_db": 5}
		s.Radio.SINR = true
		return Spec{
			Name:      "shadow-resume",
			Scenario:  s,
			Protocols: []string{"DSR", "AODV"},
			MaxReps:   2,
			BaseSeed:  11,
		}
	}
	ctx := context.Background()
	dir := t.TempDir()
	path := filepath.Join(dir, "shadow.jsonl")
	want, err := Run(ctx, spec(), Options{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	// Journal-free re-execution agrees (cross-run determinism)…
	plain, err := Run(ctx, spec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, want) {
		t.Fatal("stochastic radio campaign is not deterministic across executions")
	}
	// …and a half-journal resume re-derives the missing runs identically.
	header, entries := journalLines(t, path)
	half := filepath.Join(dir, "half.jsonl")
	writeJournal(t, half, header, entries[:len(entries)/2])
	c, err := New(spec(), Options{JournalPath: half})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap := c.Snapshot(); snap.RunsFromJournal != len(entries)/2 {
		t.Fatalf("replayed %d runs, want %d", snap.RunsFromJournal, len(entries)/2)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed stochastic-radio campaign diverges from uninterrupted run")
	}
}
