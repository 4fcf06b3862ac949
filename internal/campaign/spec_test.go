package campaign

import (
	"encoding/json"
	"testing"
)

// FuzzSpecExpand feeds arbitrary JSON through the path a POST /campaigns
// body takes — json.Unmarshal into a Spec, then Expand. Expansion never
// panics, every accepted plan stays inside the grid bounds, and expanding
// the same spec twice gives the same hash.
func FuzzSpecExpand(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"name": "smoke", "base": {"nodes": 10, "area_w_m": 600, "duration_s": 10, "sources": 3}, "protocols": ["DSR", "FLOOD"], "max_reps": 2}`,
		`{"protocols": ["dsr", " aodv "], "axes": [{"name": "pause", "values": [0, 30, 60]}, {"name": "rate", "values": [2, 4]}], "base_seed": 7}`,
		`{"axes": [{"name": "lifecycle", "models": ["staggered-join", "onoff-fail"]}], "max_reps": 1}`,
		`{"axes": [{"name": "txrange"}], "min_reps": 2, "max_reps": 5, "epsilon": {"pdr": 0.01, "delay": 0.002}}`,
		`{"base": {"mobility": {"name": "manhattan"}, "lifecycle": {"name": "onoff-fail"}}, "protocols": ["CBRP"]}`,
		`{"axes": [{"name": "pause", "values": [1, 2, 3, 4, 5, 6, 7, 8]}, {"name": "rate", "values": [1, 2, 3, 4, 5, 6, 7, 8]}], "max_reps": 300000}`,
		`{"protocols": ["DSR", "DSR"]}`,
		`{"max_reps": -1}`,
		`{"base": {"nodes": 0}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec Spec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		plan, err := spec.Expand()
		if err != nil {
			return
		}
		if len(plan.Cells) > maxCells || plan.MaxRuns() > maxUnits {
			t.Fatalf("accepted %d cells × %d reps = %d runs, bounds %d cells and %d runs",
				len(plan.Cells), plan.Spec.MaxReps, plan.MaxRuns(), maxCells, maxUnits)
		}
		again, err := spec.Expand()
		if err != nil {
			t.Fatalf("second expansion failed: %v", err)
		}
		if again.Hash != plan.Hash {
			t.Fatalf("expanding one spec twice gave hashes %s and %s", plan.Hash, again.Hash)
		}
	})
}
