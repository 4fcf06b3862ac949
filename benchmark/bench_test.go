package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"regexp"
	"testing"

	"adhocsim"
	"adhocsim/internal/core"
	"adhocsim/internal/dist"
	"adhocsim/internal/network"
	"adhocsim/internal/pkt"
	"adhocsim/internal/stats"
)

// declared reads the metric lists of ../BENCHMARK.json.
func declared(t *testing.T) (e2e, layers []metricDef, workloads []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, e := range doc.EndToEnd {
		e2e = append(e2e, metricDef(e))
	}
	for _, e := range doc.PerLayer {
		layers = append(layers, metricDef(e))
	}
	return e2e, layers, workloads
}

// TestEveryMetricOnEveryWorkload runs each workload at tiny size, untraced
// and (twice) traced. Every metric BENCHMARK.json names must come out
// exactly once with its declared unit, and the two traced runs, having the
// same seed, must agree on every exact count and on the result digest.
func TestEveryMetricOnEveryWorkload(t *testing.T) {
	e2e, layers, names := declared(t)
	if len(e2e) != len(endToEnd) || len(layers) != len(perLayer) || len(names) != len(workloadNames()) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics on %d workloads, the program %d+%d on %d",
			len(e2e), len(layers), len(names), len(endToEnd), len(perLayer), len(workloadNames()))
	}
	program := append(append([]metricDef(nil), endToEnd...), perLayer...)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, d := range append(e2e, layers...) {
		if d != program[i] {
			t.Errorf("BENCHMARK.json declares %+v, the program %+v", d, program[i])
		}
		if !name.MatchString(d.Name) {
			t.Errorf("metric name %q is not made of letters, digits, _ . -", d.Name)
		}
	}
	for i, w := range names {
		if w != workloadNames()[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's %q", i, w, workloadNames()[i])
		}
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			opt := options{Seed: 3, Tiny: true, OutDir: t.TempDir()}
			run := func(trace bool, defs []metricDef) *result {
				opt.Trace = trace
				r, err := runWorkload(w, opt)
				if err != nil {
					t.Fatal(err)
				}
				if r.OpsFailed > 0 || r.Ops == 0 {
					t.Fatalf("trace %v: %d of %d operations failed: %v", trace, r.OpsFailed, r.Ops, r.Failures)
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("trace %v: %d metrics emitted, %d declared", trace, len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					if s, ok := r.Metrics[d.Name]; !ok || s.Unit != d.Unit || s.N == 0 {
						t.Errorf("trace %v: metric %s: got %+v (present: %v), want unit %s", trace, d.Name, s, ok, d.Unit)
					}
				}
				return r
			}
			untraced := run(false, e2e)
			for _, d := range e2e {
				if v := untraced.Metrics[d.Name].Median; !(v > 0) {
					t.Errorf("end-to-end metric %s is %v, want > 0", d.Name, v)
				}
			}
			a, b := run(true, layers), run(true, layers)
			if a.ResultDigest != b.ResultDigest {
				t.Errorf("result_digest differs between two runs of one seed")
			}
			for name := range exactCounts {
				if a.Metrics[name].Median != b.Metrics[name].Median {
					t.Errorf("exact count %s: %v then %v", name, a.Metrics[name].Median, b.Metrics[name].Median)
				}
			}
			if _, err := os.Stat(opt.OutDir + "/trace-" + w + ".json"); err != nil {
				t.Errorf("traced run wrote no spans: %v", err)
			}
		})
	}
}

// TestDecoratorHidingLifecycleFailsTheGate shows that the traced pass's
// equality check bites: a decorator that forwards everything except the
// Up/Down hooks changes the Results of a protocol that relies on them.
func TestDecoratorHidingLifecycleFailsTheGate(t *testing.T) {
	cfgs := city10k(1, true, true)
	cfgs[0].RC.Protocol = core.Autoconf // the one protocol with lifecycle hooks
	cfgs[0].WantRouting = false
	refs := make([]*stats.Results, 1)
	opt := options{Trace: true, Tiny: true}

	good := newResult("churn", opt)
	good.simPass(cfgs, refs, nil)
	good.simPass(cfgs, refs, make([]*recorder, 1))
	if good.OpsFailed != 0 {
		t.Fatalf("the real decorator failed the gate: %v", good.Failures)
	}

	bad := newResult("churn", opt)
	bad.wrap = func(f network.ProtocolFactory, rec *recorder) network.ProtocolFactory {
		return func(id pkt.NodeID) network.Protocol {
			return tracedAutoconf{&tracedProto{inner: f(id), rec: rec}}
		}
	}
	bad.simPass(cfgs, refs, make([]*recorder, 1))
	if bad.OpsFailed != 1 {
		t.Fatalf("a decorator without Up/Down passed the gate (%d failed)", bad.OpsFailed)
	}
}

// TestWrongCachedResultFailsPhaseB shows that phase B's check bites: a store
// that answers every unit with a wrong result serves the whole resubmission
// from cache, and the aggregate then differs from the reference.
func TestWrongCachedResultFailsPhaseB(t *testing.T) {
	spec := clusterSpec(1, 1, true)
	ref, err := adhocsim.RunCampaign(context.Background(), spec, adhocsim.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	store := dist.NewMemStore()
	for ci := range plan.Cells {
		wrong, err := plan.ExecuteUnit(context.Background(), ci, 0)
		if err != nil {
			t.Fatal(err)
		}
		wrong.DataDelivered++
		if err := store.Put(plan.UnitKey(ci, 0), wrong); err != nil {
			t.Fatal(err)
		}
	}
	client := &http.Client{}
	defer client.CloseIdleConnections()
	_, fromCache, err := resubmit(client, spec, ref, store, t.TempDir())
	if fromCache != len(plan.Cells) {
		t.Fatalf("%d of %d units came from the seeded store (%v)", fromCache, len(plan.Cells), err)
	}
	if err == nil {
		t.Fatal("a resubmission served wrong results passed phase B's check")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "run_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "units_per_s", Better: "higher", Bound: 0.10}
	s := func(q1, med, q3 float64) stat { return stat{N: 10, Q1: q1, Median: med, Q3: q3} }
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b stat
		want string
	}{
		{"tight and equal", lower, s(0.99, 1, 1.01), s(0.99, 1.005, 1.02), "unchanged"},
		{"tight and slower", lower, s(0.99, 1, 1.01), s(1.14, 1.15, 1.16), "worse"},
		{"tight and faster", lower, s(0.99, 1, 1.01), s(0.84, 0.85, 0.86), "better"},
		{"rate fell", higher, s(99, 100, 101), s(84, 85, 86), "worse"},
		{"rate rose", higher, s(99, 100, 101), s(114, 115, 116), "better"},
		{"wide and overlapping is not unchanged", lower, s(0.9, 1, 1.1), s(0.95, 1.02, 1.12), "unresolved"},
		{"wide on one side only, overlapping", lower, s(0.99, 1, 1.01), s(0.9, 1.05, 1.2), "unresolved"},
		{"wide but every quartile apart", lower, s(0.9, 1, 1.1), s(1.3, 1.4, 1.5), "worse"},
		{"wide, apart and faster", lower, s(0.9, 1, 1.1), s(0.5, 0.6, 0.7), "better"},
		{"spread just inside the bound resolves", lower, s(0.96, 1, 1.05), s(0.96, 1, 1.05), "unchanged"},
		{"no baseline", lower, s(0, 0, 0), s(1, 1, 1), "unresolved"},
		{"a millisecond of set-up moves within its slack", metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}, s(0.0008, 0.001, 0.0017), s(0.001, 0.002, 0.003), "unchanged"},
	} {
		if got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestFoldSeed(t *testing.T) {
	for seed := int64(-200); seed <= 200; seed++ {
		s := foldSeed(seed)
		if s < 1 || s > 128 || skipSeeds[s] || (s > 64 && !skipSeeds[s-64]) {
			t.Errorf("foldSeed(%d) = %d, not a vetted seed", seed, s)
		}
		if seed >= 1 && seed <= 64 && !skipSeeds[seed] && s != seed {
			t.Errorf("foldSeed(%d) = %d, want the seed itself", seed, s)
		}
	}
}
