package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"adhocsim/internal/modelreg"
	"adhocsim/internal/scenario"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// Axis is one sweepable scenario dimension: a label for rendering, the
// values to visit, and a function that writes one value into a Spec. Any
// Spec field can be swept — the catalogue below covers the study axes plus
// the radio/traffic dimensions the original harness could not express, and
// callers can define their own Apply for anything else.
type Axis struct {
	Label  string
	Values []float64
	Apply  func(*scenario.Spec, float64)
	// Defaults, when non-nil and Values is empty, derives the values to
	// visit from the sweep's base spec at Sweep/Grid time. Catalogue
	// constructors with static defaults fill Values directly; PauseAxis
	// uses this hook because its defaults scale with scenario duration.
	Defaults func(scenario.Spec) []float64
	// Format, when non-nil, renders a value for labels (campaign cell
	// labels, renders). Categorical axes — the mobility/traffic model
	// axes, whose float values index a name list — use it so labels read
	// "mobility_model=gauss-markov" rather than an opaque index, and so
	// campaign replication seeds derive from model names instead of list
	// positions.
	Format func(float64) string
	// CheckValue, when non-nil, validates each value at Resolved time.
	// Categorical axes reject non-integer or out-of-range indices here, so
	// a bad index fails the sweep/campaign at expansion instead of
	// silently running a mislabeled default-model cell.
	CheckValue func(float64) error
}

// FormatValue renders one axis value for labels: Format when set, else the
// shortest exact float form.
func (a Axis) FormatValue(x float64) string {
	if a.Format != nil {
		return a.Format(x)
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}

func (a Axis) validate() error {
	if a.Apply == nil {
		return fmt.Errorf("core: axis %q has no Apply function", a.Label)
	}
	if len(a.Values) == 0 {
		return fmt.Errorf("core: axis %q has no values", a.Label)
	}
	seen := make(map[string]bool, len(a.Values))
	for _, v := range a.Values {
		// Apply converts values to durations and counts, and Go leaves
		// converting NaN or ±Inf to an integer to the implementation.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: axis %q: value %v is not a finite number", a.Label, v)
		}
		if a.CheckValue != nil {
			if err := a.CheckValue(v); err != nil {
				return fmt.Errorf("core: axis %q: %w", a.Label, err)
			}
		}
		// Duplicate points would expand into cells with identical labels
		// and therefore identical content-derived replication seeds — pure
		// wasted work, same hazard campaign.Expand rejects for duplicate
		// protocols. Compare formatted values so categorical axes catch
		// index pairs that alias the same model name.
		key := a.FormatValue(v)
		if seen[key] {
			return fmt.Errorf("core: axis %q visits %s twice", a.Label, key)
		}
		seen[key] = true
	}
	return nil
}

// Resolved fills empty Values from the Defaults hook against the given base
// spec, then validates. Sweep/Grid call it internally; the campaign engine
// resolves axes through it too, so default values cannot drift between the
// two layers.
func (a Axis) Resolved(base scenario.Spec) (Axis, error) {
	if len(a.Values) == 0 && a.Defaults != nil {
		a.Values = a.Defaults(base)
	}
	return a, a.validate()
}

// WithValues returns a copy of the axis visiting exactly the given values
// (the Defaults hook is dropped: an empty vs makes the axis invalid rather
// than reverting to defaults).
func (a Axis) WithValues(vs []float64) Axis {
	a.Values = append([]float64(nil), vs...)
	a.Defaults = nil
	return a
}

// The axis catalogue. Each constructor accepts explicit values; nil selects
// the canonical default points of the study (or a sensible spread for the
// axes the study did not sweep). An empty non-nil slice is deliberately NOT
// a default request — it fails validation at sweep time, so a
// programmatically-filtered list that came up empty errors loudly instead
// of silently launching the full default sweep.

// PauseAxis sweeps random-waypoint pause time in seconds (Figures 1–4).
// Nil values select the Broch-style defaults, scaled to the base spec's
// duration when the sweep runs.
func PauseAxis(vs []float64) Axis {
	a := Axis{
		Label:  "pause_s",
		Values: vs,
		Apply: func(s *scenario.Spec, x float64) {
			s.Pause = sim.Seconds(x)
		},
	}
	if vs == nil {
		a.Defaults = func(base scenario.Spec) []float64 {
			return DefaultPauses(base.Duration)
		}
	}
	return a
}

// NodesAxis sweeps the node count (Figure 6).
func NodesAxis(vs []float64) Axis {
	if vs == nil {
		vs = []float64{10, 20, 30, 40}
	}
	return Axis{Label: "nodes", Values: vs, Apply: func(s *scenario.Spec, x float64) {
		s.Nodes = int(x)
	}}
}

// ScaleAxis sweeps the node count at constant node density: the simulation
// area grows with N so that adding nodes extends the multi-hop topology
// instead of melting the MAC. This is the large-N axis the spatial-index
// transmit path exists for; the default points reach well beyond the
// study's 40-node scenes.
func ScaleAxis(vs []float64) Axis {
	if vs == nil {
		vs = []float64{50, 100, 200, 350, 500, 1000, 2000, 5000, 10000}
	}
	return Axis{Label: "nodes_scaled", Values: vs, Apply: func(s *scenario.Spec, x float64) {
		if s.Nodes > 0 {
			k := math.Sqrt(x / float64(s.Nodes))
			s.Area.W *= k
			s.Area.H *= k
		}
		s.Nodes = int(x)
	}}
}

// RateAxis sweeps the per-connection packet rate in packets/s (Figure 7).
func RateAxis(vs []float64) Axis {
	if vs == nil {
		vs = []float64{1, 2, 4, 8, 12}
	}
	return Axis{Label: "rate_pps", Values: vs, Apply: func(s *scenario.Spec, x float64) {
		s.Rate = x
	}}
}

// SpeedAxis sweeps the maximum node speed in m/s (Figure 8), clamping the
// minimum speed when needed.
func SpeedAxis(vs []float64) Axis {
	if vs == nil {
		vs = []float64{1, 5, 10, 15, 20}
	}
	return Axis{Label: "speed_mps", Values: vs, Apply: func(s *scenario.Spec, x float64) {
		s.MaxSpeed = x
		if s.MinSpeed > x {
			s.MinSpeed = x
		}
	}}
}

// SourcesAxis sweeps the number of CBR connections (the 10/20/30-source
// variants of Figures 1–2).
func SourcesAxis(vs []float64) Axis {
	if vs == nil {
		vs = []float64{10, 20, 30}
	}
	return Axis{Label: "sources", Values: vs, Apply: func(s *scenario.Spec, x float64) {
		s.Sources = int(x)
	}}
}

// TxRangeAxis sweeps the radio transmission range in metres; the
// carrier-sense range follows at its default 2.2× ratio unless the spec
// pins it. The v1 API had no sweep for this axis.
func TxRangeAxis(vs []float64) Axis {
	if vs == nil {
		vs = []float64{100, 150, 200, 250}
	}
	return Axis{Label: "txrange_m", Values: vs, Apply: func(s *scenario.Spec, x float64) {
		s.TxRange = x
	}}
}

// CSRangeAxis sweeps the carrier-sense range in metres independently of the
// transmission range (the cumulative-interference studies' axis).
func CSRangeAxis(vs []float64) Axis {
	if vs == nil {
		vs = []float64{300, 450, 550, 700}
	}
	return Axis{Label: "csrange_m", Values: vs, Apply: func(s *scenario.Spec, x float64) {
		s.CSRange = x
	}}
}

// AreaWidthAxis sweeps the simulation-area width in metres (node density at
// fixed population).
func AreaWidthAxis(vs []float64) Axis {
	if vs == nil {
		vs = []float64{1000, 1500, 2250, 3000}
	}
	return Axis{Label: "area_w_m", Values: vs, Apply: func(s *scenario.Spec, x float64) {
		s.Area.W = x
	}}
}

// PayloadAxis sweeps the CBR payload size in bytes.
func PayloadAxis(vs []float64) Axis {
	if vs == nil {
		vs = []float64{64, 256, 512, 1024}
	}
	return Axis{Label: "payload_B", Values: vs, Apply: func(s *scenario.Spec, x float64) {
		s.PayloadBytes = int(x)
	}}
}

// ModelAxis sweeps one scenario-model kind (any spelling in
// scenario.ModelKinds: "mobility", "traffic_model", "churn", …) by registry
// name — the scenario-family dimensions the study held fixed. Nil names
// selects every registered model, sorted. Values are indices into names;
// Format renders them back to names, so campaign cell labels — and the
// replication seeds derived from them — carry model names, not list
// positions. Every name is validated against the registry, so a typo fails
// at expansion time rather than mid-campaign, and duplicates are rejected:
// they would expand into cells with identical labels and seeds.
//
// When the applied name is the base spec's own model its tuned Params are
// kept (so a parameterized base can be compared against other models);
// switching to a different model resets Params to that model's defaults.
// Spec fields outside the model spec — speed/pause, ranges, the radio
// kind's SINR reception switch — shape every model either way.
func ModelAxis(kind string, names []string) (Axis, error) {
	k, ok := scenario.ModelKindByName(kind)
	if !ok {
		return Axis{}, fmt.Errorf("core: axis %q does not take model names (model axes: %s)",
			kind, strings.Join(modelKindNames(), ", "))
	}
	if len(names) == 0 {
		names = k.Models.Names()
	}
	names = append([]string(nil), names...)
	seen := make(map[string]bool, len(names))
	vs := make([]float64, len(names))
	for i, m := range names {
		if !k.Models.Known(m) {
			return Axis{}, fmt.Errorf("core: unknown %s model %q (registered: %s)",
				k.Name, m, strings.Join(k.Models.Names(), ", "))
		}
		canon := modelreg.Canonical(m)
		if seen[canon] {
			return Axis{}, fmt.Errorf("core: %s model %q listed twice", k.Name, canon)
		}
		seen[canon] = true
		vs[i] = float64(i)
	}
	// resolve canonicalizes a name, the empty one to the kind's default.
	resolve := func(name string) string {
		if c := modelreg.Canonical(name); c != "" {
			return c
		}
		return k.Models.Default()
	}
	return Axis{
		Label:  k.Label,
		Values: vs,
		Apply: func(s *scenario.Spec, x float64) {
			if i := int(x); i >= 0 && i < len(names) {
				name, params := k.Ref(s)
				if resolve(*name) != resolve(names[i]) {
					*params = nil
				}
				*name = names[i]
			}
		},
		Format: func(x float64) string {
			if i := int(x); i >= 0 && i < len(names) && float64(i) == x {
				return names[i]
			}
			return strconv.FormatFloat(x, 'g', -1, 64)
		},
		CheckValue: func(x float64) error {
			if i := int(x); float64(i) != x || i < 0 || i >= len(names) {
				return fmt.Errorf("value %v does not index the model list %v", x, names)
			}
			return nil
		},
	}, nil
}

func modelKindNames() []string {
	out := make([]string, len(scenario.ModelKinds))
	for i, k := range scenario.ModelKinds {
		out[i] = k.Name
	}
	return out
}

// numericAxes maps CLI-friendly names to the numeric catalogue
// constructors; the model axes are named by scenario.ModelKinds.
var numericAxes = map[string]func([]float64) Axis{
	"pause":   PauseAxis,
	"nodes":   NodesAxis,
	"scale":   ScaleAxis,
	"rate":    RateAxis,
	"speed":   SpeedAxis,
	"sources": SourcesAxis,
	"txrange": TxRangeAxis,
	"csrange": CSRangeAxis,
	"width":   AreaWidthAxis,
	"payload": PayloadAxis,
}

// AxisNames lists the catalogue names understood by AxisByName, sorted.
func AxisNames() []string {
	out := modelKindNames()
	for name := range numericAxes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AxisByName resolves a catalogue axis by CLI name ("txrange", "pause",
// "mobility", …). A numeric axis visits values (nil selects the axis
// defaults) and takes no models; a model axis visits the named models (nil
// selects the whole registry), or indices into them when values are given
// instead.
func AxisByName(name string, values []float64, models []string) (Axis, error) {
	if _, isKind := scenario.ModelKindByName(name); isKind || len(models) > 0 {
		if len(values) > 0 && len(models) > 0 {
			return Axis{}, fmt.Errorf("core: axis %q sets both values and models", name)
		}
		a, err := ModelAxis(name, models)
		if err == nil && values != nil {
			a = a.WithValues(values)
		}
		return a, err
	}
	ctor := numericAxes[strings.ToLower(strings.TrimSpace(name))]
	if ctor == nil {
		return Axis{}, fmt.Errorf("core: unknown axis %q (known: %s)",
			name, strings.Join(AxisNames(), ", "))
	}
	return ctor(values), nil
}

// GridResult holds merged results for each protocol at each point of a
// multi-axis cross product.
type GridResult struct {
	// Labels are the axis labels, outermost first.
	Labels []string
	// Points is the cross product in row-major order (last axis fastest);
	// Points[i][a] is the value of axis a at point i.
	Points [][]float64
	// PointLabels[i][a] is the formatted value of axis a at point i —
	// model names for the categorical model axes, plain numbers otherwise.
	PointLabels [][]string
	// Protocols in presentation order.
	Protocols []string
	// Cells[protocol][i] is the merged result at Points[i].
	Cells map[string][]stats.Results
}

// CrossPoints enumerates the axes' full cross product in row-major order
// (last axis fastest). Axes must already have values; zero axes yield one
// nil point (the single-cell degenerate case). Grid and the campaign
// engine share this enumeration — campaign cell labels, and therefore the
// content-derived replication seeds and journal hashes, depend on it.
func CrossPoints(axes []Axis) [][]float64 {
	if len(axes) == 0 {
		return [][]float64{nil}
	}
	points := 1
	for i := range axes {
		points *= len(axes[i].Values)
	}
	cross := make([][]float64, 0, points)
	idx := make([]int, len(axes))
	for {
		pt := make([]float64, len(axes))
		for a := range axes {
			pt[a] = axes[a].Values[idx[a]]
		}
		cross = append(cross, pt)
		a := len(axes) - 1
		for ; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(axes[a].Values) {
				break
			}
			idx[a] = 0
		}
		if a < 0 {
			break
		}
	}
	return cross
}

// Grid evaluates every protocol at every combination of the axes' values
// (full cross product) on the shared worker pool. A single axis degenerates
// to Sweep; two or more axes express experiments the v1 API could not, such
// as TxRange × offered load.
func Grid(ctx context.Context, opts Options, axes ...Axis) (*GridResult, error) {
	if len(axes) == 0 {
		return nil, fmt.Errorf("core: Grid needs at least one axis")
	}
	opts = opts.normalized()
	// Resolve into a private slice: callers passing a shared []Axis via
	// axes... must not observe default-filled Values.
	resolvedAxes := make([]Axis, len(axes))
	labels := make([]string, len(axes))
	for i := range axes {
		a, err := axes[i].Resolved(opts.Base)
		if err != nil {
			return nil, err
		}
		resolvedAxes[i] = a
		labels[i] = a.Label
	}
	axes = resolvedAxes

	cross := CrossPoints(axes)

	axisLabel := strings.Join(labels, "×")
	jobs := make([]runJob, 0, len(opts.Protocols)*len(cross)*len(opts.Seeds))
	for _, p := range opts.Protocols {
		for _, pt := range cross {
			spec := opts.Base
			for a := range axes {
				axes[a].Apply(&spec, pt[a])
			}
			value := axes[0].FormatValue(pt[0])
			for _, seed := range opts.Seeds {
				jobs = append(jobs, runJob{
					rc:    RunConfig{Spec: spec, Protocol: p, Seed: seed},
					axis:  axisLabel,
					x:     pt[0],
					value: value,
				})
			}
		}
	}
	results, err := runJobs(ctx, opts.Workers, opts.OnProgress, jobs)
	if err != nil {
		return nil, err
	}
	pointLabels := make([][]string, len(cross))
	for i, pt := range cross {
		row := make([]string, len(axes))
		for a := range axes {
			row[a] = axes[a].FormatValue(pt[a])
		}
		pointLabels[i] = row
	}
	out := &GridResult{
		Labels:      labels,
		Points:      cross,
		PointLabels: pointLabels,
		Protocols:   append([]string(nil), opts.Protocols...),
		Cells:       make(map[string][]stats.Results, len(opts.Protocols)),
	}
	ri := 0
	for _, p := range opts.Protocols {
		row := make([]stats.Results, len(cross))
		for pi := range cross {
			reps := results[ri : ri+len(opts.Seeds)]
			ri += len(opts.Seeds)
			row[pi] = stats.MergeResults(reps)
		}
		out.Cells[p] = row
	}
	return out, nil
}
