package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"adhocsim/internal/lifecycle"
	"adhocsim/internal/mobility"
	"adhocsim/internal/modelreg"
	"adhocsim/internal/radio"
	"adhocsim/internal/scenario"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
	"adhocsim/internal/traffic"
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

// modelAxis builds a categorical axis over a model-name list: values are
// indices into names, Apply writes the indexed name into the spec, Format
// renders names into labels (and therefore into campaign cell labels and
// content-derived replication seeds).
func modelAxis(label string, names []string, apply func(*scenario.Spec, string)) Axis {
	names = append([]string(nil), names...)
	vs := make([]float64, len(names))
	for i := range vs {
		vs[i] = float64(i)
	}
	return Axis{
		Label:  label,
		Values: vs,
		Apply: func(s *scenario.Spec, x float64) {
			if i := int(x); i >= 0 && i < len(names) {
				apply(s, names[i])
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
	}
}

// sameModelName compares two model names canonically, resolving the empty
// name to the model kind's default.
func sameModelName(a, b, def string) bool {
	ca := modelreg.Canonical(a)
	if ca == "" {
		ca = def
	}
	cb := modelreg.Canonical(b)
	if cb == "" {
		cb = def
	}
	return ca == cb
}

// MobilityModelAxis sweeps the mobility model by registry name (the
// scenario-family dimension the study held fixed at random waypoint). Nil
// names selects every registered model, sorted. When the applied name is
// the base spec's own model its tuned Params are kept (so a parameterized
// base can be compared against other models); switching to a different
// model resets Params to that model's defaults. The generic speed/pause
// fields shape every model through its environment either way.
func MobilityModelAxis(names []string) Axis {
	if len(names) == 0 {
		names = mobility.Registered()
	}
	return modelAxis("mobility_model", names, func(s *scenario.Spec, name string) {
		if sameModelName(s.Mobility.Name, name, mobility.DefaultModel) {
			s.Mobility.Name = name
			return
		}
		s.Mobility = scenario.MobilitySpec{Name: name}
	})
}

// TrafficModelAxis sweeps the traffic model by registry name. Nil names
// selects every registered model, sorted. Like MobilityModelAxis, the base
// spec's own model keeps its tuned Params.
func TrafficModelAxis(names []string) Axis {
	if len(names) == 0 {
		names = traffic.Registered()
	}
	return modelAxis("traffic_model", names, func(s *scenario.Spec, name string) {
		if sameModelName(s.Traffic.Name, name, traffic.DefaultModel) {
			s.Traffic.Name = name
			return
		}
		s.Traffic = scenario.TrafficSpec{Name: name}
	})
}

// RadioModelAxis sweeps the radio/propagation model by registry name (the
// channel-condition dimension the study held fixed at two-ray ground). Nil
// names selects every registered model, sorted. Like the other model axes
// the base spec's own model keeps its tuned Params; switching models
// resets Params but preserves the base's SINR reception-mode switch —
// propagation and reception model are orthogonal, so a SINR campaign can
// sweep propagation without flipping reception back to pairwise capture.
func RadioModelAxis(names []string) Axis {
	if len(names) == 0 {
		names = radio.Registered()
	}
	return modelAxis("radio_model", names, func(s *scenario.Spec, name string) {
		if sameModelName(s.Radio.Name, name, radio.DefaultModel) {
			s.Radio.Name = name
			return
		}
		s.Radio = scenario.RadioSpec{Name: name, SINR: s.Radio.SINR}
	})
}

// ChurnModelAxis sweeps the node-lifecycle (churn) model by registry name —
// the membership dimension the study held fixed at a static population. Nil
// names selects every registered model, sorted. Like the other model axes
// the base spec's own model keeps its tuned Params; switching models resets
// Params to that model's defaults.
func ChurnModelAxis(names []string) Axis {
	if len(names) == 0 {
		names = lifecycle.Registered()
	}
	return modelAxis("lifecycle_model", names, func(s *scenario.Spec, name string) {
		if sameModelName(s.Lifecycle.Name, name, lifecycle.DefaultModel) {
			s.Lifecycle.Name = name
			return
		}
		s.Lifecycle = scenario.LifecycleSpec{Name: name}
	})
}

// ModelAxisByName resolves the categorical model axes by CLI name
// ("mobility", "traffic", "radio", "lifecycle") with an explicit model-name list (nil
// selects the whole registry), validating every name against the registry
// so a typo fails at expansion time rather than mid-campaign. Duplicate
// names are rejected: they would expand into cells with identical labels
// and therefore identical replication seeds.
func ModelAxisByName(name string, models []string) (Axis, error) {
	checkModels := func(kind string, known func(string) bool, registered func() []string) error {
		seen := make(map[string]bool, len(models))
		for _, m := range models {
			if !known(m) {
				return fmt.Errorf("core: unknown %s model %q (registered: %s)",
					kind, m, strings.Join(registered(), ", "))
			}
			canon := strings.ToLower(strings.TrimSpace(m))
			if seen[canon] {
				return fmt.Errorf("core: %s model %q listed twice", kind, canon)
			}
			seen[canon] = true
		}
		return nil
	}
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "mobility", "mobility_model":
		if err := checkModels("mobility", mobility.Known, mobility.Registered); err != nil {
			return Axis{}, err
		}
		return MobilityModelAxis(models), nil
	case "traffic", "traffic_model":
		if err := checkModels("traffic", traffic.Known, traffic.Registered); err != nil {
			return Axis{}, err
		}
		return TrafficModelAxis(models), nil
	case "radio", "radio_model":
		if err := checkModels("radio", radio.Known, radio.Registered); err != nil {
			return Axis{}, err
		}
		return RadioModelAxis(models), nil
	case "lifecycle", "lifecycle_model", "churn":
		if err := checkModels("lifecycle", lifecycle.Known, lifecycle.Registered); err != nil {
			return Axis{}, err
		}
		return ChurnModelAxis(models), nil
	}
	return Axis{}, fmt.Errorf("core: axis %q does not take model names (model axes: mobility, traffic, radio, lifecycle)", name)
}

// axisConstructors maps CLI-friendly names to catalogue constructors. The
// model axes take float indices here (the JSON/CLI string form goes
// through ModelAxisByName); nil selects the full registry.
var axisConstructors = map[string]func([]float64) Axis{
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
	"mobility": func(vs []float64) Axis {
		a := MobilityModelAxis(nil)
		if vs != nil {
			a = a.WithValues(vs)
		}
		return a
	},
	"traffic": func(vs []float64) Axis {
		a := TrafficModelAxis(nil)
		if vs != nil {
			a = a.WithValues(vs)
		}
		return a
	},
	"radio": func(vs []float64) Axis {
		a := RadioModelAxis(nil)
		if vs != nil {
			a = a.WithValues(vs)
		}
		return a
	},
	"lifecycle": func(vs []float64) Axis {
		a := ChurnModelAxis(nil)
		if vs != nil {
			a = a.WithValues(vs)
		}
		return a
	},
}

// AxisNames lists the catalogue names understood by AxisByName, sorted.
func AxisNames() []string {
	out := make([]string, 0, len(axisConstructors))
	for name := range axisConstructors {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AxisByName resolves a catalogue axis by CLI name ("txrange", "pause", …)
// with the given values (nil selects the axis defaults).
func AxisByName(name string, vs []float64) (Axis, error) {
	ctor := axisConstructors[strings.ToLower(strings.TrimSpace(name))]
	if ctor == nil {
		return Axis{}, fmt.Errorf("core: unknown axis %q (known: %s)",
			name, strings.Join(AxisNames(), ", "))
	}
	return ctor(vs), nil
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

// Point returns the index into Cells rows for the given axis values, or -1
// if the combination is not part of the grid.
func (g *GridResult) Point(values ...float64) int {
	for i, pt := range g.Points {
		if len(pt) != len(values) {
			return -1
		}
		match := true
		for a := range pt {
			if pt[a] != values[a] {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
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
			for _, seed := range opts.Seeds {
				jobs = append(jobs, runJob{
					rc:   RunConfig{Spec: spec, Protocol: p, Seed: seed, Mac: opts.Mac, Tweaks: opts.Tweaks},
					axis: axisLabel,
					x:    pt[0],
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
