package core

import (
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

// Axis is one sweepable scenario dimension: a catalogue name and the values
// it visits. It is both the Go form and the JSON form ("axes" of POST
// /campaigns) of a campaign axis; campaign.Expand resolves it through
// CrossAxes.
//
// Name is a numeric catalogue axis ("pause", "txrange", …; AxisNames) or a
// model kind of scenario.ModelKinds ("mobility", "traffic", "radio",
// "lifecycle"). A numeric axis visits Values. A model axis visits Models,
// registry names, or, when Values are given instead, indices into its
// sorted registry; cell labels carry the model names either way. A nil
// list selects the axis defaults (for a model axis, its whole registry);
// an empty one is refused, so a filtered list that came up empty fails
// instead of launching the full default sweep.
type Axis struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values,omitempty"`
	Models []string  `json:"models,omitempty"`
}

// axisDef is one numeric axis of the catalogue: the label its cells carry,
// the values a nil list selects (from the sweep's base spec), and how one
// value writes into a spec.
type axisDef struct {
	label    string
	defaults func(base scenario.Spec) []float64
	apply    func(s *scenario.Spec, x float64)
}

func fixed(vs ...float64) func(scenario.Spec) []float64 {
	return func(scenario.Spec) []float64 { return vs }
}

// numericAxes is the numeric catalogue by CLI name; the model axes are
// named by scenario.ModelKinds. The defaults are the canonical points of
// the study, or a sensible spread for the axes it did not sweep.
var numericAxes = map[string]axisDef{
	// Random-waypoint pause time in seconds (Figures 1–4); the Broch-style
	// defaults scale to the base spec's duration.
	"pause": {"pause_s", func(base scenario.Spec) []float64 { return DefaultPauses(base.Duration) },
		func(s *scenario.Spec, x float64) { s.Pause = sim.Seconds(x) }},
	// Node count (Figure 6).
	"nodes": {"nodes", fixed(10, 20, 30, 40),
		func(s *scenario.Spec, x float64) { s.Nodes = int(x) }},
	// Node count at constant density: the area grows with N, so added
	// nodes extend the multi-hop topology instead of melting the MAC. The
	// defaults reach the spatial-index regime, far past the study's 40.
	"scale": {"nodes_scaled", fixed(50, 100, 200, 350, 500, 1000, 2000, 5000, 10000),
		func(s *scenario.Spec, x float64) {
			if s.Nodes > 0 {
				k := math.Sqrt(x / float64(s.Nodes))
				s.Area.W *= k
				s.Area.H *= k
			}
			s.Nodes = int(x)
		}},
	// Per-connection packet rate in packets/s (Figure 7).
	"rate": {"rate_pps", fixed(1, 2, 4, 8, 12),
		func(s *scenario.Spec, x float64) { s.Rate = x }},
	// Maximum node speed in m/s (Figure 8), clamping the minimum speed.
	"speed": {"speed_mps", fixed(1, 5, 10, 15, 20),
		func(s *scenario.Spec, x float64) {
			s.MaxSpeed = x
			if s.MinSpeed > x {
				s.MinSpeed = x
			}
		}},
	// Number of CBR connections (the 10/20/30-source variants of
	// Figures 1–2).
	"sources": {"sources", fixed(10, 20, 30),
		func(s *scenario.Spec, x float64) { s.Sources = int(x) }},
	// Transmission range in metres; the carrier-sense range follows at its
	// default 2.2× ratio unless the spec pins it.
	"txrange": {"txrange_m", fixed(100, 150, 200, 250),
		func(s *scenario.Spec, x float64) { s.TxRange = x }},
	// Carrier-sense range in metres, independent of the transmission range
	// (the cumulative-interference studies' axis).
	"csrange": {"csrange_m", fixed(300, 450, 550, 700),
		func(s *scenario.Spec, x float64) { s.CSRange = x }},
	// Simulation-area width in metres (density at fixed population).
	"width": {"area_w_m", fixed(1000, 1500, 2250, 3000),
		func(s *scenario.Spec, x float64) { s.Area.W = x }},
	// CBR payload size in bytes.
	"payload": {"payload_B", fixed(64, 256, 512, 1024),
		func(s *scenario.Spec, x float64) { s.PayloadBytes = int(x) }},
}

// The catalogue constructors; nil values select the axis defaults.

func PauseAxis(vs []float64) Axis     { return Axis{Name: "pause", Values: vs} }
func NodesAxis(vs []float64) Axis     { return Axis{Name: "nodes", Values: vs} }
func ScaleAxis(vs []float64) Axis     { return Axis{Name: "scale", Values: vs} }
func RateAxis(vs []float64) Axis      { return Axis{Name: "rate", Values: vs} }
func SpeedAxis(vs []float64) Axis     { return Axis{Name: "speed", Values: vs} }
func SourcesAxis(vs []float64) Axis   { return Axis{Name: "sources", Values: vs} }
func TxRangeAxis(vs []float64) Axis   { return Axis{Name: "txrange", Values: vs} }
func CSRangeAxis(vs []float64) Axis   { return Axis{Name: "csrange", Values: vs} }
func AreaWidthAxis(vs []float64) Axis { return Axis{Name: "width", Values: vs} }
func PayloadAxis(vs []float64) Axis   { return Axis{Name: "payload", Values: vs} }

// ModelAxis sweeps one scenario-model kind (any spelling in
// scenario.ModelKinds: "mobility", "traffic_model", "churn", …) by registry
// name — the scenario-family dimensions the study held fixed. Nil names
// select every registered model, sorted. The kind and every name are
// checked against the registries here, so a typo fails where it is
// written; duplicates are refused, as they would expand into cells with
// identical labels and runs.
//
// When the applied name is the base spec's own model its tuned Params are
// kept (so a parameterized base can be compared against other models);
// switching to a different model resets Params to that model's defaults.
// Spec fields outside the model spec — speed/pause, ranges, the radio
// kind's SINR reception switch — shape every model either way.
func ModelAxis(kind string, names []string) (Axis, error) {
	k, err := modelKind(kind)
	if err == nil {
		_, err = modelNames(k, names)
	}
	if err != nil {
		return Axis{}, err
	}
	return Axis{Name: k.Name, Models: names}, nil
}

func modelKind(name string) (scenario.ModelKind, error) {
	k, ok := scenario.ModelKindByName(name)
	if !ok {
		return k, fmt.Errorf("core: axis %q does not take model names (model axes: %s)",
			name, strings.Join(modelKindNames(), ", "))
	}
	return k, nil
}

// modelNames validates a model axis's name list and returns the names its
// values index: the list itself, or the sorted registry for nil.
func modelNames(k scenario.ModelKind, names []string) ([]string, error) {
	if names == nil {
		return k.Models.Names(), nil
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("core: axis %q has no models", k.Label)
	}
	seen := make(map[string]bool, len(names))
	for _, m := range names {
		if !k.Models.Known(m) {
			return nil, fmt.Errorf("core: unknown %s model %q (registered: %s)",
				k.Name, m, strings.Join(k.Models.Names(), ", "))
		}
		canon := modelreg.Canonical(m)
		if seen[canon] {
			return nil, fmt.Errorf("core: %s model %q listed twice", k.Name, canon)
		}
		seen[canon] = true
	}
	return names, nil
}

func modelKindNames() []string {
	out := make([]string, len(scenario.ModelKinds))
	for i, k := range scenario.ModelKinds {
		out[i] = k.Name
	}
	return out
}

// AxisNames lists the catalogue's axis names, sorted.
func AxisNames() []string {
	out := modelKindNames()
	for name := range numericAxes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// resolvedAxis is an Axis looked up in the catalogue: its label, the values
// it visits, the model names they index (model axes only), and how one
// value writes into a spec.
type resolvedAxis struct {
	label  string
	values []float64
	models []string
	apply  func(*scenario.Spec, float64)
}

// format renders one axis value for labels: the model name on a model
// axis, else the shortest exact float form.
func (a *resolvedAxis) format(x float64) string {
	if i := int(x); float64(i) == x && i >= 0 && i < len(a.models) {
		return a.models[i]
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// resolve looks the axis up in the catalogue, selects its defaults against
// the base spec, and validates its values.
func (ax Axis) resolve(base scenario.Spec) (resolvedAxis, error) {
	var a resolvedAxis
	if _, isKind := scenario.ModelKindByName(ax.Name); isKind || ax.Models != nil {
		k, err := modelKind(ax.Name)
		if err != nil {
			return a, err
		}
		if ax.Values != nil && ax.Models != nil {
			return a, fmt.Errorf("core: axis %q sets both values and models", ax.Name)
		}
		names, err := modelNames(k, ax.Models)
		if err != nil {
			return a, err
		}
		a = resolvedAxis{label: k.Label, values: ax.Values, models: names, apply: modelApply(k, names)}
		if a.values == nil {
			a.values = make([]float64, len(names))
			for i := range names {
				a.values[i] = float64(i)
			}
		}
	} else {
		def, ok := numericAxes[strings.ToLower(strings.TrimSpace(ax.Name))]
		if !ok {
			return a, fmt.Errorf("core: unknown axis %q (known: %s)", ax.Name, strings.Join(AxisNames(), ", "))
		}
		a = resolvedAxis{label: def.label, values: ax.Values, apply: def.apply}
		if a.values == nil {
			a.values = def.defaults(base)
		}
	}
	if len(a.values) == 0 {
		return a, fmt.Errorf("core: axis %q has no values", a.label)
	}
	seen := make(map[string]bool, len(a.values))
	for _, v := range a.values {
		// apply converts values to durations and counts, and Go leaves
		// converting NaN or ±Inf to an integer to the implementation.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return a, fmt.Errorf("core: axis %q: value %v is not a finite number", a.label, v)
		}
		// A bad index would run a mislabeled default-model cell.
		if i := int(v); a.models != nil && (float64(i) != v || i < 0 || i >= len(a.models)) {
			return a, fmt.Errorf("core: axis %q: value %v does not index the model list %v", a.label, v, a.models)
		}
		// Duplicate points would expand into cells with identical labels
		// and identical runs. Compare formatted values so model axes catch
		// index pairs that alias the same model name.
		key := a.format(v)
		if seen[key] {
			return a, fmt.Errorf("core: axis %q visits %s twice", a.label, key)
		}
		seen[key] = true
	}
	return a, nil
}

// modelApply writes the name a model-axis value indexes into the kind's
// model spec, resetting the params unless the name is the spec's own model.
func modelApply(k scenario.ModelKind, names []string) func(*scenario.Spec, float64) {
	// canon canonicalizes a name, the empty one to the kind's default.
	canon := func(name string) string {
		if c := modelreg.Canonical(name); c != "" {
			return c
		}
		return k.Models.Default()
	}
	return func(s *scenario.Spec, x float64) {
		if i := int(x); i >= 0 && i < len(names) {
			name, params := k.Ref(s)
			if canon(*name) != canon(names[i]) {
				*params = nil
			}
			*name = names[i]
		}
	}
}

// AxisGrid is the cross product of resolved axes.
type AxisGrid struct {
	// Labels are the axis labels ("pause_s", "mobility_model"), outermost
	// first.
	Labels []string
	// Points is the cross product in row-major order (last axis fastest);
	// Points[i][a] is the value of axis a at point i.
	Points [][]float64
	// Ticks[i][a] renders Points[i][a]: the model name on a model axis,
	// else the shortest exact float form.
	Ticks [][]string
	// Specs[i] is the base spec with point i's values written into it.
	Specs []scenario.Spec
}

// CrossAxes resolves the axes against the base spec — catalogue lookup,
// defaults, validation — and enumerates their cross product, once it is
// known to hold at most maxPoints points. Zero axes give the one point of
// the base spec. campaign.Expand builds its cell grid, and so its cell
// labels and plan hash, from it.
func CrossAxes(base scenario.Spec, axes []Axis, maxPoints int) (AxisGrid, error) {
	rs := make([]resolvedAxis, len(axes))
	g := AxisGrid{Labels: make([]string, len(axes))}
	seen := make(map[string]bool, len(axes))
	points := 1
	for i, ax := range axes {
		a, err := ax.resolve(base)
		if err != nil {
			return AxisGrid{}, err
		}
		if seen[a.label] {
			return AxisGrid{}, fmt.Errorf("core: axis %q listed twice", ax.Name)
		}
		seen[a.label] = true
		// Every axis has values by now, so the division is safe and the
		// product never leaves int range.
		if points > maxPoints/len(a.values) {
			return AxisGrid{}, fmt.Errorf("core: the axes cross to more than %d points", maxPoints)
		}
		points *= len(a.values)
		rs[i], g.Labels[i] = a, a.label
	}
	idx := make([]int, len(rs))
	for range points {
		var pt []float64
		var ticks []string
		if len(rs) > 0 { // zero axes give one nil point, as the plan hash reads it
			pt, ticks = make([]float64, len(rs)), make([]string, len(rs))
		}
		spec := base
		for a := range rs {
			pt[a] = rs[a].values[idx[a]]
			ticks[a] = rs[a].format(pt[a])
			rs[a].apply(&spec, pt[a])
		}
		g.Points, g.Ticks, g.Specs = append(g.Points, pt), append(g.Ticks, ticks), append(g.Specs, spec)
		for a := len(rs) - 1; a >= 0; a-- {
			if idx[a]++; idx[a] < len(rs[a].values) {
				break
			}
			idx[a] = 0
		}
	}
	return g, nil
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
