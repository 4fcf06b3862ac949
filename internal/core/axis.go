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

// Axis is one sweepable scenario dimension of the catalogue below: a label
// for rendering, the values to visit, and how one value writes into a Spec.
// The catalogue covers the study axes plus the radio/traffic dimensions the
// original harness could not express. Only its axes sweep: a sweep runs as
// a campaign, whose spec names each axis (ByName).
type Axis struct {
	Label  string
	Values []float64
	// name is the AxisByName key ("" for an axis the catalogue did not
	// build). models is a model axis's name list, which its values index,
	// so labels read "mobility_model=gauss-markov", not an index. defaults,
	// when Values is empty, derives them from the sweep's base spec
	// (PauseAxis(nil): its defaults scale with the duration). apply writes
	// one value into a Spec.
	name     string
	models   []string
	defaults func(scenario.Spec) []float64
	apply    func(*scenario.Spec, float64)
}

// FormatValue renders one axis value for labels: the model name on a model
// axis, else the shortest exact float form.
func (a Axis) FormatValue(x float64) string {
	if i := int(x); float64(i) == x && i >= 0 && i < len(a.models) {
		return a.models[i]
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// Apply writes one axis value into a spec.
func (a Axis) Apply(s *scenario.Spec, x float64) { a.apply(s, x) }

// ByName returns the AxisByName arguments that rebuild the axis at its
// values: the catalogue name and the values, or on a model axis the names
// its values index. Call it on a Resolved axis.
func (a Axis) ByName() (name string, values []float64, models []string) {
	if a.models == nil {
		return a.name, a.Values, nil
	}
	for _, v := range a.Values {
		models = append(models, a.models[int(v)])
	}
	return a.name, nil, models
}

// Resolved fills empty Values from the defaults against the given base
// spec, then validates. The campaign engine resolves every axis through
// it, a sweep's before it is named in a spec and again from that spec.
func (a Axis) Resolved(base scenario.Spec) (Axis, error) {
	if len(a.Values) == 0 && a.defaults != nil {
		a.Values = a.defaults(base)
	}
	if a.name == "" {
		return Axis{}, fmt.Errorf("core: axis %q was not built by the axis catalogue", a.Label)
	}
	if len(a.Values) == 0 {
		return Axis{}, fmt.Errorf("core: axis %q has no values", a.Label)
	}
	seen := make(map[string]bool, len(a.Values))
	for _, v := range a.Values {
		// Apply converts values to durations and counts, and Go leaves
		// converting NaN or ±Inf to an integer to the implementation.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Axis{}, fmt.Errorf("core: axis %q: value %v is not a finite number", a.Label, v)
		}
		// A bad index would run a mislabeled default-model cell.
		if i := int(v); a.models != nil && (float64(i) != v || i < 0 || i >= len(a.models)) {
			return Axis{}, fmt.Errorf("core: axis %q: value %v does not index the model list %v", a.Label, v, a.models)
		}
		// Duplicate points would expand into cells with identical labels
		// and identical runs — pure wasted work, same hazard
		// campaign.Expand rejects for duplicate protocols. Compare
		// formatted values so model axes catch index pairs that alias the
		// same model name.
		key := a.FormatValue(v)
		if seen[key] {
			return Axis{}, fmt.Errorf("core: axis %q visits %s twice", a.Label, key)
		}
		seen[key] = true
	}
	return a, nil
}

// WithValues returns a copy of the axis visiting exactly the given values
// (the defaults are dropped: an empty vs makes the axis invalid rather
// than reverting to them).
func (a Axis) WithValues(vs []float64) Axis {
	a.Values = append([]float64(nil), vs...)
	a.defaults = nil
	return a
}

// numericAxis is a catalogue axis whose values are the numbers it writes;
// nil vs selects its defaults.
func numericAxis(name, label string, vs, defaults []float64, apply func(*scenario.Spec, float64)) Axis {
	if vs == nil {
		vs = defaults
	}
	return Axis{Label: label, Values: vs, name: name, apply: apply}
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
	a := numericAxis("pause", "pause_s", vs, nil, func(s *scenario.Spec, x float64) {
		s.Pause = sim.Seconds(x)
	})
	if vs == nil {
		a.defaults = func(base scenario.Spec) []float64 {
			return DefaultPauses(base.Duration)
		}
	}
	return a
}

// NodesAxis sweeps the node count (Figure 6).
func NodesAxis(vs []float64) Axis {
	return numericAxis("nodes", "nodes", vs, []float64{10, 20, 30, 40}, func(s *scenario.Spec, x float64) {
		s.Nodes = int(x)
	})
}

// ScaleAxis sweeps the node count at constant node density: the simulation
// area grows with N so that adding nodes extends the multi-hop topology
// instead of melting the MAC. This is the large-N axis the spatial-index
// transmit path exists for; the default points reach well beyond the
// study's 40-node scenes.
func ScaleAxis(vs []float64) Axis {
	defaults := []float64{50, 100, 200, 350, 500, 1000, 2000, 5000, 10000}
	return numericAxis("scale", "nodes_scaled", vs, defaults, func(s *scenario.Spec, x float64) {
		if s.Nodes > 0 {
			k := math.Sqrt(x / float64(s.Nodes))
			s.Area.W *= k
			s.Area.H *= k
		}
		s.Nodes = int(x)
	})
}

// RateAxis sweeps the per-connection packet rate in packets/s (Figure 7).
func RateAxis(vs []float64) Axis {
	return numericAxis("rate", "rate_pps", vs, []float64{1, 2, 4, 8, 12}, func(s *scenario.Spec, x float64) {
		s.Rate = x
	})
}

// SpeedAxis sweeps the maximum node speed in m/s (Figure 8), clamping the
// minimum speed when needed.
func SpeedAxis(vs []float64) Axis {
	return numericAxis("speed", "speed_mps", vs, []float64{1, 5, 10, 15, 20}, func(s *scenario.Spec, x float64) {
		s.MaxSpeed = x
		if s.MinSpeed > x {
			s.MinSpeed = x
		}
	})
}

// SourcesAxis sweeps the number of CBR connections (the 10/20/30-source
// variants of Figures 1–2).
func SourcesAxis(vs []float64) Axis {
	return numericAxis("sources", "sources", vs, []float64{10, 20, 30}, func(s *scenario.Spec, x float64) {
		s.Sources = int(x)
	})
}

// TxRangeAxis sweeps the radio transmission range in metres; the
// carrier-sense range follows at its default 2.2× ratio unless the spec
// pins it. The v1 API had no sweep for this axis.
func TxRangeAxis(vs []float64) Axis {
	return numericAxis("txrange", "txrange_m", vs, []float64{100, 150, 200, 250}, func(s *scenario.Spec, x float64) {
		s.TxRange = x
	})
}

// CSRangeAxis sweeps the carrier-sense range in metres independently of the
// transmission range (the cumulative-interference studies' axis).
func CSRangeAxis(vs []float64) Axis {
	return numericAxis("csrange", "csrange_m", vs, []float64{300, 450, 550, 700}, func(s *scenario.Spec, x float64) {
		s.CSRange = x
	})
}

// AreaWidthAxis sweeps the simulation-area width in metres (node density at
// fixed population).
func AreaWidthAxis(vs []float64) Axis {
	return numericAxis("width", "area_w_m", vs, []float64{1000, 1500, 2250, 3000}, func(s *scenario.Spec, x float64) {
		s.Area.W = x
	})
}

// PayloadAxis sweeps the CBR payload size in bytes.
func PayloadAxis(vs []float64) Axis {
	return numericAxis("payload", "payload_B", vs, []float64{64, 256, 512, 1024}, func(s *scenario.Spec, x float64) {
		s.PayloadBytes = int(x)
	})
}

// ModelAxis sweeps one scenario-model kind (any spelling in
// scenario.ModelKinds: "mobility", "traffic_model", "churn", …) by registry
// name — the scenario-family dimensions the study held fixed. Nil names
// selects every registered model, sorted. Values are indices into names;
// FormatValue renders them back to names, so campaign cell labels carry model
// names, not list positions. Every name is validated against the registry,
// so a typo fails at expansion time rather than mid-campaign, and
// duplicates are rejected: they would expand into cells with identical
// labels and runs.
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
		name:   k.Name,
		models: names,
		apply: func(s *scenario.Spec, x float64) {
			if i := int(x); i >= 0 && i < len(names) {
				name, params := k.Ref(s)
				if resolve(*name) != resolve(names[i]) {
					*params = nil
				}
				*name = names[i]
			}
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
// nil point (the single-cell degenerate case). The campaign engine's cell
// grid, and so its cell labels and journal hashes, follow this order.
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
