// Package scenario turns a declarative experiment specification into
// concrete simulation inputs: mobility tracks (setdest), traffic connection
// lists (cbrgen) and radio parameters, all derived deterministically from a
// seed.
//
// The four scenario-model kinds — mobility, traffic, radio, lifecycle — are
// named, parameterized and JSON-serializable (ModelSpec) and resolve
// through the closed model table in their packages, so campaigns and the
// HTTP service can select and sweep scenario families by name.
// ModelKinds is the one table describing them; every layer above iterates
// it instead of naming kinds. Zero-valued specs select the study models
// (random waypoint, CBR, two-ray ground with pairwise capture, static
// membership) and compile bit-identically to the pre-registry harness.
package scenario

import (
	"fmt"
	"math"
	"slices"

	"adhocsim/internal/geo"
	"adhocsim/internal/lifecycle"
	"adhocsim/internal/mobility"
	"adhocsim/internal/modelreg"
	"adhocsim/internal/phy"
	"adhocsim/internal/radio"
	"adhocsim/internal/sim"
	"adhocsim/internal/traffic"
)

// ModelSpec names a registered model of one kind with optional parameter
// overrides. The zero value selects the kind's study default, shaped by
// the Spec-level fields (speed/pause, rate/payload, ranges).
type ModelSpec struct {
	Name   string             `json:"name,omitempty"`
	Params map[string]float64 `json:"params,omitempty"`
}

// The per-kind names of ModelSpec.
type (
	MobilitySpec  = ModelSpec
	TrafficSpec   = ModelSpec
	LifecycleSpec = ModelSpec
)

// RadioSpec is a ModelSpec for the radio kind plus the reception-model
// switch.
type RadioSpec struct {
	Name   string             `json:"name,omitempty"`
	Params map[string]float64 `json:"params,omitempty"`
	// SINR switches reception from the pairwise capture test to
	// cumulative-interference SINR (see phy.Config.SINR). It is
	// orthogonal to the propagation model: any registered model runs in
	// either mode.
	SINR bool `json:"sinr,omitempty"`
}

// ModelKind is one row of the model-kind table.
type ModelKind struct {
	// Name is the kind's CLI flag, campaign axis and JSON field name.
	Name string
	// Label is the kind's axis label; cell labels, and therefore derived
	// seeds and plan hashes, contain it.
	Label string
	// Aliases are further accepted spellings of the axis name, beyond
	// Name and Label.
	Aliases []string
	// Models lists the kind's models.
	Models modelreg.Listing
	// Ref locates the kind's model name and parameters inside a Spec.
	Ref func(*Spec) (name *string, params *map[string]float64)
}

// ModelKinds is the table of scenario-model kinds, in presentation order.
var ModelKinds = []ModelKind{
	{Name: "mobility", Label: "mobility_model", Models: mobility.Models,
		Ref: func(s *Spec) (*string, *map[string]float64) { return &s.Mobility.Name, &s.Mobility.Params }},
	{Name: "traffic", Label: "traffic_model", Models: traffic.Models,
		Ref: func(s *Spec) (*string, *map[string]float64) { return &s.Traffic.Name, &s.Traffic.Params }},
	{Name: "radio", Label: "radio_model", Models: radio.Models,
		Ref: func(s *Spec) (*string, *map[string]float64) { return &s.Radio.Name, &s.Radio.Params }},
	{Name: "lifecycle", Label: "lifecycle_model", Aliases: []string{"churn"}, Models: lifecycle.Models,
		Ref: func(s *Spec) (*string, *map[string]float64) { return &s.Lifecycle.Name, &s.Lifecycle.Params }},
}

// ModelKindByName resolves any accepted spelling of a kind ("mobility",
// "mobility_model", …, "churn"), case-insensitively.
func ModelKindByName(name string) (ModelKind, bool) {
	name = modelreg.Canonical(name)
	for _, k := range ModelKinds {
		if name == k.Name || name == k.Label || slices.Contains(k.Aliases, name) {
			return k, true
		}
	}
	return ModelKind{}, false
}

// Spec describes one experiment configuration (before seeding).
type Spec struct {
	// Nodes is the network size (study: up to 40).
	Nodes int
	// Area is the simulation rectangle in metres (study family:
	// 1500×300).
	Area geo.Rect
	// Duration is the simulated time horizon.
	Duration sim.Duration

	// Mobility (random waypoint unless Static).
	MaxSpeed float64 // m/s (study: 20)
	MinSpeed float64 // m/s (CMU setdest uses ~1 to avoid speed decay)
	Pause    sim.Duration

	// Traffic.
	Sources      int     // number of traffic connections
	Rate         float64 // packets/s per connection (study: 4)
	PayloadBytes int     // study: 64
	// TrafficStart window: connection start times are uniform in
	// [StartMin, StartMax].
	StartMin, StartMax sim.Duration

	// Radio.
	TxRange float64 // metres (study: 250); 0 selects the default params
	CSRange float64 // metres; 0 selects 2.2 × TxRange

	// Mobility selects a registered mobility model by name with optional
	// model-specific parameters; the zero value is the study's random
	// waypoint shaped by the speed/pause fields above.
	Mobility MobilitySpec
	// Traffic selects a registered traffic model; the zero value is the
	// study's CBR shaped by Rate/PayloadBytes.
	Traffic TrafficSpec
	// Radio selects a registered radio/propagation model and the
	// reception mode; the zero value is the study's two-ray ground with
	// pairwise capture, shaped by the TxRange/CSRange fields above.
	Radio RadioSpec
	// Lifecycle selects a registered churn model compiling to a per-run
	// schedule of Join/Leave/Fail/Recover membership events; the zero
	// value is the static fixed population. omitzero keeps the zero-value
	// spec's JSON — and therefore every campaign plan hash and
	// distributed-cache unit key derived from it — byte-identical to the
	// pre-lifecycle harness.
	Lifecycle LifecycleSpec `json:",omitzero"`
}

// Default returns the reconstructed study configuration: 40 nodes,
// 1500×300 m, 20 m/s random waypoint, 10 CBR sources at 4 pkt/s of 64-byte
// payloads, 250 m radios, 900 s horizon.
func Default() Spec {
	return Spec{
		Nodes:        40,
		Area:         geo.Rect{W: 1500, H: 300},
		Duration:     900 * sim.Second,
		MaxSpeed:     20,
		MinSpeed:     1,
		Pause:        0,
		Sources:      10,
		Rate:         4,
		PayloadBytes: 64,
		StartMin:     10 * sim.Second,
		StartMax:     90 * sim.Second,
		TxRange:      250,
	}
}

// MobilityModel resolves the spec's mobility model through the registry.
func (s Spec) MobilityModel() (mobility.Model, error) {
	env := mobility.Env{
		Area:     s.Area,
		MinSpeed: s.MinSpeed,
		MaxSpeed: s.MaxSpeed,
		Pause:    s.Pause,
	}
	return mobility.New(s.Mobility.Name, env, s.Mobility.Params)
}

// TrafficGenerator resolves the spec's traffic model through the registry.
func (s Spec) TrafficGenerator() (traffic.Generator, error) {
	return traffic.New(s.Traffic.Name, s.Traffic.Params)
}

// RadioModel resolves the spec's radio model through the registry for one
// run. The seed matters only to the stochastic models (shadowing, fading),
// which root their content-derived draws in it; Validate dry-runs with
// seed 0.
func (s Spec) RadioModel(seed int64) (phy.RadioParams, error) {
	env := radio.Env{TxRange: s.TxRange, CSRange: s.CSRange, Seed: seed}
	return radio.New(s.Radio.Name, env, s.Radio.Params)
}

// LifecycleModel resolves the spec's churn model through the registry. pos
// reports node positions to spatially-correlated models (partition-heal);
// nil pins every node to the origin, which Validate's dry runs use so they
// never have to generate mobility tracks.
func (s Spec) LifecycleModel(pos func(node int, at sim.Time) geo.Point) (lifecycle.Model, error) {
	return lifecycle.New(s.Lifecycle.Name, s.lifecycleEnv(pos), s.Lifecycle.Params)
}

// lifecycleEnv is the churn-model-facing view of the spec.
func (s Spec) lifecycleEnv(pos func(node int, at sim.Time) geo.Point) lifecycle.Env {
	return lifecycle.Env{
		Nodes:    s.Nodes,
		Duration: s.Duration,
		Area:     s.Area,
		Pos:      pos,
	}
}

// trafficEnv is the generator-facing view of the spec for one run.
func (s Spec) trafficEnv(seed int64) traffic.Env {
	return traffic.Env{
		Nodes:        s.Nodes,
		Sources:      s.Sources,
		Rate:         s.Rate,
		PayloadBytes: s.PayloadBytes,
		StartMin:     s.StartMin,
		StartMax:     s.StartMax,
		Duration:     s.Duration,
		Seed:         seed,
	}
}

// Validate reports configuration errors, including mobility/traffic/radio
// model names that do not resolve in the registries and malformed model
// parameters. Radio parameters additionally pass phy.RadioParams.Validate,
// so a capture ratio at or below 1 (formerly a channel-constructor panic)
// surfaces here — at spec/campaign submission time.
func (s Spec) Validate() error {
	if err := s.validateFields(); err != nil {
		return err
	}
	if _, err := s.MobilityModel(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if _, err := s.TrafficGenerator(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if _, err := s.RadioModel(0); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	// The lifecycle model is dry-run twice: the registry's zero-node build
	// catches malformed parameters, and a full-population seed-0 schedule (with
	// origin-pinned positions, so no tracks are generated) is bounds-checked
	// so churn that falls outside the run horizon — a join scheduled after
	// Duration — fails at campaign submission, not mid-flight.
	model, err := s.LifecycleModel(nil)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	events, err := model.Schedule(s.lifecycleEnv(nil), sim.NewRNG(0))
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if err := lifecycle.Check(events, s.Nodes, s.Duration); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

// validateFields checks the plain scalar fields; Validate additionally
// resolves the model specs, and Generate resolves them itself (once) so a
// run does not build every model twice.
func (s Spec) validateFields() error {
	// strconv.ParseFloat reads "nan" and "inf", so a CLI flag or a Go
	// caller can supply them (JSON cannot); NaN passes every bound below.
	for _, f := range []struct {
		name string
		v    float64
	}{{"Area.W", s.Area.W}, {"Area.H", s.Area.H}, {"MinSpeed", s.MinSpeed}, {"MaxSpeed", s.MaxSpeed},
		{"Rate", s.Rate}, {"TxRange", s.TxRange}, {"CSRange", s.CSRange}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("scenario: %s is %v, not a finite number", f.name, f.v)
		}
	}
	if s.Nodes < 2 {
		return fmt.Errorf("scenario: need at least 2 nodes, got %d", s.Nodes)
	}
	if s.Area.W <= 0 || s.Area.H <= 0 {
		return fmt.Errorf("scenario: degenerate area %+v", s.Area)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("scenario: non-positive duration")
	}
	if s.Sources < 1 {
		return fmt.Errorf("scenario: need at least one source")
	}
	if s.Sources > s.Nodes*(s.Nodes-1) {
		return fmt.Errorf("scenario: %d sources exceed possible pairs", s.Sources)
	}
	if s.Rate <= 0 {
		return fmt.Errorf("scenario: non-positive rate %v", s.Rate)
	}
	if s.PayloadBytes <= 0 {
		return fmt.Errorf("scenario: non-positive payload %d bytes", s.PayloadBytes)
	}
	if s.MaxSpeed < 0 || s.MinSpeed < 0 {
		return fmt.Errorf("scenario: negative speed [%v,%v]", s.MinSpeed, s.MaxSpeed)
	}
	if s.MaxSpeed < s.MinSpeed {
		return fmt.Errorf("scenario: MinSpeed %v exceeds MaxSpeed %v", s.MinSpeed, s.MaxSpeed)
	}
	if s.Pause < 0 {
		return fmt.Errorf("scenario: negative pause %v", s.Pause)
	}
	if s.StartMin < 0 {
		return fmt.Errorf("scenario: negative traffic start %v", s.StartMin)
	}
	if s.StartMax < s.StartMin {
		return fmt.Errorf("scenario: traffic start window [%v,%v] ends before it begins",
			s.StartMin, s.StartMax)
	}
	return nil
}

// Instance is a fully-generated scenario ready to simulate.
type Instance struct {
	Spec        Spec
	Seed        int64
	Tracks      []*mobility.Track
	Connections []traffic.Connection
	Radio       phy.RadioParams
	// Lifecycle is the compiled membership schedule in canonical order;
	// nil for the static lifecycle.
	Lifecycle []lifecycle.Event
}

// Generate expands the spec deterministically from seed: the mobility model
// consumes the run's "mobility" substream, the traffic generator the
// "traffic" substream (stochastic emission processes additionally derive
// per-connection seeds via sim.DeriveSeed). Identical (spec, seed) pairs
// yield identical instances across processes.
func (s Spec) Generate(seed int64) (*Instance, error) {
	// Resolving the models here doubles as their validation (Validate does
	// the same resolution), so each run builds every model exactly once.
	if err := s.validateFields(); err != nil {
		return nil, err
	}
	model, err := s.MobilityModel()
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	gen, err := s.TrafficGenerator()
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	root := sim.NewRNG(seed)

	tracks, err := model.Generate(s.Nodes, s.Duration, root.ForkNamed("mobility"))
	if err != nil {
		return nil, err
	}
	conns, err := gen.Connections(s.trafficEnv(seed), root.ForkNamed("traffic"))
	if err != nil {
		return nil, err
	}

	// Positions are served from a lazily-built track table, so only
	// spatially-correlated churn models (partition-heal) pay for it.
	var posTab *mobility.Table
	pos := func(node int, at sim.Time) geo.Point {
		if posTab == nil {
			posTab = mobility.NewTable(tracks)
		}
		return posTab.At(node, at)
	}
	lcModel, err := s.LifecycleModel(pos)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	// The lifecycle fork is drawn unconditionally — after the mobility and
	// traffic forks, which root consumed last before this registry existed —
	// so the static lifecycle leaves every earlier substream untouched and
	// the instance bit-identical to the fixed-population harness.
	churn, err := lcModel.Schedule(s.lifecycleEnv(pos), root.ForkNamed("lifecycle"))
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	lifecycle.Normalize(churn)
	if err := lifecycle.Check(churn, s.Nodes, s.Duration); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}

	params, err := s.RadioModel(seed)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}

	return &Instance{
		Spec:        s,
		Seed:        seed,
		Tracks:      tracks,
		Connections: conns,
		Radio:       params,
		Lifecycle:   churn,
	}, nil
}
