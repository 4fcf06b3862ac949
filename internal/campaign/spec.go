// Package campaign is the batch layer over the experiment API and its one
// sweep executor: it expands a declarative Spec (protocols × sweep axes ×
// replication policy) into a run set, executes it on a work-stealing
// worker pool over the cancellable core runner, aggregates every metric
// cell online (Welford moments, Student-t 95% confidence intervals), stops
// cells early once their estimates are tight enough, and journals
// completed runs to a JSONL checkpoint so a killed campaign resumes
// bit-identically. Sweep, Grid, RunReplicatedContext and Verify run the
// experiment API's replicated runs as campaigns.
//
// Determinism contract: replication r of every cell runs seed BaseSeed + r,
// so the cells of one replication are paired — every protocol and every
// axis point sees the same seed, as the figures compare them. Runs
// themselves are deterministic, and per-cell aggregation commits
// replications in replication order regardless of completion order. A
// campaign that is interrupted (context cancellation or process death) and
// resumed from its journal therefore produces a Result that is
// reflect.DeepEqual to the uninterrupted one.
package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"adhocsim/internal/core"
	"adhocsim/internal/metrics"
	"adhocsim/internal/scenario"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// AxisSpec is core.Axis: a campaign spec's axes are catalogue axes.
type AxisSpec = core.Axis

// ScenarioPatch overrides individual fields of the default study scenario
// (scenario.Default) in JSON-friendly units. Only fields present in the JSON
// override; absent fields keep the study defaults. It exists so HTTP clients
// can shape scenarios without knowing the simulator's nanosecond clock.
type ScenarioPatch struct {
	Nodes        *int     `json:"nodes,omitempty"`
	AreaW        *float64 `json:"area_w_m,omitempty"`
	AreaH        *float64 `json:"area_h_m,omitempty"`
	DurationS    *float64 `json:"duration_s,omitempty"`
	PauseS       *float64 `json:"pause_s,omitempty"`
	MaxSpeed     *float64 `json:"max_speed_mps,omitempty"`
	MinSpeed     *float64 `json:"min_speed_mps,omitempty"`
	Sources      *int     `json:"sources,omitempty"`
	Rate         *float64 `json:"rate_pps,omitempty"`
	PayloadBytes *int     `json:"payload_bytes,omitempty"`
	TxRange      *float64 `json:"tx_range_m,omitempty"`
	CSRange      *float64 `json:"cs_range_m,omitempty"`
	// Mobility/Traffic select registered scenario models by name with
	// optional parameters, e.g. {"name": "gauss-markov", "params":
	// {"alpha": 0.85}}. Absent fields keep the study models (random
	// waypoint, CBR).
	Mobility *scenario.MobilitySpec `json:"mobility,omitempty"`
	Traffic  *scenario.TrafficSpec  `json:"traffic,omitempty"`
	// Radio selects a registered radio/propagation model and the
	// reception mode, e.g. {"name": "shadowing", "params":
	// {"sigma_db": 6}, "sinr": true}. Absent keeps the study radio
	// (two-ray ground, pairwise capture).
	Radio *scenario.RadioSpec `json:"radio,omitempty"`
	// Lifecycle selects a registered node-lifecycle (churn) model by name
	// with optional parameters, e.g. {"name": "onoff-fail", "params":
	// {"mean_up_s": 60}}. Absent keeps the study's static membership.
	Lifecycle *scenario.LifecycleSpec `json:"lifecycle,omitempty"`
}

func (p ScenarioPatch) apply(s *scenario.Spec) {
	if p.Nodes != nil {
		s.Nodes = *p.Nodes
	}
	if p.AreaW != nil {
		s.Area.W = *p.AreaW
	}
	if p.AreaH != nil {
		s.Area.H = *p.AreaH
	}
	if p.DurationS != nil {
		s.Duration = sim.Seconds(*p.DurationS)
	}
	if p.PauseS != nil {
		s.Pause = sim.Seconds(*p.PauseS)
	}
	if p.MaxSpeed != nil {
		s.MaxSpeed = *p.MaxSpeed
		if s.MinSpeed > s.MaxSpeed {
			s.MinSpeed = s.MaxSpeed
		}
	}
	if p.MinSpeed != nil {
		s.MinSpeed = *p.MinSpeed
	}
	if p.Sources != nil {
		s.Sources = *p.Sources
	}
	if p.Rate != nil {
		s.Rate = *p.Rate
	}
	if p.PayloadBytes != nil {
		s.PayloadBytes = *p.PayloadBytes
	}
	if p.TxRange != nil {
		s.TxRange = *p.TxRange
	}
	if p.CSRange != nil {
		s.CSRange = *p.CSRange
	}
	if p.Mobility != nil {
		s.Mobility = *p.Mobility
	}
	if p.Traffic != nil {
		s.Traffic = *p.Traffic
	}
	if p.Radio != nil {
		s.Radio = *p.Radio
	}
	if p.Lifecycle != nil {
		s.Lifecycle = *p.Lifecycle
	}
}

// Spec declares one replication campaign: the scenario family, the protocols
// compared, the swept axes (full cross product), and the replication policy.
type Spec struct {
	// Name labels the campaign in snapshots, results and journals.
	Name string `json:"name,omitempty"`
	// Base patches the default study scenario; see ScenarioPatch.
	Base ScenarioPatch `json:"base,omitempty"`
	// Scenario, when non-nil, replaces the patched default entirely. It is
	// the Go-caller override and is not expressible over HTTP.
	Scenario *scenario.Spec `json:"-"`
	// Protocols to compare; empty selects the five study protocols.
	Protocols []string `json:"protocols,omitempty"`
	// Axes are crossed into the cell grid; empty runs a single point.
	Axes []core.Axis `json:"axes,omitempty"`
	// BaseSeed is replication 0's seed: replication r of every cell runs
	// BaseSeed + r (default 1).
	BaseSeed int64 `json:"base_seed,omitempty"`
	// MinReps is the minimum replications per cell before the sequential
	// stopping rule may fire (default 2 when Epsilon is set, else MaxReps).
	MinReps int `json:"min_reps,omitempty"`
	// MaxReps caps replications per cell (default 3).
	MaxReps int `json:"max_reps,omitempty"`
	// Epsilon maps metric names (core.MetricByName; "pdr", "delay", …) to
	// target 95% confidence half-widths in the metric's own unit. A cell
	// stops replicating early once every listed metric's half-width is at
	// or below its target (and at least MinReps replications committed).
	// Empty disables early stopping: every cell runs exactly MaxReps.
	Epsilon map[string]float64 `json:"epsilon,omitempty"`
}

// Cell is one grid point of the expanded campaign: a protocol at one
// combination of axis values.
type Cell struct {
	Index    int       `json:"index"`
	Protocol string    `json:"protocol"`
	Point    []float64 `json:"point,omitempty"`
	// Label is the human-readable identity of the cell, e.g.
	// "DSR|pause_s=0"; the plan hash fingerprints it. It names model axes'
	// models, not their list positions.
	Label string `json:"label"`

	spec scenario.Spec
}

// Plan is a fully-expanded, validated campaign: the resolved scenario, the
// cell grid, the tracked metrics, and the spec hash that guards journals
// against resuming under a different spec.
type Plan struct {
	Spec      Spec
	Base      scenario.Spec
	Protocols []string
	Labels    []string
	Points    [][]float64
	Cells     []Cell
	Metrics   []core.Metric
	Hash      string

	// ticks[i][a] renders Points[i][a], as the cell labels do.
	ticks [][]string
	// unitKeys[cell] is the cell's UnitKey payload up to the seed, encoded
	// by the first UnitKey call that names the cell.
	unitKeys []unitKeyPrefix
}

type unitKeyPrefix struct {
	once sync.Once
	b    []byte
}

// maxCells and maxUnits bound a plan before it is enumerated: a 1 MiB POST
// /campaigns body can name four axes of 1 000 values, 10¹² grid points. The
// largest in-tree campaign is 20 cells × 200 replications.
const maxCells, maxUnits = 1 << 16, 1 << 24

// MaxRuns is the size of the run set before early stopping.
func (p *Plan) MaxRuns() int { return len(p.Cells) * p.Spec.MaxReps }

// seedRule names SeedFor's rule in the plan hash, so a journal written
// under another rule is not resumed as this plan's.
const seedRule = "base_seed+rep"

// SeedFor is the seed of one (cell, replication) run: BaseSeed + rep for
// every cell, so one replication's cells are paired.
func (p *Plan) SeedFor(cell, rep int) int64 {
	return p.Spec.BaseSeed + int64(rep)
}

// ExecuteUnit runs one (cell, replication) unit of the plan. It is a pure
// function of the plan and the indices — no campaign state — which is what
// makes a unit executable by any process that expanded the same spec: the
// distributed worker loop calls it on its own copy of the plan.
//
// Every unit runs with stream sinks attached — per-kind quantile sketches
// and a bucketed time series — and packs their serialized state into
// Results.Streams, so journal entries and distributed commits carry exactly
// the state the campaign needs for cross-replication percentiles.
func (p *Plan) ExecuteUnit(ctx context.Context, cell, rep int) (stats.Results, error) {
	c := p.Cells[cell]
	sk := metrics.NewSketchSink(metrics.DefaultCompression, metrics.SketchedKinds...)
	win := metrics.NewWindow(c.spec.Duration, metrics.DefaultSeriesBuckets)
	res, err := core.Run(ctx, core.RunConfig{
		Spec:     c.spec,
		Protocol: c.Protocol,
		Seed:     p.SeedFor(cell, rep),
		Sinks:    []metrics.Sink{sk, win},
	})
	if err != nil {
		return res, err
	}
	res.Streams = &metrics.RunStreams{Sketches: sk.States(), Series: win.State()}
	return res, nil
}

// SeriesGeometry is the layout of the time series ExecuteUnit records for a
// cell's runs. A result whose series has another cannot join the cell's.
func (p *Plan) SeriesGeometry(cell int) metrics.Geometry {
	return metrics.WindowGeometry(p.Cells[cell].spec.Duration, metrics.DefaultSeriesBuckets)
}

// UnitKey is the content address of one run unit: a digest of everything
// that determines its result — the cell's fully-resolved scenario, the
// protocol, and the seed. Two campaigns whose grids overlap (same base
// scenario, same base seed) produce identical keys for the shared units,
// so a content-addressed result cache serves across campaign boundaries,
// not just on exact resubmission.
//
// The digest is of json.Marshal's encoding of
//
//	struct{Scenario scenario.Spec; Protocol string; Seed int64; Format int}
//
// (encoding/json sorts map keys, so it is canonical). Format versions the
// result payload a unit produces: v2 added Results.Streams, and bumping it
// invalidates cache entries recorded without stream digests rather than
// serving them silently. The encoding up to the seed is the cell's, made
// once; each key appends the seed and the format to it.
func (p *Plan) UnitKey(cell, rep int) string {
	k := &p.unitKeys[cell]
	k.once.Do(func() {
		b, err := json.Marshal(struct {
			Scenario scenario.Spec
			Protocol string
		}{p.Cells[cell].spec, p.Cells[cell].Protocol})
		if err != nil {
			// A plan that expanded cannot fail to marshal; guard anyway.
			panic(fmt.Sprintf("campaign: hashing unit: %v", err))
		}
		k.b = append(b[:len(b)-1], `,"Seed":`...) // b ends in '}'
	})
	b := make([]byte, 0, len(k.b)+32)
	b = append(b, k.b...)
	b = strconv.AppendInt(b, p.SeedFor(cell, rep), 10)
	b = append(b, `,"Format":2}`...)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Expand validates the spec and expands it into a Plan. The returned plan's
// Spec has all defaults filled in.
func (s Spec) Expand() (*Plan, error) {
	// Replication policy defaults.
	if s.BaseSeed == 0 {
		s.BaseSeed = 1
	}
	if s.MaxReps == 0 {
		s.MaxReps = 3
	}
	if s.MaxReps < 1 {
		return nil, fmt.Errorf("campaign: max_reps %d < 1", s.MaxReps)
	}
	if s.MinReps == 0 {
		if len(s.Epsilon) > 0 {
			s.MinReps = 2
			if s.MinReps > s.MaxReps {
				s.MinReps = s.MaxReps
			}
		} else {
			s.MinReps = s.MaxReps
		}
	}
	if s.MinReps < 1 || s.MinReps > s.MaxReps {
		return nil, fmt.Errorf("campaign: min_reps %d outside [1, max_reps=%d]", s.MinReps, s.MaxReps)
	}
	if s.BaseSeed > math.MaxInt64-int64(s.MaxReps-1) {
		return nil, fmt.Errorf("campaign: base_seed %d + max_reps %d overflows the last replication's seed", s.BaseSeed, s.MaxReps)
	}
	eps := make(map[string]float64, len(s.Epsilon))
	for name, e := range s.Epsilon {
		m, err := core.MetricByName(name)
		if err != nil {
			return nil, fmt.Errorf("campaign: epsilon: %w", err)
		}
		if e <= 0 {
			return nil, fmt.Errorf("campaign: epsilon[%s] = %v must be > 0", name, e)
		}
		eps[m.Name] = e
	}
	s.Epsilon = eps
	if len(eps) == 0 {
		s.Epsilon = nil
	}

	// Protocols: default to the study set, validate against the registry.
	if len(s.Protocols) == 0 {
		s.Protocols = core.StudyProtocols()
	}
	registered := make(map[string]bool)
	for _, name := range core.RegisteredProtocols() {
		registered[name] = true
	}
	protocols := make([]string, len(s.Protocols))
	seenProto := make(map[string]bool, len(s.Protocols))
	for i, name := range s.Protocols {
		canon := strings.ToUpper(strings.TrimSpace(name))
		if !registered[canon] {
			return nil, fmt.Errorf("campaign: unknown protocol %q (registered: %s)",
				name, strings.Join(core.RegisteredProtocols(), ", "))
		}
		if seenProto[canon] {
			// Duplicates would produce cells with identical labels and
			// identical runs — pure wasted work.
			return nil, fmt.Errorf("campaign: protocol %q listed twice", canon)
		}
		seenProto[canon] = true
		protocols[i] = canon
	}
	s.Protocols = protocols

	// Scenario: the Go-side override wins, else patch the study default.
	base := scenario.Default()
	s.Base.apply(&base)
	if s.Scenario != nil {
		base = *s.Scenario
	}
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}

	// Axes: the plan holds at most maxCells cells (protocols × points) and
	// maxUnits runs (cells × max_reps). CrossAxes checks the point count
	// before it enumerates a point. Each grid point's patched scenario is
	// dry-run validated here — a sweep value that produces an impossible
	// run (a churn window past the horizon, a source count above a
	// swept-down node count) fails at submission time, not mid-campaign.
	// Points share their spec across protocols, so each is checked once.
	maxPoints := min(maxCells, maxUnits/s.MaxReps) / len(protocols)
	if maxPoints < 1 {
		return nil, fmt.Errorf("campaign: %d protocols × max_reps %d is more than %d runs", len(protocols), s.MaxReps, maxUnits)
	}
	grid, err := core.CrossAxes(base, s.Axes, maxPoints)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	pointLabels := make([]string, len(grid.Points))
	for pi, ticks := range grid.Ticks {
		for a, tick := range ticks {
			pointLabels[pi] += "|" + grid.Labels[a] + "=" + tick
		}
		if err := grid.Specs[pi].Validate(); err != nil {
			return nil, fmt.Errorf("campaign: cell %q: %w", strings.TrimPrefix(pointLabels[pi], "|"), err)
		}
	}

	cells := make([]Cell, 0, len(protocols)*len(grid.Points))
	for _, proto := range protocols {
		for pi, pt := range grid.Points {
			cells = append(cells, Cell{
				Index:    len(cells),
				Protocol: proto,
				Point:    pt,
				Label:    proto + pointLabels[pi],
				spec:     grid.Specs[pi],
			})
		}
	}

	p := &Plan{
		Spec:      s,
		Base:      base,
		Protocols: protocols,
		Labels:    grid.Labels,
		Points:    grid.Points,
		Cells:     cells,
		Metrics:   core.Metrics(),
		ticks:     grid.Ticks,
		unitKeys:  make([]unitKeyPrefix, len(cells)),
	}
	hash, err := p.hash()
	if err != nil {
		return nil, err
	}
	p.Hash = hash
	return p, nil
}

// hash fingerprints everything that determines the run set and its
// aggregation: the resolved scenario, protocols, grid, seeds and their
// rule, and stopping policy. Journals record it so a checkpoint cannot silently resume under a
// different spec. (encoding/json sorts map keys, so the digest is canonical.)
func (p *Plan) hash() (string, error) {
	// Cell labels fingerprint the formatted axis values too: categorical
	// model axes encode indices in Points, so two campaigns sweeping
	// different model lists would otherwise hash identically.
	cellLabels := make([]string, len(p.Cells))
	for i := range p.Cells {
		cellLabels[i] = p.Cells[i].Label
	}
	fingerprint := struct {
		Base       scenario.Spec
		Protocols  []string
		Labels     []string
		Points     [][]float64
		CellLabels []string
		BaseSeed   int64
		SeedRule   string
		MinReps    int
		MaxReps    int
		Epsilon    map[string]float64
	}{p.Base, p.Protocols, p.Labels, p.Points, cellLabels, p.Spec.BaseSeed, seedRule, p.Spec.MinReps, p.Spec.MaxReps, p.Spec.Epsilon}
	b, err := json.Marshal(fingerprint)
	if err != nil {
		return "", fmt.Errorf("campaign: hashing spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
