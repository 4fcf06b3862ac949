// Package adhocsim is a discrete-event simulator for mobile ad hoc network
// routing protocols, reproducing the comparison study "A Performance
// Comparison of Routing Protocols for Ad Hoc Networks" (IPPS/IPDPS 2001).
//
// It provides, built entirely on the Go standard library:
//
//   - an ns-2-class wireless substrate: two-ray ground propagation with
//     250 m/550 m reception and carrier-sense ranges, an IEEE 802.11 DCF
//     MAC with RTS/CTS and link-breakage detection, random-waypoint
//     mobility and CBR/UDP traffic;
//   - full implementations of DSR, AODV, PAODV (preemptive AODV), CBRP and
//     DSDV, plus a flooding yardstick;
//   - the study's metric suite (packet delivery ratio, end-to-end delay,
//     per-hop routing overhead, normalized routing and MAC load, path
//     optimality) and a parallel experiment harness that regenerates every
//     figure and table of the evaluation.
//
// # Quick start
//
//	spec := adhocsim.DefaultSpec()
//	spec.Nodes = 30
//	res, err := adhocsim.Run(adhocsim.RunConfig{
//		Spec:     spec,
//		Protocol: adhocsim.DSR,
//		Seed:     1,
//	})
//	fmt.Printf("PDR %.1f%%  delay %.1f ms\n", res.PDR*100, res.AvgDelay*1e3)
//
// # Experiment API v2
//
// The harness is open on three axes:
//
// Protocols resolve through a registry. The built-ins self-register; call
// RegisterProtocol to plug in a new routing protocol or ablation variant —
// it then works everywhere a built-in does (Run, CompareContext, sweeps,
// the adhocsim command):
//
//	adhocsim.RegisterProtocol("MYPROTO", func(bc adhocsim.BuildContext) (adhocsim.ProtocolFactory, error) {
//		return func(id adhocsim.NodeID) adhocsim.Protocol { return newMyProto(id) }, nil
//	})
//
// Scenario dimensions are swept through first-class Axis values. The
// catalogue (PauseAxis, NodesAxis, RateAxis, SpeedAxis, SourcesAxis,
// TxRangeAxis, CSRangeAxis, AreaWidthAxis, PayloadAxis) covers the study
// axes plus radio and traffic dimensions the study never varied, and a
// custom Apply function sweeps anything else:
//
//	sweep, err := adhocsim.Sweep(ctx, opts, adhocsim.TxRangeAxis(nil))
//	grid, err := adhocsim.Grid(ctx, opts, adhocsim.TxRangeAxis(nil), adhocsim.RateAxis(nil))
//
// Scenario families resolve through one model-kind surface. A Spec names a
// registered model of each of four kinds — Spec.Mobility (random waypoint,
// Gauss-Markov, Manhattan grid, RPGM, random walk, static grid),
// Spec.Traffic (CBR, Poisson, exponential on/off VBR), Spec.Radio (two-ray
// ground, free space, tunable path-loss exponent, log-normal shadowing,
// Ricean/Rayleigh fading) and Spec.Lifecycle (staggered joins, flash
// crowds, on/off failures, region-wide partitions, compiled into a
// deterministic per-run schedule of join/leave/fail/recover events) — as a
// ModelSpec: a name plus a JSON-friendly parameter map. ModelKinds is the
// table of the four, each with its model listing, and ModelAxis(kind, names)
// sweeps the family itself as a grid dimension. Spec.Radio.SINR switches
// frame reception from the ns-2 pairwise capture test to
// cumulative-interference SINR. The AUTOCONF protocol (randomized address
// claim → probe → defend) pairs with the lifecycle kind to study network
// initialization, reporting time_to_converge and addr_collision_rate:
//
//	spec.Mobility = adhocsim.ModelSpec{Name: "gauss-markov", Params: map[string]float64{"alpha": 0.85}}
//	spec.Radio = adhocsim.RadioSpec{Name: "shadowing", Params: map[string]float64{"sigma_db": 6}, SINR: true}
//	spec.Lifecycle = adhocsim.ModelSpec{Name: "onoff-fail", Params: map[string]float64{"mean_up_s": 60}}
//	mob, err := adhocsim.ModelAxis("mobility", nil)
//	grid, err := adhocsim.Grid(ctx, opts, mob, adhocsim.RateAxis(nil))
//	res, err := adhocsim.Run(adhocsim.RunConfig{Spec: spec, Protocol: adhocsim.Autoconf, Seed: 1})
//
// Long experiments are cancellable and observable: every runner threads a
// context.Context down into the event loop (cancellation aborts promptly
// with ctx.Err()), and Options.OnProgress receives a callback after every
// completed run. Results, sweeps, grids and figures all export to JSON
// (ResultsJSON, SweepJSON, GridJSON, FigureJSON) alongside the text and
// CSV renders.
//
// # Campaigns
//
// The campaign engine (CampaignSpec, RunCampaign, NewDistServer) runs
// multi-seed replication campaigns on top of the experiment API: cells are
// aggregated online with Welford moments and Student-t 95% confidence
// intervals, replication stops early per cell once the estimate is tight
// enough, completed runs are journaled for bit-identical resume, and
// cmd/adhocd serves the whole thing over HTTP.
package adhocsim

import (
	"context"
	"io"

	"adhocsim/internal/core"
	"adhocsim/internal/geo"
	"adhocsim/internal/network"
	"adhocsim/internal/phy"
	"adhocsim/internal/pkt"
	"adhocsim/internal/scenario"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// Protocol names understood by Run and Sweep.
const (
	DSR   = core.DSR
	AODV  = core.AODV
	PAODV = core.PAODV
	CBRP  = core.CBRP
	DSDV  = core.DSDV
	Flood = core.Flood
	// Autoconf is the randomized address-autoconfiguration protocol
	// (claim → probe → defend); pair it with Spec.Lifecycle to study
	// network initialization under churn.
	Autoconf = core.Autoconf
)

// StudyProtocols returns the five protocols of the IPPS'01 comparison.
func StudyProtocols() []string { return core.StudyProtocols() }

// AllProtocols additionally includes the flooding baseline.
func AllProtocols() []string { return core.AllProtocols() }

// RegisteredProtocols returns every protocol name the registry resolves,
// built-ins and external registrations alike, sorted.
func RegisteredProtocols() []string { return core.RegisteredProtocols() }

// RegisterProtocol plugs a new routing protocol (or ablation variant) into
// the harness under the given case-insensitive name. Once registered it is
// accepted everywhere a built-in is: Run, CompareContext, Sweep, Grid and
// the adhocsim command. Registering a duplicate or empty name is an error.
func RegisterProtocol(name string, builder ProtocolBuilder) error {
	return core.RegisterProtocol(name, builder)
}

// Spec describes a scenario; see DefaultSpec for the study configuration.
type Spec = scenario.Spec

// ModelSpec selects a registered model of one kind by name with optional
// parameters inside a Spec ({"name": "gauss-markov", "params": {...}}); the
// zero value is the kind's study default (random waypoint, CBR, static
// membership), bit-identical to a spec without the field. MobilitySpec and
// LifecycleSpec are its per-kind names.
type (
	ModelSpec     = scenario.ModelSpec
	MobilitySpec  = scenario.MobilitySpec
	LifecycleSpec = scenario.LifecycleSpec
)

// RadioSpec is the radio kind's ModelSpec ({"name": "shadowing", "params":
// {"sigma_db": 6}, "sinr": true}); the zero value is the study's two-ray
// ground with pairwise capture. SINR switches reception to the
// cumulative-interference model.
type RadioSpec = scenario.RadioSpec

// ModelKind describes one scenario-model kind: its name (CLI flag, campaign
// axis, JSON field), axis label, model listing (names, default,
// parameter vocabulary) and where its model name and parameters sit in a
// Spec.
type ModelKind = scenario.ModelKind

// ModelKinds returns the kinds in presentation order: mobility, traffic,
// radio, lifecycle.
func ModelKinds() []ModelKind { return scenario.ModelKinds }

// Rect is the simulation area type used in Spec.
type Rect = geo.Rect

// Results is the metric set produced by a run.
type Results = stats.Results

// RunConfig identifies one simulation run.
type RunConfig = core.RunConfig

// Options configures comparisons and sweeps (protocol set, seeds, workers,
// progress callback).
type Options = core.Options

// Progress reports one completed run inside a sweep; see Options.OnProgress.
type Progress = core.Progress

// ProgressFunc observes sweep progress; see Options.OnProgress.
type ProgressFunc = core.ProgressFunc

// ProgressPrinter returns a ProgressFunc rendering a single updating
// progress line to w (typically os.Stderr).
func ProgressPrinter(w io.Writer) ProgressFunc { return core.ProgressPrinter(w) }

// Axis is one sweepable scenario dimension; see the axis catalogue
// (PauseAxis and friends) and ModelAxis.
type Axis = core.Axis

// SweepResult holds per-protocol results along a swept axis.
type SweepResult = core.SweepResult

// GridResult holds per-protocol results over a multi-axis cross product.
type GridResult = core.GridResult

// Figure is a sweep viewed through one metric, ready to render.
type Figure = core.Figure

// PhyConfig tunes the channel's transmit fast path: the spatial index's
// reindex cadence and the SINR reception switch. Its BruteForce field is
// an oracle pin for tests; leave it zero. Static and Scheduler are read
// nowhere. See RunConfig.Phy.
type PhyConfig = phy.Config

// Protocol-extension surface: the types an external routing protocol
// implements against, re-exported so registrations need no internal
// imports.
type (
	// Protocol is a routing agent bound to one node.
	Protocol = network.Protocol
	// Env is the node-side API a routing protocol programs against.
	Env = network.Env
	// ProtocolFactory builds the routing agent for each node.
	ProtocolFactory = network.ProtocolFactory
	// BuildContext carries per-run inputs (radio parameters, tweaks) to a
	// protocol builder.
	BuildContext = core.BuildContext
	// ProtocolBuilder constructs a factory for one run; see RegisterProtocol.
	ProtocolBuilder = core.ProtocolBuilder
	// NodeID identifies a node.
	NodeID = pkt.NodeID
	// Packet is the network-layer packet model. A packet received in a
	// broadcast is shared with the other receivers and read-only.
	Packet = pkt.Packet
	// DropReason labels packet losses in the drop census.
	DropReason = stats.DropReason
)

// Broadcast is the link/network broadcast address.
const Broadcast = pkt.Broadcast

// Duration re-exports the virtual-clock duration type used in Spec.
type Duration = sim.Duration

// Second is one simulated second.
const Second = sim.Second

// Seconds converts float seconds to a Duration.
func Seconds(s float64) Duration { return sim.Seconds(s) }

// DefaultSpec returns the reconstructed study configuration (40 nodes,
// 1500×300 m, 20 m/s random waypoint, 10 CBR sources at 4 pkt/s, 250 m
// radios, 900 s).
func DefaultSpec() Spec { return scenario.Default() }

// DefaultOptions returns study defaults: all five protocols, three seeds.
func DefaultOptions() Options { return core.DefaultOptions() }

// Run executes one scenario×protocol×seed simulation.
func Run(rc RunConfig) (Results, error) { return core.Run(context.Background(), rc) }

// RunContext is Run with cancellation: the context is polled inside the
// event loop, so cancelling it aborts a long simulation promptly.
func RunContext(ctx context.Context, rc RunConfig) (Results, error) { return core.Run(ctx, rc) }

// RunReplicatedContext executes rc once per seed (in parallel, workers ≤ 0
// meaning GOMAXPROCS) and merges the results in seed order; nil seeds run
// seed 1.
func RunReplicatedContext(ctx context.Context, rc RunConfig, seeds []int64, workers int) (Results, error) {
	return core.RunReplicatedContext(ctx, rc, seeds, workers)
}

// CompareContext runs every protocol in opts on the base scenario at pause
// 0 and returns per-protocol results.
func CompareContext(ctx context.Context, opts Options) (map[string]Results, error) {
	sweep, err := core.Sweep(ctx, opts, core.PauseAxis([]float64{0}))
	if err != nil {
		return nil, err
	}
	return core.SummaryTable(sweep), nil
}

// Sweep evaluates every protocol at every value of one axis, in parallel,
// merging replication seeds per point. Any Spec dimension an Axis can
// Apply is sweepable.
func Sweep(ctx context.Context, opts Options, axis Axis) (*SweepResult, error) {
	return core.Sweep(ctx, opts, axis)
}

// Grid evaluates every protocol at every combination of several axes (full
// cross product) on one shared worker pool.
func Grid(ctx context.Context, opts Options, axes ...Axis) (*GridResult, error) {
	return core.Grid(ctx, opts, axes...)
}

// The axis catalogue. Each constructor accepts explicit values; nil selects
// canonical defaults.
func PauseAxis(vs []float64) Axis     { return core.PauseAxis(vs) }
func NodesAxis(vs []float64) Axis     { return core.NodesAxis(vs) }
func ScaleAxis(vs []float64) Axis     { return core.ScaleAxis(vs) }
func RateAxis(vs []float64) Axis      { return core.RateAxis(vs) }
func SpeedAxis(vs []float64) Axis     { return core.SpeedAxis(vs) }
func SourcesAxis(vs []float64) Axis   { return core.SourcesAxis(vs) }
func TxRangeAxis(vs []float64) Axis   { return core.TxRangeAxis(vs) }
func CSRangeAxis(vs []float64) Axis   { return core.CSRangeAxis(vs) }
func AreaWidthAxis(vs []float64) Axis { return core.AreaWidthAxis(vs) }
func PayloadAxis(vs []float64) Axis   { return core.PayloadAxis(vs) }

// ModelAxis sweeps the scenario family itself: its values index a list of
// one kind's model names (nil selects every model of the kind), so a
// Grid can cross protocols × mobility × traffic models.
func ModelAxis(kind string, names []string) (Axis, error) { return core.ModelAxis(kind, names) }

// RenderFigure renders a figure as an aligned text table.
func RenderFigure(f Figure) string { return core.RenderFigure(f) }

// RenderRegistries lists every registered protocol and, per model kind,
// every model with its parameter names (`adhocsim models`).
func RenderRegistries() string { return core.RenderRegistries() }

// RenderFigureCSV renders a figure as CSV.
func RenderFigureCSV(f Figure) string { return core.RenderFigureCSV(f) }

// JSON exports, alongside the text/CSV renders.
func ResultsJSON(r Results) ([]byte, error)     { return core.ResultsJSON(r) }
func SweepJSON(sr *SweepResult) ([]byte, error) { return core.SweepJSON(sr) }
func GridJSON(g *GridResult) ([]byte, error)    { return core.GridJSON(g) }
func FigureJSON(f Figure) ([]byte, error)       { return core.FigureJSON(f) }

// Metrics available for figure rendering.
var (
	MetricPDR        = core.MetricPDR
	MetricDelay      = core.MetricDelay
	MetricOverhead   = core.MetricOverhead
	MetricNRL        = core.MetricNRL
	MetricThroughput = core.MetricThroughput
	MetricMacLoad    = core.MetricMacLoad
	MetricAvgHops    = core.MetricAvgHops
	// Autoconfiguration metrics, populated by the AUTOCONF census.
	MetricTimeToConverge    = core.MetricTimeToConverge
	MetricAddrCollisionRate = core.MetricAddrCollisionRate
)
