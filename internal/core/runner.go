// Package core is the comparison-study harness — the paper's contribution.
// It executes scenario×protocol×seed simulation runs (in parallel across
// runs, each run single-threaded and deterministic), aggregates replication
// seeds, and regenerates every figure and table of the evaluation.
//
// The experiment API is open on three axes: protocols resolve through a
// registry (RegisterProtocol), scenario dimensions are swept through
// first-class Axis values (Sweep, Grid), and long experiments are
// cancellable and observable (context.Context plus Options.OnProgress).
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"adhocsim/internal/mac"
	"adhocsim/internal/metrics"
	"adhocsim/internal/network"
	"adhocsim/internal/phy"
	"adhocsim/internal/routing/aodv"
	"adhocsim/internal/routing/cbrp"
	"adhocsim/internal/routing/dsdv"
	"adhocsim/internal/routing/dsr"
	"adhocsim/internal/scenario"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
	"adhocsim/internal/topo"
	"adhocsim/internal/trace"
	"adhocsim/internal/traffic"
)

// Protocol names accepted by the harness.
const (
	DSR   = "DSR"
	AODV  = "AODV"
	PAODV = "PAODV"
	CBRP  = "CBRP"
	DSDV  = "DSDV"
	Flood = "FLOOD"
	// Autoconf is the randomized address-autoconfiguration protocol
	// (claim → probe → defend); pair it with a lifecycle model to study
	// network initialization under churn.
	Autoconf = "AUTOCONF"
)

// StudyProtocols are the protocols of the IPPS'01 comparison, in the order
// figures present them.
func StudyProtocols() []string { return []string{DSR, AODV, PAODV, CBRP, DSDV} }

// AllProtocols additionally includes the flooding yardstick.
func AllProtocols() []string { return append(StudyProtocols(), Flood) }

// ProtocolTweaks carries ablation overrides threaded into factories.
type ProtocolTweaks struct {
	AODV aodv.Config
	DSR  dsr.Config
	CBRP cbrp.Config
	DSDV dsdv.Config
}

// RunConfig describes one simulation run.
type RunConfig struct {
	Spec     scenario.Spec
	Protocol string
	Seed     int64
	Mac      mac.Config
	// Phy tunes the channel's transmit fast path (spatial index vs the
	// legacy brute-force loop); the zero value selects the index with
	// world-derived reindexing defaults.
	Phy    phy.Config
	Tweaks ProtocolTweaks
	// Tracer, when non-nil, receives every network-layer packet event
	// (use only with a single seed; trace interleaving across parallel
	// replications is not meaningful).
	Tracer trace.Tracer
	// Sinks, when non-empty, receive the run's metric sample stream
	// (deliveries, delays, transmissions, drops) as typed metrics.Samples.
	// Like Tracer, sinks are single-goroutine: use only with a single seed.
	Sinks []metrics.Sink
}

// Run executes one scenario×protocol×seed simulation and returns its
// metrics. The context is polled inside the event loop: cancelling it
// aborts the simulation promptly with the context's error. A nil context
// is treated as context.Background().
func Run(ctx context.Context, rc RunConfig) (stats.Results, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return stats.Results{}, err
	}
	inst, err := rc.Spec.Generate(rc.Seed)
	if err != nil {
		return stats.Results{}, err
	}
	factory, err := FactoryFor(rc.Protocol, inst.Radio, rc.Tweaks)
	if err != nil {
		return stats.Results{}, err
	}
	oracle := topo.NewOracle(inst.Tracks, inst.Radio.RxRange())
	phyCfg := rc.Phy
	if rc.Spec.Radio.SINR {
		// The serializable reception-mode switch lives on the scenario
		// spec (campaigns and the HTTP service patch it); the phy-level
		// toggle stays available for direct callers.
		phyCfg.SINR = true
	}
	world, err := network.NewWorld(network.Config{
		Tracks:    inst.Tracks,
		Radio:     inst.Radio,
		Phy:       phyCfg,
		Mac:       rc.Mac,
		Protocol:  factory,
		Seed:      rc.Seed ^ 0x5eed,
		Oracle:    oracle,
		Tracer:    rc.Tracer,
		Sinks:     rc.Sinks,
		Lifecycle: inst.Lifecycle,
	})
	if err != nil {
		return stats.Results{}, err
	}
	if _, err := traffic.Install(world, inst.Connections, sim.Time(0).Add(rc.Spec.Duration)); err != nil {
		return stats.Results{}, err
	}
	// ~2M events per simulated second per 40 nodes is far beyond any sane
	// protocol; treat exceeding it as a bug.
	world.Eng.Limit = max(uint64(rc.Spec.Duration.Seconds()*2e6)*uint64(rc.Spec.Nodes)/40, 10_000_000)
	world.Start()
	if err := world.Run(ctx, sim.Time(0).Add(rc.Spec.Duration)); err != nil {
		return stats.Results{}, fmt.Errorf("%s seed %d: %w", rc.Protocol, rc.Seed, err)
	}
	return world.Collector.Finalize(), nil
}

// RunReplicatedContext executes the run for each seed on the shared worker pool
// and merges the results in seed order. A single seed is a plain Run.
func RunReplicatedContext(ctx context.Context, rc RunConfig, seeds []int64, workers int) (stats.Results, error) {
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	if len(seeds) == 1 {
		rc.Seed = seeds[0]
		return Run(ctx, rc)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	jobs := make([]runJob, len(seeds))
	for i, seed := range seeds {
		jobs[i].rc = rc
		jobs[i].rc.Seed = seed
	}
	results, err := runJobs(ctx, workers, nil, jobs)
	if err != nil {
		return stats.Results{}, err
	}
	return stats.MergeResults(results), nil
}

// Progress reports one completed run inside a sweep or grid.
type Progress struct {
	// Done runs out of Total have finished (including this one).
	Done, Total int
	// Protocol, Seed and the axis point of the run that just completed.
	Protocol string
	Seed     int64
	// Axis is the swept axis label ("pause_s"); for Grid it names every
	// axis joined by "×". X holds the primary axis value, and Value renders
	// it as that axis labels it (a model axis's model name).
	Axis  string
	X     float64
	Value string
}

// ProgressFunc observes sweep progress. Calls are serialized (never
// concurrent) but originate from worker goroutines, so the callback must
// not block for long.
type ProgressFunc func(Progress)

// ProgressPrinter returns a ProgressFunc rendering a single updating line
// to w ("[done/total] PROTO axis=x seed n" behind a carriage return),
// terminated when the last run completes. It is the shared progress
// renderer of the cmd tools and examples.
func ProgressPrinter(w io.Writer) ProgressFunc {
	return func(p Progress) {
		fmt.Fprintf(w, "\r[%d/%d] %s %s=%s seed %d        ",
			p.Done, p.Total, p.Protocol, p.Axis, p.Value, p.Seed)
		if p.Done == p.Total {
			fmt.Fprintln(w)
		}
	}
}

// Options configure a sweep: the scenario template, the protocols compared,
// replication seeds and parallelism.
type Options struct {
	Base      scenario.Spec
	Protocols []string
	Seeds     []int64
	Workers   int
	// OnProgress, when non-nil, is invoked after every completed run of a
	// sweep or grid.
	OnProgress ProgressFunc
}

// DefaultOptions returns study defaults (all five protocols, 3 seeds).
func DefaultOptions() Options {
	return Options{
		Base:      scenario.Default(),
		Protocols: StudyProtocols(),
		Seeds:     []int64{1, 2, 3},
	}
}

// normalized fills the zero-value defaults of Options.
func (o Options) normalized() Options {
	if len(o.Protocols) == 0 {
		o.Protocols = StudyProtocols()
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1}
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// runJob is one unit of work for the shared worker pool: a fully-resolved
// run plus the progress annotations of the axis point it came from.
type runJob struct {
	rc    RunConfig
	axis  string
	x     float64
	value string
}

// runJobs executes every job on a pool of workers goroutines and returns
// results in job order (a flat indexed slice — deterministic, no per-job
// map allocation or struct-key hashing on the dispatch path). Cancelling
// the context stops dispatch and interrupts in-flight simulations; the
// context's error is returned unless an earlier job failed on its own.
func runJobs(ctx context.Context, workers int, onProgress ProgressFunc, jobs []runJob) ([]stats.Results, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]stats.Results, len(jobs))
	errs := make([]error, len(jobs))

	var progressMu sync.Mutex
	done := 0
	report := func(i int) {
		if onProgress == nil {
			return
		}
		j := jobs[i]
		progressMu.Lock()
		done++
		p := Progress{
			Done:     done,
			Total:    len(jobs),
			Protocol: j.rc.Protocol,
			Seed:     j.rc.Seed,
			Axis:     j.axis,
			X:        j.x,
			Value:    j.value,
		}
		onProgress(p)
		progressMu.Unlock()
	}

	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				results[i], errs[i] = Run(ctx, jobs[i].rc)
				report(i)
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case ch <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(ch)
	wg.Wait()
	if err := firstError(ctx, errs); err != nil {
		return nil, err
	}
	return results, nil
}

// firstError picks the error to surface from a batch: the first failure
// that is not itself a symptom of cancellation, else the context's error.
// This guarantees a cancelled sweep reports context.Canceled (or
// DeadlineExceeded) rather than an arbitrary wrapped per-run error.
func firstError(ctx context.Context, errs []error) error {
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	return ctx.Err()
}

// SweepResult holds merged results for each protocol at each sweep point.
type SweepResult struct {
	XLabel string
	Xs     []float64
	// XTicks are the formatted axis values parallel to Xs — for the
	// categorical model axes these are the model names ("gauss-markov"),
	// not the opaque indices in Xs. Renders and the JSON exports use them.
	XTicks    []string
	Protocols []string
	// Cells[protocol][i] is the merged result at Xs[i].
	Cells map[string][]stats.Results
}

// Tick returns the display form of the xi-th sweep point: the formatted
// tick when present (a model name on categorical axes), else the plain
// number. Hand-assembled SweepResults without XTicks keep working.
func (sr *SweepResult) Tick(xi int) string {
	if xi < len(sr.XTicks) {
		return sr.XTicks[xi]
	}
	return strconv.FormatFloat(sr.Xs[xi], 'g', -1, 64)
}

// Sweep evaluates every protocol in opts at every value of the axis,
// parallelising across (protocol, value, seed) on one shared worker pool
// and merging replication seeds per point. It subsumes the four hard-coded
// study sweeps: any Spec dimension an Axis can Apply is sweepable. Sweep is
// the one-axis case of Grid.
func Sweep(ctx context.Context, opts Options, axis Axis) (*SweepResult, error) {
	g, err := Grid(ctx, opts, axis)
	if err != nil {
		return nil, err
	}
	xs := make([]float64, len(g.Points))
	ticks := make([]string, len(g.Points))
	for i, pt := range g.Points {
		xs[i] = pt[0]
		ticks[i] = g.PointLabels[i][0]
	}
	return &SweepResult{
		XLabel:    g.Labels[0],
		Xs:        xs,
		XTicks:    ticks,
		Protocols: g.Protocols,
		Cells:     g.Cells,
	}, nil
}

// Metric extracts a scalar from run results for rendering.
type Metric struct {
	Name  string
	Unit  string
	Value func(stats.Results) float64
}

// Metrics available to figures and tables.
var (
	MetricPDR        = Metric{"pdr", "%", func(r stats.Results) float64 { return r.PDR * 100 }}
	MetricDelay      = Metric{"delay", "ms", func(r stats.Results) float64 { return r.AvgDelay * 1000 }}
	MetricOverhead   = Metric{"routing_overhead", "pkts", func(r stats.Results) float64 { return float64(r.RoutingTxPackets) }}
	MetricNRL        = Metric{"nrl", "tx/delivered", func(r stats.Results) float64 { return r.NormalizedRoutingLoad }}
	MetricThroughput = Metric{"throughput", "kbit/s", func(r stats.Results) float64 { return r.ThroughputKbps }}
	MetricMacLoad    = Metric{"mac_load", "frames/delivered", func(r stats.Results) float64 { return r.NormalizedMacLoad }}
	MetricAvgHops    = Metric{"avg_hops", "hops", func(r stats.Results) float64 { return r.AvgHops }}
	// MetricTimeToConverge / MetricAddrCollisionRate are populated by the
	// address-autoconfiguration census (protocol AUTOCONF); they read zero
	// for protocols that do not autoconfigure.
	MetricTimeToConverge    = Metric{"time_to_converge", "s", func(r stats.Results) float64 { return r.TimeToConverge }}
	MetricAddrCollisionRate = Metric{"addr_collision_rate", "ratio", func(r stats.Results) float64 { return r.AddrCollisionRate }}
)

// Metrics returns the full metric catalogue in presentation order.
func Metrics() []Metric {
	return []Metric{MetricPDR, MetricDelay, MetricOverhead, MetricNRL,
		MetricThroughput, MetricMacLoad, MetricAvgHops,
		MetricTimeToConverge, MetricAddrCollisionRate}
}

// MetricByName resolves a catalogue metric by its Name ("pdr", "delay", …),
// case-insensitively.
func MetricByName(name string) (Metric, error) {
	for _, m := range Metrics() {
		if strings.EqualFold(strings.TrimSpace(name), m.Name) {
			return m, nil
		}
	}
	known := make([]string, 0, len(Metrics()))
	for _, m := range Metrics() {
		known = append(known, m.Name)
	}
	return Metric{}, fmt.Errorf("core: unknown metric %q (known: %s)", name, strings.Join(known, ", "))
}

// sortedKeys is a small helper for deterministic map iteration in renders.
func sortedKeys[M ~map[string]uint64](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
