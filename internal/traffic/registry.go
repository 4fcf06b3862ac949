package traffic

import (
	"fmt"

	"adhocsim/internal/modelreg"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
)

// Env carries the scenario-level traffic parameters into a generator: node
// and connection counts, the per-connection rate and payload, the staggered
// start window, the horizon, and the run seed (stochastic processes derive
// per-connection emission seeds from it via sim.DeriveSeed, so a generated
// connection list is self-contained and deterministic across processes).
type Env struct {
	Nodes        int
	Sources      int
	Rate         float64 // packets/s per connection
	PayloadBytes int
	StartMin     sim.Duration
	StartMax     sim.Duration
	Duration     sim.Duration
	// Seed is the scenario's run seed, the root of per-connection process
	// seed derivation.
	Seed int64
}

// Generator expands a traffic environment into concrete connections. The
// rng argument is the scenario's "traffic" substream; generators must be
// deterministic functions of (env, rng) so scenario compilation stays
// reproducible.
type Generator interface {
	Connections(env Env, rng *sim.RNG) ([]Connection, error)
}

// Builder constructs a configured Generator from a model-specific parameter
// map. Builders must reject unknown parameter names (use modelreg.Params.Err).
type Builder func(params modelreg.Params) (Generator, error)

// Models is the traffic-model registry; an empty name selects the study's
// CBR. Builders take no environment (a generator sees it at Connections
// time) and need no post-build validation.
var Models = modelreg.NewModels("traffic", ProcessCBR,
	func(b Builder, _ struct{}, p modelreg.Params) (Generator, error) { return b(p) }, nil)

// New resolves a traffic model name through Models and builds it.
func New(name string, params map[string]float64) (Generator, error) {
	return Models.Build(name, struct{}{}, params)
}

// CBR is the study's cbrgen workload: Sources distinct (src,dst) pairs,
// each a constant-bit-rate flow from a staggered start time.
type CBR struct{}

// Connections draws the cbrgen pair list. This is the original scenario
// generator verbatim — its rng consumption is part of the bit-identity
// contract with pre-registry study runs.
func (CBR) Connections(env Env, rng *sim.RNG) ([]Connection, error) {
	return drawPairs(env, rng)
}

// Poisson is CBR's pair layout with memoryless packet emission: each
// connection's inter-packet gaps are exponential with mean 1/Rate, so the
// offered load matches CBR on average but arrives in bursts.
type Poisson struct{}

// Connections draws the pair list and attaches per-connection Poisson
// emission seeds derived from the run seed.
func (Poisson) Connections(env Env, rng *sim.RNG) ([]Connection, error) {
	conns, err := drawPairs(env, rng)
	if err != nil {
		return nil, err
	}
	for i := range conns {
		conns[i].Process = ProcessPoisson
		conns[i].Seed = sim.DeriveSeed(env.Seed, fmt.Sprintf("traffic|poisson|conn=%d", i))
	}
	return conns, nil
}

// ExpOnOff is the exponential on/off VBR source (ns-2's Exponential
// On/Off): a connection alternates exponentially-distributed ON bursts —
// during which it emits at the full CBR rate — with exponentially-
// distributed silent OFF gaps. Mean offered load is Rate·On/(On+Off).
type ExpOnOff struct {
	// OnMean / OffMean are the mean burst and gap lengths in seconds.
	OnMean  float64
	OffMean float64
}

// Connections draws the pair list and attaches the on/off process
// parameters plus per-connection emission seeds.
func (g ExpOnOff) Connections(env Env, rng *sim.RNG) ([]Connection, error) {
	if g.OnMean <= 0 {
		return nil, fmt.Errorf("traffic: ExpOnOff.OnMean must be positive, got %v", g.OnMean)
	}
	if g.OffMean < 0 {
		return nil, fmt.Errorf("traffic: negative ExpOnOff.OffMean %v", g.OffMean)
	}
	conns, err := drawPairs(env, rng)
	if err != nil {
		return nil, err
	}
	for i := range conns {
		conns[i].Process = ProcessExpOnOff
		conns[i].OnMean = g.OnMean
		conns[i].OffMean = g.OffMean
		conns[i].Seed = sim.DeriveSeed(env.Seed, fmt.Sprintf("traffic|expoo|conn=%d", i))
	}
	return conns, nil
}

// drawPairs draws distinct (src,dst) pairs, like cbrgen: sources are
// distinct nodes where possible, destinations uniform among the others. The
// start window is clamped to the first half of the run so that short
// scenarios still carry traffic. The draw sequence is shared by every
// built-in generator and is bit-identical to the pre-registry scenario
// layer for the CBR case.
func drawPairs(env Env, rng *sim.RNG) ([]Connection, error) {
	if max := env.Duration / 2; env.StartMax > max {
		env.StartMax = max
		if env.StartMin > env.StartMax {
			env.StartMin = env.StartMax
		}
	}
	used := make(map[[2]int32]bool)
	var conns []Connection
	attempts := 0
	for len(conns) < env.Sources {
		attempts++
		if attempts > 100*env.Sources+1000 {
			return nil, fmt.Errorf("traffic: could not draw %d distinct connections", env.Sources)
		}
		src := int32(rng.Intn(env.Nodes))
		dst := int32(rng.Intn(env.Nodes))
		if src == dst {
			continue
		}
		key := [2]int32{src, dst}
		if used[key] {
			continue
		}
		used[key] = true
		start := sim.Time(0).Add(rng.DurationUniform(env.StartMin, env.StartMax+1))
		conns = append(conns, Connection{
			Src:          pkt.NodeID(src),
			Dst:          pkt.NodeID(dst),
			Rate:         env.Rate,
			PayloadBytes: env.PayloadBytes,
			Start:        start,
		})
	}
	return conns, nil
}

// The built-in traffic models self-register.
func init() {
	Models.MustRegister(ProcessCBR, func(p modelreg.Params) (Generator, error) {
		return CBR{}, p.Err()
	})
	Models.MustRegister(ProcessPoisson, func(p modelreg.Params) (Generator, error) {
		return Poisson{}, p.Err()
	})
	Models.MustRegister(ProcessExpOnOff, func(p modelreg.Params) (Generator, error) {
		g := ExpOnOff{OnMean: p.Get("on_s", 1), OffMean: p.Get("off_s", 1)}
		if g.OnMean <= 0 {
			return nil, fmt.Errorf("on_s must be positive, got %v", g.OnMean)
		}
		if g.OffMean < 0 {
			return nil, fmt.Errorf("negative off_s %v", g.OffMean)
		}
		return g, p.Err()
	})
}
