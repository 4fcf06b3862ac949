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

// Models is the traffic-model table; an empty name selects the study's CBR.
// Builders take no environment (a generator sees it at Connections time)
// and need no post-build validation.
var Models = modelreg.NewModels("traffic", ProcessCBR, map[string]func(struct{}, modelreg.Params) (Generator, error){
	ProcessCBR:     func(_ struct{}, p modelreg.Params) (Generator, error) { return cbr, p.Err() },
	ProcessPoisson: func(_ struct{}, p modelreg.Params) (Generator, error) { return poisson, p.Err() },
	ProcessExpOnOff: func(_ struct{}, p modelreg.Params) (Generator, error) {
		g := generator{process: ProcessExpOnOff, onMean: p.Get("on_s", 1), offMean: p.Get("off_s", 1)}
		if g.onMean <= 0 {
			return nil, fmt.Errorf("on_s must be positive, got %v", g.onMean)
		}
		if g.offMean < 0 {
			return nil, fmt.Errorf("negative off_s %v", g.offMean)
		}
		return g, p.Err()
	},
}, nil)

// cbr and poisson take no parameters, so each is boxed once, not per build.
var cbr, poisson Generator = generator{process: ProcessCBR}, generator{process: ProcessPoisson}

// New resolves a traffic model name through Models and builds it.
func New(name string, params map[string]float64) (Generator, error) {
	return Models.Build(name, struct{}{}, params)
}

// generator lays out the cbrgen pair list and stamps each connection with
// its emission process: CBR (the study's workload, left unstamped), Poisson
// (memoryless emission, exponential gaps with mean 1/Rate: CBR's offered
// load on average, arriving in bursts) or expoo (ns-2's Exponential On/Off
// VBR source: exponential ON bursts at the full rate with mean onMean
// seconds, separated by exponential OFF gaps with mean offMean; mean load
// Rate·On/(On+Off)). A stochastic process's per-connection emission seed
// derives from the run seed.
type generator struct {
	process         string
	onMean, offMean float64
}

// Connections draws the pair list — for CBR, the original scenario
// generator verbatim: its rng consumption is part of the bit-identity
// contract with pre-registry study runs — and stamps the process.
func (g generator) Connections(env Env, rng *sim.RNG) ([]Connection, error) {
	conns, err := drawPairs(env, rng)
	if err != nil || g.process == ProcessCBR {
		return conns, err
	}
	for i := range conns {
		conns[i].Process = g.process
		conns[i].OnMean, conns[i].OffMean = g.onMean, g.offMean
		conns[i].Seed = sim.DeriveSeed(env.Seed, fmt.Sprintf("traffic|%s|conn=%d", g.process, i))
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
