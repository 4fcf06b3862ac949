package mobility

import (
	"adhocsim/internal/geo"
	"adhocsim/internal/modelreg"
	"adhocsim/internal/sim"
)

// Env carries the scenario-level mobility parameters into a model builder:
// the simulation area and the generic speed/pause knobs every spec exposes.
// Model-specific parameters arrive separately as a name→value map, so a
// model spec stays JSON-serializable end to end (scenario.MobilitySpec).
type Env struct {
	Area     geo.Rect
	MinSpeed float64 // m/s
	MaxSpeed float64 // m/s
	Pause    sim.Duration
}

// Models is the mobility-model table: scenario specs, the campaign engine
// and the cmd tools resolve names through it. An empty name selects the
// study's random waypoint. Every built model is validated with a zero-node
// dry run, so an out-of-range parameter (gauss-markov alpha=1.5, manhattan
// turn_prob=2, …) fails at Spec.Validate / campaign-submission time rather
// than mid-campaign — which is why Model.Generate must tolerate n=0.
var Models = modelreg.NewModels("mobility", "waypoint", map[string]func(Env, modelreg.Params) (Model, error){
	"waypoint": func(env Env, p modelreg.Params) (Model, error) {
		m := RandomWaypoint{
			Area:     env.Area,
			MinSpeed: p.Get("min_speed_mps", env.MinSpeed),
			MaxSpeed: p.Get("max_speed_mps", env.MaxSpeed),
			Pause:    p.Duration("pause_s", env.Pause),
		}
		return m, p.Err()
	},
	"walk": func(env Env, p modelreg.Params) (Model, error) {
		m := RandomWalk{
			Area:     env.Area,
			MinSpeed: p.Get("min_speed_mps", env.MinSpeed),
			MaxSpeed: p.Get("max_speed_mps", env.MaxSpeed),
			Step:     p.Duration("step_s", 10*sim.Second),
		}
		return m, p.Err()
	},
	"gauss-markov": func(env Env, p modelreg.Params) (Model, error) {
		min := p.Get("min_speed_mps", env.MinSpeed)
		max := p.Get("max_speed_mps", env.MaxSpeed)
		m := GaussMarkov{
			Area:       env.Area,
			MinSpeed:   min,
			MaxSpeed:   max,
			MeanSpeed:  p.Get("mean_speed_mps", (min+max)/2),
			Alpha:      p.Get("alpha", 0.75),
			SigmaSpeed: p.Get("sigma_speed_mps", (max-min)/4),
			SigmaDir:   p.Get("sigma_dir_rad", 0.4),
			Tick:       p.Duration("tick_s", sim.Second),
			Margin:     p.Get("margin_m", 0),
		}
		return m, p.Err()
	},
	"manhattan": func(env Env, p modelreg.Params) (Model, error) {
		m := Manhattan{
			Area:     env.Area,
			BlocksX:  int(p.Get("blocks_x", 0)),
			BlocksY:  int(p.Get("blocks_y", 0)),
			MinSpeed: p.Get("min_speed_mps", env.MinSpeed),
			MaxSpeed: p.Get("max_speed_mps", env.MaxSpeed),
			TurnProb: p.Get("turn_prob", 0.25),
		}
		return m, p.Err()
	},
	"rpgm": func(env Env, p modelreg.Params) (Model, error) {
		m := GroupMobility{
			Area:     env.Area,
			Groups:   int(p.Get("groups", 4)),
			MinSpeed: p.Get("min_speed_mps", env.MinSpeed),
			MaxSpeed: p.Get("max_speed_mps", env.MaxSpeed),
			Pause:    p.Duration("pause_s", env.Pause),
			Spread:   p.Get("spread_m", 100),
			Resample: p.Duration("resample_s", 10*sim.Second),
		}
		return m, p.Err()
	},
	"static-grid": func(env Env, p modelreg.Params) (Model, error) {
		m := StaticGrid{
			Area:   env.Area,
			Jitter: p.Get("jitter_m", 25),
		}
		return m, p.Err()
	},
}, func(m Model, _ Env) error {
	_, err := m.Generate(0, 0, sim.NewRNG(0))
	return err
})

// New resolves a model name through Models and builds it for the given
// environment.
func New(name string, env Env, params map[string]float64) (Model, error) {
	return Models.Build(name, env, params)
}
