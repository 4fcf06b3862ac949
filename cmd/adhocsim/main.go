// Command adhocsim is the simulator's command-line tool. With flags only it
// runs one simulation and prints its metrics; a leading subcommand selects
// the other operations:
//
//	adhocsim -proto DSR -nodes 40 -pause 0 -speed 20 -sources 10 -dur 150 -seed 1
//	adhocsim -proto AODV -mobility gauss-markov,alpha=0.85 -traffic expoo,on_s=0.5,off_s=1
//	adhocsim -proto DSR -radio shadowing,sigma_db=6 -sinr
//	adhocsim -proto AUTOCONF -lifecycle onoff-fail,mean_up_s=60 -dur 120
//	adhocsim campaign spec.json -checkpoint run.jsonl   # replication campaign ('-' = stdin)
//	adhocsim figs -only fig1,tab1                       # the study's figures and tables
//	adhocsim figs -axis txrange=100,150,200,250 -json   # any catalogue axis
//	adhocsim verify -dur 900 -seeds 5                   # check the study's findings
//	adhocsim scene -nodes 40 -every 10                  # inspect a scenario without traffic
//	adhocsim models                                     # every registered protocol and model
//
// Each subcommand has its own flags (adhocsim <subcommand> -h). Usage errors
// exit 2.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"adhocsim"
	"adhocsim/internal/scenario"
	"adhocsim/internal/sim"
)

// subcommands maps each name to its entry point; "run" is also the default
// when the first argument is a flag.
var subcommands = map[string]func(c *cli, args []string) int{
	"run":      runCmd,
	"campaign": campaignCmd,
	"figs":     figsCmd,
	"verify":   verifyCmd,
	"scene":    sceneCmd,
	"models":   modelsCmd,
}

const subcommandList = "run (default), campaign, figs, verify, scene, models"

func main() { os.Exit(dispatch(os.Args[1:])) }

func dispatch(args []string) int {
	name := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	cmd, ok := subcommands[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "adhocsim: unknown subcommand %q; subcommands: %s\n", name, subcommandList)
		return 2
	}
	fsName := "adhocsim " + name
	if name == "run" {
		fsName = "adhocsim"
	}
	c := &cli{FlagSet: flag.NewFlagSet(fsName, flag.ExitOnError), stop: func() {}}
	code := cmd(c, args)
	c.stop()
	return code
}

// cli is one subcommand's flag set plus the flags several subcommands
// share. Each shared flag is defined once, in the method that registers it,
// and checked once, in parse; a nil field means the subcommand does not
// take that flag.
type cli struct {
	*flag.FlagSet
	dur        *float64
	seeds      *int
	workers    *int
	progress   *bool
	cpuprofile *string
	memprofile *string

	progressLine bool   // a progress line may be half-drawn on stderr
	stop         func() // flushes the profiles started by parse
}

func (c *cli) durFlag(def float64, usage string) {
	c.dur = c.Float64("dur", def, usage)
}

func (c *cli) seedsFlag(def int, usage string) {
	c.seeds = c.Int("seeds", def, usage)
}

func (c *cli) workersFlag() {
	c.workers = c.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
}

func (c *cli) progressFlag() {
	c.progress = c.Bool("progress", true, "report per-run progress on stderr")
}

func (c *cli) profileFlags() {
	c.cpuprofile = c.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
	c.memprofile = c.String("memprofile", "", "write a pprof heap profile to this file on exit")
}

// scenarioFlags is the scenario block run and scene share.
type scenarioFlags struct {
	nodes              *int
	w, h, pause, speed *float64
	seed               *int64
	dur                *float64
}

func (c *cli) scenarioFlags() *scenarioFlags {
	s := &scenarioFlags{
		nodes: c.Int("nodes", 40, "number of nodes"),
		w:     c.Float64("w", 1500, "area width (m)"),
		h:     c.Float64("h", 300, "area height (m)"),
		pause: c.Float64("pause", 0, "random-waypoint pause time (s)"),
		speed: c.Float64("speed", 20, "maximum node speed (m/s)"),
		seed:  c.Int64("seed", 1, "scenario seed"),
	}
	c.durFlag(150, "simulated duration (s)")
	s.dur = c.dur
	return s
}

// apply writes the block into spec, clamping MinSpeed to the maximum. Go
// leaves the conversion of NaN or ±Inf seconds to a sim.Duration to the
// implementation, so a non-finite -pause stops here.
func (s *scenarioFlags) apply(c *cli, spec *scenario.Spec) {
	if math.IsNaN(*s.pause) || math.IsInf(*s.pause, 0) {
		c.usageError("-pause %g: pause must be a finite number of seconds", *s.pause)
	}
	spec.Nodes = *s.nodes
	spec.Area.W, spec.Area.H = *s.w, *s.h
	spec.Pause = sim.Seconds(*s.pause)
	spec.MaxSpeed = *s.speed
	if spec.MinSpeed > *s.speed {
		spec.MinSpeed = *s.speed
	}
	spec.Duration = sim.Seconds(*s.dur)
}

// parse parses args — flags may follow positional arguments — and exits 2
// unless exactly want positional arguments remain and every shared flag
// the subcommand takes holds a usable value. It then starts any requested
// profiles, which dispatch stops after the subcommand returns.
func (c *cli) parse(args []string, want int) []string {
	var pos []string
	for {
		c.Parse(args)
		if c.NArg() == 0 {
			break
		}
		pos = append(pos, c.Arg(0))
		args = c.Args()[1:]
	}
	switch {
	case len(pos) != want:
		c.usageError("want %d argument(s), got %q; subcommands: %s", want, pos, subcommandList)
	case c.dur != nil && (!(*c.dur >= 0) || math.IsInf(*c.dur, 1)):
		c.usageError("-dur %g: duration must be a finite, non-negative number of seconds", *c.dur)
	case c.seeds != nil && *c.seeds < 1:
		c.usageError("-seeds %d: need at least one replication seed", *c.seeds)
	case c.workers != nil && *c.workers < 0:
		c.usageError("-workers %d: worker count cannot be negative", *c.workers)
	}
	if c.cpuprofile != nil {
		c.startProfiles()
	}
	return pos
}

func (c *cli) usageError(format string, a ...any) {
	fmt.Fprintf(os.Stderr, c.Name()+": "+format+"\n", a...)
	os.Exit(2)
}

// fatal reports a runtime error — ending a half-drawn progress line first —
// and exits 1. Profiles are skipped on such exits, which is fine for a
// diagnostics flag.
func (c *cli) fatal(err error) {
	if c.progressLine {
		fmt.Fprintln(os.Stderr)
	}
	fmt.Fprintln(os.Stderr, c.Name()+":", err)
	os.Exit(1)
}

// seedList returns the -seeds consecutive seeds starting at first.
func (c *cli) seedList(first int64) []int64 {
	seeds := make([]int64, *c.seeds)
	for i := range seeds {
		seeds[i] = first + int64(i)
	}
	return seeds
}

// progressFunc returns the stderr progress printer, or nil under
// -progress=false.
func (c *cli) progressFunc() adhocsim.ProgressFunc {
	if !*c.progress {
		return nil
	}
	c.progressLine = true
	return adhocsim.ProgressPrinter(os.Stderr)
}

func (c *cli) startProfiles() {
	if *c.cpuprofile != "" {
		f, err := os.Create(*c.cpuprofile)
		if err != nil {
			c.fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			c.fatal(err)
		}
		c.stop = pprof.StopCPUProfile
	}
	if path := *c.memprofile; path != "" {
		stopCPU := c.stop
		c.stop = func() {
			stopCPU()
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, c.Name()+":", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle to live objects so the profile shows retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, c.Name()+":", err)
			}
		}
	}
}

// modelsCmd lists every registered protocol and scenario model with its
// parameter names.
func modelsCmd(c *cli, args []string) int {
	c.parse(args, 0)
	fmt.Print(adhocsim.RenderRegistries())
	return 0
}
