// Command adhocsim runs a single ad hoc network simulation and prints its
// metrics, or — with -campaign — a whole replication campaign from a JSON
// spec.
//
// Usage:
//
//	adhocsim -proto DSR -nodes 40 -pause 0 -speed 20 -sources 10 -dur 150 -seed 1
//	adhocsim -proto AODV -mobility gauss-markov,alpha=0.85 -traffic expoo,on_s=0.5,off_s=1
//	adhocsim -proto DSR -radio shadowing,sigma_db=6 -sinr
//	adhocsim -proto AUTOCONF -lifecycle onoff-fail,mean_up_s=60 -dur 120
//	adhocsim -campaign spec.json -checkpoint run.jsonl
//	adhocsim -list-models
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"adhocsim"
	"adhocsim/internal/metrics"
	"adhocsim/internal/trace"
)

// parseModelFlag parses "name" or "name,key=value,key=value" into a model
// name plus a parameter map ("" means the default model).
func parseModelFlag(flagName, s string) (string, map[string]float64) {
	if s == "" {
		return "", nil
	}
	parts := strings.Split(s, ",")
	name := strings.TrimSpace(parts[0])
	var params map[string]float64
	for _, kv := range parts[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "adhocsim: -%s: %q is not key=value\n", flagName, kv)
			os.Exit(2)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adhocsim: -%s: %q: %v\n", flagName, kv, err)
			os.Exit(2)
		}
		if params == nil {
			params = make(map[string]float64)
		}
		params[strings.TrimSpace(key)] = x
	}
	return name, params
}

// runCampaign executes a campaign spec end to end: progress on stderr, the
// aggregated Result as JSON on stdout. With -checkpoint, completed runs are
// journaled and an interrupted campaign (Ctrl-C included) resumes from the
// same file.
func runCampaign(specPath, checkpoint string, workers int) {
	var data []byte
	var err error
	if specPath == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(specPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "adhocsim:", err)
		os.Exit(1)
	}
	var spec adhocsim.CampaignSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "adhocsim: campaign spec:", err)
		os.Exit(1)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	res, err := adhocsim.RunCampaign(ctx, spec, adhocsim.CampaignOptions{
		Workers:     workers,
		JournalPath: checkpoint,
		OnProgress: func(s adhocsim.CampaignSnapshot) {
			fmt.Fprintf(os.Stderr, "\r[%d/%d runs, %d/%d cells settled]   ",
				s.RunsDone, s.MaxRuns, s.CellsStopped, s.Cells)
		},
	})
	fmt.Fprintln(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adhocsim:", err)
		if checkpoint != "" {
			fmt.Fprintf(os.Stderr, "adhocsim: rerun with -checkpoint %s to resume\n", checkpoint)
		}
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "adhocsim:", err)
		os.Exit(1)
	}
}

// strayCampaignFlag returns the first of the set flags that -campaign would
// silently ignore — the spec file describes the runs — or "" when all apply.
func strayCampaignFlag(set []string) string {
	for _, name := range set {
		switch name {
		case "campaign", "checkpoint", "workers", "cpuprofile", "memprofile":
		default:
			return name
		}
	}
	return ""
}

func main() {
	var (
		proto       = flag.String("proto", adhocsim.DSR, "routing protocol: "+strings.Join(adhocsim.RegisteredProtocols(), ", "))
		nodes       = flag.Int("nodes", 40, "number of nodes")
		areaW       = flag.Float64("w", 1500, "area width (m)")
		areaH       = flag.Float64("h", 300, "area height (m)")
		pause       = flag.Float64("pause", 0, "random-waypoint pause time (s)")
		speed       = flag.Float64("speed", 20, "maximum node speed (m/s)")
		sources     = flag.Int("sources", 10, "number of CBR connections")
		rate        = flag.Float64("rate", 4, "packets per second per connection")
		payload     = flag.Int("payload", 64, "payload bytes per packet")
		dur         = flag.Float64("dur", 150, "simulated duration (s)")
		txRange     = flag.Float64("range", 250, "radio range (m)")
		listModelsF = flag.Bool("list-models", false, "list every registered protocol and scenario model (with parameter names) and exit")
		sinr        = flag.Bool("sinr", false, "cumulative-interference SINR reception instead of pairwise capture")
		seed        = flag.Int64("seed", 1, "scenario seed")
		seeds       = flag.Int("seeds", 1, "number of replication seeds (averaged)")
		verbose     = flag.Bool("v", false, "print drop census and overhead breakdown")
		asJSON      = flag.Bool("json", false, "emit results as JSON instead of text")
		traceFile   = flag.String("trace", "", "write an ns-2-style packet trace to this file (single seed only)")
		metricsFile = flag.String("metrics", "", "dump the metric sample stream as JSONL to this file (single seed only)")

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")

		campaignFile = flag.String("campaign", "", "run a replication campaign from this JSON spec file ('-' = stdin) instead of a single run")
		checkpoint   = flag.String("checkpoint", "", "campaign journal path; an existing journal of the same spec is resumed")
		workers      = flag.Int("workers", 0, "campaign worker pool size (0 = GOMAXPROCS)")
	)
	// One flag per scenario-model kind: -mobility, -traffic, -radio,
	// -lifecycle.
	kinds := adhocsim.ModelKinds()
	modelFlags := make([]*string, len(kinds))
	for i, k := range kinds {
		modelFlags[i] = flag.String(k.Name, "", k.Name+" model, optionally with parameters (\"name,key=value,...\"); models: "+strings.Join(k.Models.Names(), ", "))
	}
	flag.Parse()

	if *campaignFile != "" {
		var set []string
		flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
		if name := strayCampaignFlag(set); name != "" {
			fmt.Fprintf(os.Stderr, "adhocsim: -%s has no effect with -campaign: the spec file describes the runs\n", name)
			os.Exit(2)
		}
	}
	if *listModelsF {
		fmt.Print(adhocsim.RenderRegistries())
		return
	}

	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "adhocsim: -workers %d: worker count cannot be negative\n", *workers)
		os.Exit(2)
	}
	if *seeds < 1 {
		fmt.Fprintf(os.Stderr, "adhocsim: -seeds %d: need at least one replication seed\n", *seeds)
		os.Exit(2)
	}

	// Profiling wraps everything after flag parsing — single runs and
	// campaigns alike — so hot-path regressions can be diagnosed straight
	// from the CLI (`make profile`) without editing benchmark code. The
	// profiles are skipped on error exits (os.Exit bypasses defers), which
	// is fine for a diagnostics flag.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "adhocsim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "adhocsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "adhocsim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle to live objects so the profile shows retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "adhocsim:", err)
			}
		}()
	}

	if *campaignFile != "" {
		runCampaign(*campaignFile, *checkpoint, *workers)
		return
	}

	spec := adhocsim.DefaultSpec()
	spec.Nodes = *nodes
	spec.Area = adhocsim.Rect{W: *areaW, H: *areaH}
	spec.Pause = adhocsim.Seconds(*pause)
	spec.MaxSpeed = *speed
	if spec.MinSpeed > *speed {
		spec.MinSpeed = *speed
	}
	spec.Sources = *sources
	spec.Rate = *rate
	spec.PayloadBytes = *payload
	spec.Duration = adhocsim.Seconds(*dur)
	spec.TxRange = *txRange
	spec.Radio.SINR = *sinr
	anyModel := *sinr
	for i, k := range kinds {
		name, params := k.Ref(&spec)
		*name, *params = parseModelFlag(k.Name, *modelFlags[i])
		anyModel = anyModel || *name != ""
	}

	var seedList []int64
	for i := 0; i < *seeds; i++ {
		seedList = append(seedList, *seed+int64(i))
	}
	rc := adhocsim.RunConfig{
		Spec:     spec,
		Protocol: strings.ToUpper(*proto),
	}
	if *traceFile != "" {
		if *seeds != 1 {
			fmt.Fprintln(os.Stderr, "adhocsim: -trace requires -seeds 1")
			os.Exit(2)
		}
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "adhocsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		w := trace.NewWriter(f)
		rc.Tracer = w
		defer func() {
			if err := w.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "adhocsim: trace:", err)
			}
		}()
	}
	if *metricsFile != "" {
		if *seeds != 1 {
			fmt.Fprintln(os.Stderr, "adhocsim: -metrics requires -seeds 1")
			os.Exit(2)
		}
		f, err := os.Create(*metricsFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "adhocsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		sink := metrics.NewJSONLWriter(f)
		rc.Sinks = append(rc.Sinks, sink)
		defer func() {
			if err := sink.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "adhocsim: metrics:", err)
			}
		}()
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	res, err := adhocsim.RunReplicatedContext(ctx, rc, seedList, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adhocsim:", err)
		os.Exit(1)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Protocol string
			adhocsim.Results
		}{strings.ToUpper(*proto), res}); err != nil {
			fmt.Fprintln(os.Stderr, "adhocsim:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("protocol            %s\n", strings.ToUpper(*proto))
	fmt.Printf("scenario            %d nodes, %.0fx%.0f m, pause %.0fs, speed %.0f m/s, %d srcs @ %.1f pkt/s, %.0fs\n",
		*nodes, *areaW, *areaH, *pause, *speed, *sources, *rate, *dur)
	if anyModel {
		reception := "capture"
		if *sinr {
			reception = "sinr"
		}
		shown := make([]string, len(kinds))
		for i, k := range kinds {
			name, _ := k.Ref(&spec)
			shown[i] = k.Name + " " + *name
			if *name == "" {
				shown[i] = k.Name + " " + k.Models.Default() + " (default)"
			}
			if k.Name == "radio" { // the one kind with a second switch
				shown[i] += " (" + reception + ")"
			}
		}
		fmt.Printf("models              %s\n", strings.Join(shown, ", "))
	}
	fmt.Printf("data sent/received  %d / %d (+%d dup)\n", res.DataSent, res.DataDelivered, res.DupDelivered)
	fmt.Printf("packet delivery     %.2f %%\n", res.PDR*100)
	fmt.Printf("avg e2e delay       %.2f ms (p50 %.2f, p95 %.2f)\n", res.AvgDelay*1e3, res.P50Delay*1e3, res.P95Delay*1e3)
	fmt.Printf("throughput          %.1f kbit/s\n", res.ThroughputKbps)
	fmt.Printf("routing overhead    %d pkts (%.1f kB), NRL %.2f\n",
		res.RoutingTxPackets, float64(res.RoutingTxBytes)/1000, res.NormalizedRoutingLoad)
	fmt.Printf("MAC ctl frames      %d, normalized MAC load %.2f\n", res.MacCtlFrames, res.NormalizedMacLoad)
	fmt.Printf("avg hops            %.2f (optimal-path share %.1f %%)\n", res.AvgHops, res.PathOptimalityShare()*100)
	if res.Joins > 0 || res.Leaves > 0 {
		fmt.Printf("membership churn    %d joins, %d leaves\n", res.Joins, res.Leaves)
	}
	if res.TimeToConverge > 0 || res.AddrCollisionRate > 0 {
		fmt.Printf("autoconfiguration   converged in %.2f s, addr collision rate %.4f\n",
			res.TimeToConverge, res.AddrCollisionRate)
	}

	if *verbose {
		fmt.Println("\ndrops:")
		type kv struct {
			k string
			v uint64
		}
		var drops []kv
		for r, n := range res.Drops {
			drops = append(drops, kv{string(r), n})
		}
		sort.Slice(drops, func(i, j int) bool { return drops[i].k < drops[j].k })
		for _, d := range drops {
			fmt.Printf("  %-22s %d\n", d.k, d.v)
		}
		fmt.Println("routing overhead by message type:")
		var types []kv
		for t, n := range res.RoutingByType {
			types = append(types, kv{t, n})
		}
		sort.Slice(types, func(i, j int) bool { return types[i].k < types[j].k })
		for _, t := range types {
			fmt.Printf("  %-22s %d\n", t.k, t.v)
		}
	}
}
