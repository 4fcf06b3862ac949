package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"

	"adhocsim"
	"adhocsim/internal/metrics"
	"adhocsim/internal/trace"
)

// parseModelFlag parses "name" or "name,key=value,key=value" into a model
// name plus a parameter map ("" means the default model).
func (c *cli) parseModelFlag(flagName, s string) (string, map[string]float64) {
	if s == "" {
		return "", nil
	}
	parts := strings.Split(s, ",")
	name := strings.TrimSpace(parts[0])
	var params map[string]float64
	for _, kv := range parts[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			c.usageError("-%s: %q is not key=value", flagName, kv)
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			c.usageError("-%s: %q: %v", flagName, kv, err)
		}
		if params == nil {
			params = make(map[string]float64)
		}
		params[strings.TrimSpace(key)] = x
	}
	return name, params
}

// runCmd runs one scenario (merged over -seeds replications) and prints its
// metrics as text or JSON.
func runCmd(c *cli, args []string) int {
	var (
		proto       = c.String("proto", adhocsim.DSR, "routing protocol: "+strings.Join(adhocsim.RegisteredProtocols(), ", "))
		scene       = c.scenarioFlags()
		sources     = c.Int("sources", 10, "number of CBR connections")
		rate        = c.Float64("rate", 4, "packets per second per connection")
		payload     = c.Int("payload", 64, "payload bytes per packet")
		txRange     = c.Float64("range", 250, "radio range (m)")
		sinr        = c.Bool("sinr", false, "cumulative-interference SINR reception instead of pairwise capture")
		verbose     = c.Bool("v", false, "print drop census and overhead breakdown")
		asJSON      = c.Bool("json", false, "emit results as JSON instead of text")
		traceFile   = c.String("trace", "", "write an ns-2-style packet trace to this file (single seed only)")
		metricsFile = c.String("metrics", "", "dump the metric sample stream as JSONL to this file (single seed only)")
	)
	c.seedsFlag(1, "number of replication seeds from -seed on (averaged)")
	c.workersFlag()
	c.profileFlags()
	// One flag per scenario-model kind: -mobility, -traffic, -radio,
	// -lifecycle.
	kinds := adhocsim.ModelKinds()
	modelFlags := make([]*string, len(kinds))
	for i, k := range kinds {
		modelFlags[i] = c.String(k.Name, "", k.Name+" model, optionally with parameters (\"name,key=value,...\"); models: "+strings.Join(k.Models.Names(), ", "))
	}
	c.parse(args, 0)

	spec := adhocsim.DefaultSpec()
	scene.apply(c, &spec)
	spec.Sources = *sources
	spec.Rate = *rate
	spec.PayloadBytes = *payload
	spec.TxRange = *txRange
	spec.Radio.SINR = *sinr
	anyModel := *sinr
	for i, k := range kinds {
		name, params := k.Ref(&spec)
		*name, *params = c.parseModelFlag(k.Name, *modelFlags[i])
		anyModel = anyModel || *name != ""
	}

	rc := adhocsim.RunConfig{
		Spec:     spec,
		Protocol: strings.ToUpper(*proto),
	}
	if *traceFile != "" {
		if *c.seeds != 1 {
			c.usageError("-trace requires -seeds 1")
		}
		f, err := os.Create(*traceFile)
		if err != nil {
			c.fatal(err)
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
		if *c.seeds != 1 {
			c.usageError("-metrics requires -seeds 1")
		}
		f, err := os.Create(*metricsFile)
		if err != nil {
			c.fatal(err)
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
	res, err := adhocsim.RunReplicatedContext(ctx, rc, c.seedList(*scene.seed), *c.workers)
	if err != nil {
		c.fatal(err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Protocol string
			adhocsim.Results
		}{rc.Protocol, res}); err != nil {
			c.fatal(err)
		}
		return 0
	}

	fmt.Printf("protocol            %s\n", rc.Protocol)
	fmt.Printf("scenario            %d nodes, %.0fx%.0f m, pause %.0fs, speed %.0f m/s, %d srcs @ %.1f pkt/s, %.0fs\n",
		*scene.nodes, *scene.w, *scene.h, *scene.pause, *scene.speed, *sources, *rate, *scene.dur)
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
	return 0
}
