package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"time"

	"adhocsim"
	"adhocsim/internal/core"
	"adhocsim/internal/metrics"
	"adhocsim/internal/stats"
)

// checkRun applies the invariants every simulation run must keep.
func checkRun(c simConfig, out runOut) string {
	res := out.Res
	switch {
	case res.DataDelivered > res.DataSent:
		return "delivered more data than was sent"
	case out.Counts.Events == 0:
		return "no events"
	case c.WantRouting && res.RoutingTxPackets == 0:
		return "no routing traffic"
	case c.RC.Spec.Lifecycle.Name != "" && res.Joins+res.Leaves == 0:
		return "no membership transitions under churn"
	}
	return ""
}

// warmUp runs each config at a tenth of its horizon through the facade and
// through the phased copy and requires equal Results. It is the discarded
// warm-up and the guard against the copy drifting from core.Run. It runs at
// the scene seed, the one point where the facade, which draws scene and
// simulator randomness from one seed, can express the benchmark's config.
func (r *result) warmUp(cfgs []simConfig) {
	for _, c := range cfgs {
		short := c
		short.RC.Spec.Duration /= 10
		short.RC.Seed = short.SceneSeed
		r.Ops += 2
		want, err := adhocsim.Run(short.RC)
		if err != nil {
			r.fail(2, "%s warm-up: %v", c.Name, err)
			continue
		}
		got, err := runPhased(short, nil, nil)
		if err != nil {
			r.fail(2, "%s warm-up: %v", c.Name, err)
		} else if !reflect.DeepEqual(got.Res, want) {
			r.fail(2, "%s: phased copy differs from adhocsim.Run", c.Name)
		}
	}
}

// simPass runs every config once. refs holds the first repetition's Results
// per config (nil until then); recs, when non-nil, turns tracing on with one
// recorder per config.
func (r *result) simPass(cfgs []simConfig, refs []*stats.Results, recs []*recorder) []runOut {
	outs := make([]runOut, len(cfgs))
	for i, c := range cfgs {
		var rec *recorder
		if recs != nil {
			rec = newRecorder()
			rec.op = i
			recs[i] = rec
		}
		r.Ops++
		out, err := runPhased(c, rec, r.wrap)
		if msg := checkRun(c, out); err == nil && msg != "" {
			err = errors.New(msg)
		}
		switch {
		case err != nil:
			r.fail(1, "%s: %v", c.Name, err)
		case refs[i] == nil:
			refs[i] = &out.Res
		case !reflect.DeepEqual(out.Res, *refs[i]):
			r.fail(1, "%s: Results differ from the first repetition (traced: %v)", c.Name, rec != nil)
		}
		fmt.Fprintf(os.Stderr, "  %-16s run %.4fs (set-up %.4f, loop %.4f), %d events, %d allocs\n",
			c.Name, out.Times.total().Seconds(), out.Times.setup().Seconds(), out.Times.Loop.Seconds(), out.Counts.Events, out.Mallocs)
		outs[i] = out
	}
	return outs
}

// perConfig sums a per-run quantity over configs: each config contributes
// its median over passes, which shrugs off a slow burst that hits one run.
// The quartiles are those of the per-pass sums, widened to hold that value.
func perConfig(passes [][]runOut, f func(runOut) float64) stat {
	totals := make([]float64, len(passes))
	var value float64
	for c := range passes[0] {
		samples := make([]float64, len(passes))
		for p := range passes {
			samples[p] = f(passes[p][c])
			totals[p] += samples[p]
		}
		value += median(samples)
	}
	s := summarize("", totals...)
	s.Median, s.Q1, s.Q3 = value, min(s.Q1, value), max(s.Q3, value)
	return s
}

func (s stat) scaled(k float64) stat {
	s.Median, s.Q1, s.Q3 = s.Median*k, s.Q1*k, s.Q3*k
	return s
}

// inverse returns k/s, for turning a time into a rate.
func (s stat) inverse(k float64) stat {
	s.Median, s.Q1, s.Q3 = k/s.Median, k/s.Q3, k/s.Q1
	return s
}

func totalEvents(pass []runOut) float64 {
	var n float64
	for _, o := range pass {
		n += float64(o.Counts.Events)
	}
	return n
}

// runSim measures one simulation workload.
func runSim(name string, cfgs []simConfig, opt options) *result {
	r := newResult(name, opt)
	r.warmUp(cfgs)

	refs := make([]*stats.Results, len(cfgs))
	var passes [][]runOut
	minPasses := 2
	if opt.Trace {
		minPasses = 1 // the traced pass is the second repetition
	}
	start := time.Now()
	for len(passes) < minPasses || (!opt.Trace && !opt.Tiny && time.Since(start).Seconds() < opt.Seconds) {
		passes = append(passes, r.simPass(cfgs, refs, nil))
	}
	if r.OpsFailed > 0 {
		r.finish()
		return r
	}
	for _, res := range refs {
		r.addDigest(*res)
	}

	runS := perConfig(passes, func(o runOut) float64 { return o.Times.total().Seconds() })
	loopS := perConfig(passes, func(o runOut) float64 { return o.Times.Loop.Seconds() })
	n := float64(len(cfgs))
	r.setStat("setup_s", perConfig(passes, func(o runOut) float64 { return o.Times.setup().Seconds() }))
	r.setStat("run_s", runS)
	r.setStat("events_per_s", loopS.inverse(totalEvents(passes[0])))
	r.setStat("allocs_per_run", perConfig(passes, func(o runOut) float64 { return float64(o.Mallocs) }).scaled(1/n))
	r.setStat("alloc_mb_per_run", perConfig(passes, func(o runOut) float64 { return float64(o.Bytes) }).scaled(1e-6/n))
	// A simulation run is the unit here, and nothing caches one: a repeated
	// identical run costs a full run, so both rates are runs per second.
	r.setStat("units_per_s", runS.inverse(n))
	r.setStat("cached_units_per_s", runS.inverse(n))

	if opt.Trace {
		recs := make([]*recorder, len(cfgs))
		traced := r.simPass(cfgs, refs, recs)
		st := simTrace{cfgs, passes, traced, recs}
		r.simLayers(st)
		r.set("trace.overhead_ratio", st.overhead())
		r.set("metrics.sink_overhead_ratio", r.sinkOverhead(cfgs[0], opt))
		r.writeTrace(opt, recs...)

		// The layers this workload never enters are measured on the
		// smallest-unit campaign, cut to two replications per cell.
		reps := 2
		if opt.Tiny {
			reps = 1
		}
		spec := clusterSpec(opt.Seed, reps, opt.Tiny)
		cl := r.cluster(spec, opt, 0, 1, 0)
		sample := r.sampleUnits(spec, true, 1)
		r.routingByProtocol(st, sample)
		r.clusterLayers(cl)
		r.probes(probeInputs(cfgs[0], st.pendingP50(), sample, spec, opt))
	}
	r.finish()
	return r
}

// simTrace is one workload's untraced passes next to its traced pass.
type simTrace struct {
	cfgs     []simConfig
	untraced [][]runOut // [pass][config]
	traced   []runOut
	recs     []*recorder // per config
}

func (st simTrace) overhead() float64 {
	var traced float64
	for _, o := range st.traced {
		traced += o.Times.total().Seconds()
	}
	return traced / perConfig(st.untraced, func(o runOut) float64 { return o.Times.total().Seconds() }).Median
}

func (st simTrace) pendingP50() int {
	var all []float64
	for _, o := range st.traced {
		for _, n := range o.Pending {
			all = append(all, float64(n))
		}
	}
	if len(all) == 0 {
		return 1
	}
	return max(1, int(median(all)))
}

// simLayers reports what the layers did and cost inside the workload's own
// runs: set-up phases and loop time from the untraced passes, the layers'
// exact counters, and the routing spans of the traced pass.
func (r *result) simLayers(st simTrace) {
	phase := func(f func(phaseTimes) time.Duration) stat {
		return perConfig(st.untraced, func(o runOut) float64 { return f(o.Times).Seconds() })
	}
	r.setStat("scenario.generate_s", phase(func(t phaseTimes) time.Duration { return t.Generate }))
	r.setStat("topo.oracle_s", phase(func(t phaseTimes) time.Duration { return t.Oracle }))
	r.setStat("network.build_s", phase(func(t phaseTimes) time.Duration { return t.Build }))
	r.setStat("network.loop_s", phase(func(t phaseTimes) time.Duration { return t.Loop }))

	var c layerCounts
	for _, o := range st.untraced[0] {
		c.add(o.Counts)
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.set("scenario.lifecycle_events", float64(c.LifecycleEvents))
	r.set("network.data_sent", float64(c.DataSent))
	r.set("network.data_delivered", float64(c.DataDelivered))
	r.set("network.pdr", ratio(c.DataDelivered, c.DataSent))
	r.set("sim.events", float64(c.Events))
	r.set("sim.pending_p50", float64(st.pendingP50()))
	r.set("phy.tx_count", float64(c.Tx))
	r.set("phy.receivers_per_tx", ratio(c.Deliveries, c.Tx))
	r.set("mac.data_sent", float64(c.MacData))
	r.set("mac.ctl_frames", float64(c.MacCtl))
	r.set("mac.retries", float64(c.MacRetries))
	r.set("mac.retry_ratio", ratio(c.MacRetries, c.MacData))
	r.set("mac.queue_drops", float64(c.MacQueueDrops))
	r.set("mac.retry_drops", float64(c.MacRetryDrops))
	r.set("routing.tx_packets", float64(c.RoutingTx))
	r.set("routing.load", ratio(c.RoutingTx, c.DataDelivered))

	var selfNs, envNs int64
	var calls uint64
	for _, rec := range st.recs {
		ns, n := rec.selfNs(spanStart, lastProtoKind)
		selfNs += ns
		calls += n
		ns, _ = rec.selfNs(spanEnvSendMac, lastEnvKind)
		envNs += ns
	}
	r.set("routing.calls", float64(calls))
	r.set("routing.self_s", float64(selfNs)/1e9)
	r.set("routing.self_ns_per_call", float64(selfNs)/float64(max(calls, 1)))
	r.set("routing.env_s", float64(envNs)/1e9)
}

// routingByProtocol splits routing self time per call by protocol. A
// protocol the workload itself runs is taken from its traced pass, the
// others from the sample units of the smallest-unit campaign.
func (r *result) routingByProtocol(own, sample simTrace) {
	for _, proto := range core.StudyProtocols() {
		var ns int64
		var calls uint64
		for _, st := range []simTrace{own, sample} {
			for i, c := range st.cfgs {
				if c.RC.Protocol == proto {
					n, k := st.recs[i].selfNs(spanStart, lastProtoKind)
					ns += n
					calls += k
				}
			}
			if calls > 0 {
				break
			}
		}
		r.set("routing."+strings.ToLower(proto)+".self_ns_per_call", float64(ns)/float64(max(calls, 1)))
	}
}

// sinkOverhead prices the streaming-metrics tap: the config's run time with
// one of every production sink attached, over its run time with none. The
// two alternate so that drift in the host's speed cancels.
func (r *result) sinkOverhead(c simConfig, opt options) float64 {
	pairs := 3
	if opt.Tiny {
		pairs = 1
	}
	var with, without []float64
	for i := 0; i < pairs; i++ {
		for _, sinks := range []bool{false, true} {
			rc := c
			if sinks {
				rc.RC.Sinks = []metrics.Sink{
					metrics.NewSketchSink(metrics.DefaultCompression, metrics.SketchedKinds...),
					metrics.NewWindow(c.RC.Spec.Duration, metrics.DefaultSeriesBuckets),
					stats.NewWelfordSink(),
					metrics.NewJSONLWriter(io.Discard),
				}
			}
			r.Ops++
			out, err := runPhased(rc, nil, nil)
			if err != nil {
				r.fail(1, "%s with sinks %v: %v", c.Name, sinks, err)
				return 0
			}
			if sinks {
				with = append(with, out.Times.total().Seconds())
			} else {
				without = append(without, out.Times.total().Seconds())
			}
		}
	}
	return median(with) / median(without)
}

// writeTrace stores the traced pass's spans under the output directory.
func (r *result) writeTrace(opt options, recs ...*recorder) {
	all := &recorder{t0: recs[0].t0}
	for _, rec := range recs {
		all.merge(rec)
	}
	if err := all.write(opt.OutDir + "/trace-" + r.Workload + ".json"); err != nil {
		r.fail(0, "writing trace: %v", err)
	}
}
