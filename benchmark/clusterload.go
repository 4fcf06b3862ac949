package main

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"time"

	"adhocsim"
	"adhocsim/internal/campaign"
	"adhocsim/internal/core"
	"adhocsim/internal/metrics"
	"adhocsim/internal/sim"
)

// sampleUnits runs the first reps replications of every cell of spec three
// ways: through Plan.ExecuteUnit, through the phased copy, and (when traced)
// through the phased copy with tracing on. All must agree. It is the
// campaign workload's warm-up, its guard against the copy drifting, and its
// window into the layers below the service: events per unit, set-up phases,
// routing spans.
func (r *result) sampleUnits(spec campaign.Spec, traced bool, reps int) simTrace {
	plan, err := spec.Expand()
	if err != nil {
		r.fail(1, "expanding %s: %v", spec.Name, err)
		return simTrace{}
	}
	st := simTrace{untraced: make([][]runOut, 1)}
	for u := 0; u < len(plan.Cells)*reps; u++ {
		ci, rep := u%len(plan.Cells), u/len(plan.Cells)
		cell := plan.Cells[ci]
		// Cell scenarios are private to the plan; with pause the only axis
		// the cell's is the base at that pause. ExecuteUnit's Results
		// vouch for the reconstruction.
		scene := plan.Base
		scene.Pause = sim.Seconds(cell.Point[0])
		seed := plan.SeedFor(ci, rep)
		c := simConfig{
			Name:      cell.Label,
			RC:        core.RunConfig{Spec: scene, Protocol: cell.Protocol, Seed: seed},
			SceneSeed: seed,
		}
		r.Ops++
		want, err := plan.ExecuteUnit(context.Background(), ci, rep)
		if err != nil {
			r.fail(1, "%s: %v", c.Name, err)
			continue
		}
		// run attaches the sinks ExecuteUnit attaches and packs their state
		// the way it does.
		run := func(rec *recorder) (runOut, bool) {
			sk := metrics.NewSketchSink(metrics.DefaultCompression, metrics.SketchedKinds...)
			win := metrics.NewWindow(scene.Duration, metrics.DefaultSeriesBuckets)
			c.RC.Sinks = []metrics.Sink{sk, win}
			r.Ops++
			out, err := runPhased(c, rec, nil)
			if err == nil {
				out.Res.Streams = &metrics.RunStreams{Sketches: sk.States(), Series: win.State()}
				if msg := checkRun(c, out); msg != "" {
					err = errors.New(msg)
				} else if !reflect.DeepEqual(out.Res, want) {
					err = fmt.Errorf("phased copy differs from Plan.ExecuteUnit (traced: %v)", rec != nil)
				}
			}
			if err != nil {
				r.fail(1, "%s: %v", c.Name, err)
			}
			return out, err == nil
		}
		out, ok := run(nil)
		if !ok {
			continue
		}
		var rec *recorder
		tout := out
		if traced {
			rec = newRecorder()
			rec.op = u
			if tout, ok = run(rec); !ok {
				continue
			}
		}
		st.cfgs = append(st.cfgs, c)
		st.untraced[0] = append(st.untraced[0], out)
		st.traced = append(st.traced, tout)
		st.recs = append(st.recs, rec)
	}
	return st
}

// clusterRuns is one campaign taken three ways: in process, through the
// service, and (for traced runs) through the service with the benchmark's
// own traced worker.
type clusterRuns struct {
	Units    int
	LocalS   float64 // adhocsim.RunCampaign, same worker count, no HTTP
	Untraced clusterOut
	Traced   clusterOut
	ref      *campaign.Result
}

// cluster runs spec in process for reference, then through the service.
func (r *result) cluster(spec campaign.Spec, opt options, extraSetups, minResubmits int, budget time.Duration) clusterRuns {
	var cr clusterRuns
	start := time.Now()
	ref, err := adhocsim.RunCampaign(context.Background(), spec, adhocsim.CampaignOptions{Workers: clusterSlots()})
	cr.LocalS = time.Since(start).Seconds()
	if err != nil {
		r.fail(1, "in-process RunCampaign: %v", err)
		return cr
	}
	cr.ref = ref
	for _, cell := range ref.Cells {
		cr.Units += cell.Reps
	}
	r.Ops += cr.Units
	account := func(out clusterOut) {
		r.Ops += out.Units * (1 + len(out.PhaseB))
		for _, f := range out.Failures {
			r.fail(max(out.Units, 1), "%s", f)
		}
	}
	cr.Untraced = runCluster(spec, ref, opt.OutDir, false, extraSetups, minResubmits, budget)
	account(cr.Untraced)
	if opt.Trace && len(cr.Untraced.Failures) == 0 {
		cr.Traced = runCluster(spec, ref, opt.OutDir, true, 0, 0, 0)
		account(cr.Traced)
	}
	return cr
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// clusterLayers reports the service's own layers from a traced cluster run.
func (r *result) clusterLayers(cr clusterRuns) {
	if r.OpsFailed > 0 {
		return
	}
	units := float64(cr.Units)
	local := units / cr.LocalS
	r.set("campaign.local_units_per_s", local)
	r.set("campaign.runs_from_cache", float64(cr.Untraced.RunsFromCache))
	rtt := func(name string, ds []time.Duration) {
		us := seconds(ds)
		for i := range us {
			us[i] *= 1e6
		}
		sort.Float64s(us)
		r.set(name, us...)
		r.set(name+"_p99", quantile(us, 0.99))
	}
	rtt("dist.lease_rtt_us", cr.Traced.LeaseRTT)
	rtt("dist.commit_rtt_us", cr.Traced.CommitRTT)
	r.set("dist.sse_events", float64(cr.Untraced.SSEEvents))
	r.set("dist.units_reissued", float64(cr.Traced.Reissued))
	r.set("dist.coord_overhead_ratio", local/(units/cr.Untraced.PhaseA.Seconds()))
}

// runClusterWorkload measures campaign_cluster.
func runClusterWorkload(opt options) *result {
	r := newResult("campaign_cluster", opt)
	// Phase A is fixed work; phase B resubmits until the measuring time is
	// used up, ten times at least.
	reps, extraSetups, minResubmits, budget := clusterReps, 20, 10, time.Duration(opt.Seconds*float64(time.Second))
	switch {
	case opt.Tiny:
		reps, extraSetups, minResubmits, budget = 2, 1, 2, 0
	case opt.Trace:
		extraSetups, minResubmits, budget = 0, 2, 0
	}
	spec := clusterSpec(opt.Seed, reps, opt.Tiny)
	// The sampled units come from base seed 1 whatever -seed is. Events per
	// unit are heavy-tailed (few units see traffic start inside 20 s), so
	// the mean of a fresh 200-unit sample moves ±10% with the seed, four
	// times more than the mean of the 4000 units it stands for.
	sample := r.sampleUnits(clusterSpec(sceneSeed, reps, opt.Tiny), opt.Trace, min(reps, 10))
	cr := r.cluster(spec, opt, extraSetups, minResubmits, budget)
	if r.OpsFailed > 0 {
		r.finish()
		return r
	}
	for _, cell := range cr.ref.Cells {
		r.addDigest(cell.Merged)
	}

	out := cr.Untraced
	units := float64(cr.Units)
	phaseA := out.PhaseA.Seconds()
	r.set("setup_s", seconds(out.Setups)...)
	r.set("run_s", phaseA)
	r.set("units_per_s", units/phaseA)
	cached := seconds(out.PhaseB)
	for i := range cached {
		cached[i] = units / cached[i]
	}
	r.set("cached_units_per_s", cached...)
	// Units do not report their event counts, so the rate is an estimate:
	// the mean over the sampled units times units per second.
	r.set("events_per_s", totalEvents(sample.untraced[0])/float64(len(sample.cfgs))*units/phaseA)
	r.set("allocs_per_run", float64(out.Mallocs)/units)
	r.set("alloc_mb_per_run", float64(out.Bytes)/1e6/units)

	if opt.Trace {
		r.simLayers(sample)
		r.routingByProtocol(sample, sample)
		r.set("trace.overhead_ratio", cr.Traced.PhaseA.Seconds()/phaseA)
		r.set("metrics.sink_overhead_ratio", r.sinkOverhead(sample.cfgs[0], opt))
		r.clusterLayers(cr)
		r.writeTrace(opt, append([]*recorder{cr.Traced.Rec}, sample.recs...)...)
		r.probes(probeInputs(sample.cfgs[0], sample.pendingP50(), sample, spec, opt))
	}
	r.finish()
	return r
}
