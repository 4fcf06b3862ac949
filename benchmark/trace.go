package main

import (
	"encoding/json"
	"os"
	"time"

	"adhocsim/internal/network"
	"adhocsim/internal/pkt"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// spanKind names one traced call site. Kinds up to lastProtoKind are the
// network.Protocol methods, those up to lastEnvKind the network.Env calls a
// protocol makes from inside them, the rest the benchmark's own calls into a
// layer.
type spanKind uint8

const (
	spanStart spanKind = iota
	spanSendData
	spanRecv
	spanSnoop
	spanMacSent
	spanMacFailed
	spanUp
	spanDown
	spanEnvSendMac
	spanEnvDeliver
	spanEnvDrop
	spanEnvFlush
	spanGenerate
	spanOracle
	spanBuild
	spanInstall
	spanWorldStart
	spanWorldRun
	spanFinalize
	spanLease
	spanSpecFetch
	spanExecuteUnit
	spanCommit
	numSpanKinds

	lastProtoKind = spanDown
	lastEnvKind   = spanEnvFlush
)

var spanNames = [numSpanKinds]string{
	"routing.Start", "routing.SendData", "routing.Recv", "routing.Snoop",
	"routing.MacSent", "routing.MacFailed", "routing.Up", "routing.Down",
	"env.SendMac", "env.Deliver", "env.Drop", "env.FlushNextHop",
	"scenario.Generate", "topo.NewOracle", "network.NewWorld", "traffic.Install",
	"network.World.Start", "network.World.Run", "stats.Finalize",
	"dist.lease", "dist.spec", "campaign.ExecuteUnit", "dist.commit",
}

// span is one recorded call. Parent indexes the enclosing span in the same
// recorder (-1 at the root); Op is the run or unit the call belongs to.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// maxSpans caps the raw spans kept per recorder (one per config, one per
// worker slot): a paper_study pass makes millions of protocol calls, and the
// per-kind totals below carry every one of them whether or not its span is
// kept.
const maxSpans = 20_000

type kindTotal struct {
	Calls   uint64
	TotalNs int64 // wall time inside spans of this kind
	ChildNs int64 // part of TotalNs covered by child spans
}

type frame struct {
	kind    spanKind
	start   time.Time
	childNs int64
	index   int // position in spans, -1 when over the cap
}

// recorder keeps spans in memory for one goroutine. Self time of a kind is
// TotalNs − ChildNs.
type recorder struct {
	t0     time.Time
	op     int
	stack  []frame
	totals [numSpanKinds]kindTotal
	spans  []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(k spanKind) {
	f := frame{kind: k, start: time.Now(), index: -1}
	if len(r.spans) < maxSpans {
		parent := -1
		for i := len(r.stack) - 1; i >= 0; i-- {
			if r.stack[i].index >= 0 {
				parent = r.stack[i].index
				break
			}
		}
		f.index = len(r.spans)
		r.spans = append(r.spans, span{Name: spanNames[k], Op: r.op, Parent: parent, StartNs: f.start.Sub(r.t0).Nanoseconds()})
	}
	r.stack = append(r.stack, f)
}

func (r *recorder) end() time.Duration {
	f := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	now := time.Now()
	d := now.Sub(f.start)
	t := &r.totals[f.kind]
	t.Calls++
	t.TotalNs += d.Nanoseconds()
	t.ChildNs += f.childNs
	if n := len(r.stack); n > 0 {
		r.stack[n-1].childNs += d.Nanoseconds()
	}
	if f.index >= 0 {
		r.spans[f.index].EndNs = now.Sub(r.t0).Nanoseconds()
	}
	return d
}

// merge folds another goroutine's recorder into r (totals and spans).
func (r *recorder) merge(o *recorder) {
	shift := o.t0.Sub(r.t0).Nanoseconds()
	base := len(r.spans)
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.StartNs += shift
		s.EndNs += shift
		r.spans = append(r.spans, s)
	}
	for k := range r.totals {
		r.totals[k].Calls += o.totals[k].Calls
		r.totals[k].TotalNs += o.totals[k].TotalNs
		r.totals[k].ChildNs += o.totals[k].ChildNs
	}
}

// selfNs sums the self time and the calls of kinds from..to.
func (r *recorder) selfNs(from, to spanKind) (ns int64, calls uint64) {
	for k := from; k <= to; k++ {
		ns += r.totals[k].TotalNs - r.totals[k].ChildNs
		calls += r.totals[k].Calls
	}
	return ns, calls
}

// write stores the totals and the kept spans as one JSON document.
func (r *recorder) write(path string) error {
	totals := make(map[string]kindTotal)
	for k, t := range r.totals {
		if t.Calls > 0 {
			totals[spanNames[k]] = t
		}
	}
	b, err := json.Marshal(struct {
		Totals    map[string]kindTotal `json:"totals"`
		SpansKept int                  `json:"spans_kept"`
		Spans     []span               `json:"spans"`
	}{totals, len(r.spans), r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedProto decorates a routing agent: every network.Protocol method is a
// span, and the agent runs against a tracedEnv, so the calls it makes back
// into the node are child spans. Work a protocol starts from its own timers
// (beacons, expiry, retransmission) runs straight off the engine and is not
// seen here.
type tracedProto struct {
	inner network.Protocol
	rec   *recorder
	env   tracedEnv
}

func (p *tracedProto) Start(env network.Env) {
	p.env = tracedEnv{Env: env, rec: p.rec}
	p.rec.begin(spanStart)
	p.inner.Start(&p.env)
	p.rec.end()
}

func (p *tracedProto) SendData(pk *pkt.Packet) {
	p.rec.begin(spanSendData)
	p.inner.SendData(pk)
	p.rec.end()
}

func (p *tracedProto) Recv(pk *pkt.Packet, from pkt.NodeID, rxPower float64) {
	p.rec.begin(spanRecv)
	p.inner.Recv(pk, from, rxPower)
	p.rec.end()
}

func (p *tracedProto) Snoop(pk *pkt.Packet, from, to pkt.NodeID, rxPower float64) {
	p.rec.begin(spanSnoop)
	p.inner.Snoop(pk, from, to, rxPower)
	p.rec.end()
}

func (p *tracedProto) MacSent(pk *pkt.Packet, to pkt.NodeID) {
	p.rec.begin(spanMacSent)
	p.inner.MacSent(pk, to)
	p.rec.end()
}

func (p *tracedProto) MacFailed(pk *pkt.Packet, to pkt.NodeID) {
	p.rec.begin(spanMacFailed)
	p.inner.MacFailed(pk, to)
	p.rec.end()
}

// The world finds the optional protocol extensions by type assertion on the
// value the factory returned, so the decorator must offer exactly the
// extensions its inner agent has: one wrapper type per combination.
type (
	tracedLifecycle struct{ *tracedProto }
	tracedAutoconf  struct{ *tracedProto }
	tracedBoth      struct{ tracedLifecycle }
)

func (p tracedLifecycle) Up(at sim.Time) {
	p.rec.begin(spanUp)
	p.inner.(network.LifecycleAware).Up(at)
	p.rec.end()
}

func (p tracedLifecycle) Down(at sim.Time) {
	p.rec.begin(spanDown)
	p.inner.(network.LifecycleAware).Down(at)
	p.rec.end()
}

func (p tracedAutoconf) AutoconfState() (uint32, bool, sim.Time) {
	return p.inner.(network.Autoconfigured).AutoconfState()
}

func (p tracedBoth) AutoconfState() (uint32, bool, sim.Time) {
	return tracedAutoconf{p.tracedProto}.AutoconfState()
}

// traceFactory wraps every agent the factory builds.
func traceFactory(f network.ProtocolFactory, rec *recorder) network.ProtocolFactory {
	return func(id pkt.NodeID) network.Protocol {
		p := &tracedProto{inner: f(id), rec: rec}
		_, lifecycle := p.inner.(network.LifecycleAware)
		_, autoconf := p.inner.(network.Autoconfigured)
		switch {
		case lifecycle && autoconf:
			return tracedBoth{tracedLifecycle{p}}
		case lifecycle:
			return tracedLifecycle{p}
		case autoconf:
			return tracedAutoconf{p}
		}
		return p
	}
}

// tracedEnv times the four Env calls that do work below the routing layer;
// the accessors (ID, Now, Engine, RNG, NumNodes) pass through untimed.
type tracedEnv struct {
	network.Env
	rec *recorder
}

func (e *tracedEnv) SendMac(p *pkt.Packet, nextHop pkt.NodeID) {
	e.rec.begin(spanEnvSendMac)
	e.Env.SendMac(p, nextHop)
	e.rec.end()
}

func (e *tracedEnv) Deliver(p *pkt.Packet, from pkt.NodeID) {
	e.rec.begin(spanEnvDeliver)
	e.Env.Deliver(p, from)
	e.rec.end()
}

func (e *tracedEnv) Drop(p *pkt.Packet, reason stats.DropReason) {
	e.rec.begin(spanEnvDrop)
	e.Env.Drop(p, reason)
	e.rec.end()
}

func (e *tracedEnv) FlushNextHop(to pkt.NodeID) {
	e.rec.begin(spanEnvFlush)
	e.Env.FlushNextHop(to)
	e.rec.end()
}
