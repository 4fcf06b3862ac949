// Package autoconf implements randomized address autoconfiguration in the
// spirit of Ravelomanana's initialization protocols: each node, on joining
// the network, claims a uniformly random address from a bounded space,
// advertises the claim over a few jittered probe rounds, defends an
// established claim when a newcomer collides with it, and re-picks on
// losing. A claim that survives its probe rounds undefended has converged;
// the network-layer census turns per-node convergence instants and
// surviving duplicates into the time_to_converge and addr_collision_rate
// metrics. Data packets are TTL-scoped floods (the flood yardstick), so
// delivery metrics stay meaningful while the address plane converges.
//
// The protocol is the first consumer of the lifecycle subsystem: it
// implements network.LifecycleAware, (re)starting its claim on every Up and
// letting the claim lapse on Down, so churn scenarios measure genuine
// re-initialization cost rather than a one-shot bootstrap.
package autoconf

import (
	"adhocsim/internal/network"
	"adhocsim/internal/pkt"
	"adhocsim/internal/routing"
	"adhocsim/internal/sim"
	"adhocsim/internal/stats"
)

// Message body size: the 4-byte claimed address.
const claimBytes = 4

// Protocol constants. Claims, defends and data packets flood with
// pkt.DefaultTTL.
const (
	// space is the address-space size; addresses are drawn uniformly from
	// [0, space), small enough that collisions are a real event at study
	// scales, as in the adversarial-autoconf literature.
	space = 1024
	// rounds is how many probe rounds a claim must survive undefended
	// before it converges.
	rounds = 3
	// interval separates probe rounds.
	interval = 500 * sim.Millisecond
)

// Factory returns a protocol factory for network.Config.
func Factory() network.ProtocolFactory {
	return func(pkt.NodeID) network.Protocol { return New() }
}

// claimPayload is the immutable routing payload of CLAIM/DEFEND floods.
type claimPayload struct {
	Addr uint32
}

// Autoconf is one node's autoconfiguration agent.
type Autoconf struct {
	routing.Base

	// Separate duplicate caches: control floods are keyed by the agent's
	// own message counter, data floods by the application sequence number,
	// and the two counters would collide in one (origin, id) space.
	seenCtl  *routing.SeenCache
	seenData *routing.SeenCache

	up          bool
	addr        uint32
	haveAddr    bool
	converged   bool
	convergedAt sim.Time
	round       int
	// epoch invalidates in-flight probe timers across re-picks and
	// Down/Up cycles, so a stale closure can never advance a new claim.
	epoch int
	seq   uint32
}

// New creates an autoconfiguration agent.
func New() *Autoconf {
	return &Autoconf{
		seenCtl:  routing.NewSeenCache(60 * sim.Second),
		seenData: routing.NewSeenCache(60 * sim.Second),
	}
}

// Start implements network.Protocol. Claiming begins at the Up hook, not
// here: a node that starts the run powered down must not touch the medium.
func (a *Autoconf) Start(env network.Env) { a.Env = env }

// Up implements network.LifecycleAware: (re)start the address claim.
func (a *Autoconf) Up(at sim.Time) {
	a.up = true
	a.pick()
}

// Down implements network.LifecycleAware: the claim lapses. The address is
// dropped entirely — a recovering node re-runs the claim procedure, since
// its old address may have been claimed while it was dark.
func (a *Autoconf) Down(at sim.Time) {
	a.up = false
	a.haveAddr = false
	a.converged = false
	a.epoch++
}

// AutoconfState implements network.Autoconfigured.
func (a *Autoconf) AutoconfState() (uint32, bool, sim.Time) {
	return a.addr, a.converged, a.convergedAt
}

// pick draws a fresh random address and restarts the probe schedule.
func (a *Autoconf) pick() {
	a.addr = uint32(a.Env.RNG().Intn(space))
	a.haveAddr = true
	a.converged = false
	a.round = 0
	a.epoch++
	ep := a.epoch
	a.JitterIn(0, func() { a.probe(ep) })
}

// probe sends one claim round, or declares convergence once every round
// survived undefended.
func (a *Autoconf) probe(ep int) {
	if ep != a.epoch || !a.up {
		return
	}
	if a.round >= rounds {
		a.converged = true
		a.convergedAt = a.Env.Now()
		return
	}
	a.round++
	a.broadcastCtl("CLAIM")
	a.JitterIn(interval, func() { a.probe(ep) })
}

// broadcastCtl originates one CLAIM/DEFEND flood for the current address.
func (a *Autoconf) broadcastCtl(msg string) {
	a.seq++
	p := pkt.RoutingPacket(msg, a.Env.ID(), pkt.Broadcast, pkt.DefaultTTL, claimBytes, a.Env.Now())
	p.Seq = a.seq
	p.Payload = claimPayload{Addr: a.addr}
	a.seenCtl.Seen(routing.SeenKey{Origin: p.Src, ID: p.Seq}, a.Env.Now())
	a.Env.SendMac(p, pkt.Broadcast)
}

// SendData implements network.Protocol: data packets are TTL-scoped floods.
func (a *Autoconf) SendData(p *pkt.Packet) {
	p.TTL = pkt.DefaultTTL
	a.seenData.Seen(routing.SeenKey{Origin: p.Src, ID: p.Seq}, a.Env.Now())
	a.Env.SendMac(p, pkt.Broadcast)
}

// Recv implements network.Protocol.
func (a *Autoconf) Recv(p *pkt.Packet, from pkt.NodeID, _ float64) {
	if p.Kind == pkt.KindData {
		a.recvData(p, from)
		return
	}
	if a.seenCtl.Seen(routing.SeenKey{Origin: p.Src, ID: p.Seq}, a.Env.Now()) {
		return
	}
	if cl, ok := p.Payload.(claimPayload); ok {
		switch p.Msg {
		case "CLAIM":
			a.onClaim(cl.Addr, p.Src)
		case "DEFEND":
			a.onDefend(cl.Addr, p.Src)
		}
	}
	a.forward(p)
}

// onClaim reacts to another node claiming an address.
func (a *Autoconf) onClaim(addr uint32, claimant pkt.NodeID) {
	if !a.up || !a.haveAddr || addr != a.addr || claimant == a.Env.ID() {
		return
	}
	if a.converged {
		// An established claim is defended, pushing the newcomer off.
		a.broadcastCtl("DEFEND")
		return
	}
	// Two unconverged claimants collided. The lower id keeps the address
	// (both hear each other's probes, so exactly one side yields); the
	// loser re-picks from scratch.
	if claimant < a.Env.ID() {
		a.pick()
	}
}

// onDefend reacts to an established owner defending the address this node
// claims: the claim is lost and a fresh address is drawn. Between two
// converged duplicates that discover each other, the lower id keeps the
// address and the higher id yields.
func (a *Autoconf) onDefend(addr uint32, owner pkt.NodeID) {
	if !a.up || !a.haveAddr || addr != a.addr || owner == a.Env.ID() {
		return
	}
	if a.converged && owner > a.Env.ID() {
		a.broadcastCtl("DEFEND")
		return
	}
	a.pick()
}

// recvData is the flood-yardstick data path: deliver at the destination,
// re-broadcast elsewhere until the TTL expires.
func (a *Autoconf) recvData(p *pkt.Packet, from pkt.NodeID) {
	if a.seenData.Seen(routing.SeenKey{Origin: p.Src, ID: p.Seq}, a.Env.Now()) {
		return
	}
	p.Hops++
	if p.Dst == a.Env.ID() {
		a.Env.Deliver(p, from)
		return
	}
	p.TTL--
	if p.Expired() {
		a.Env.Drop(p, stats.DropTTL)
		return
	}
	a.Rebroadcast(p.Clone())
}

// forward continues a control flood under a new lineage from this node.
func (a *Autoconf) forward(p *pkt.Packet) {
	p.TTL--
	if p.Expired() {
		return
	}
	q := p.Clone()
	q.Hops++
	a.Rebroadcast(q)
}

// MacFailed implements network.Protocol: broadcasts never fail at the MAC,
// so only queue overflow lands here; the packet is simply lost.
func (a *Autoconf) MacFailed(*pkt.Packet, pkt.NodeID) {}
