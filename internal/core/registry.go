package core

import (
	"adhocsim/internal/modelreg"
	"adhocsim/internal/network"
	"adhocsim/internal/phy"
	"adhocsim/internal/routing/aodv"
	"adhocsim/internal/routing/autoconf"
	"adhocsim/internal/routing/cbrp"
	"adhocsim/internal/routing/dsdv"
	"adhocsim/internal/routing/dsr"
	"adhocsim/internal/routing/flood"
	"adhocsim/internal/routing/paodv"
)

// BuildContext carries the per-run inputs a protocol builder may need:
// the radio parameters of the scenario (PAODV derives its warning threshold
// from them) and the ablation tweaks threaded through Options.
type BuildContext struct {
	Radio  phy.RadioParams
	Tweaks ProtocolTweaks
}

// ProtocolBuilder constructs a per-node protocol factory for one run.
// Builders must be pure: they are called once per simulation run, possibly
// from many goroutines at once.
type ProtocolBuilder func(BuildContext) (network.ProtocolFactory, error)

// protocols is the routing-protocol registry: the same mechanism as the
// scenario-model registries, with upper-case canonical names and no
// default entry.
var protocols = modelreg.New[ProtocolBuilder]("core", "protocol", "", modelreg.CanonicalUpper)

// RegisterProtocol adds a routing protocol under the given name, making it
// available to Run, the sweep helpers and every cmd tool. Registration is
// open: code outside this package (including outside internal/) can plug in
// new protocols or ablation variants without touching the harness. Names
// are case-insensitive; registering an empty name, a nil builder, or a name
// already taken is an error.
func RegisterProtocol(name string, builder ProtocolBuilder) error {
	return protocols.Register(name, builder)
}

// RegisteredProtocols returns every registered protocol name, sorted.
func RegisteredProtocols() []string { return protocols.Names() }

// FactoryFor resolves a protocol name through the registry to a per-node
// factory. Radio parameters are needed by PAODV (its warning threshold is a
// received-power level).
func FactoryFor(name string, radio phy.RadioParams, tweaks ProtocolTweaks) (network.ProtocolFactory, error) {
	builder, _, err := protocols.Lookup(name)
	if err != nil {
		return nil, err
	}
	return builder(BuildContext{Radio: radio, Tweaks: tweaks})
}

// The study protocols self-register so that FactoryFor and external
// registrations resolve through one mechanism.
func init() {
	protocols.MustRegister(DSR, func(bc BuildContext) (network.ProtocolFactory, error) {
		return dsr.Factory(bc.Tweaks.DSR), nil
	})
	protocols.MustRegister(AODV, func(bc BuildContext) (network.ProtocolFactory, error) {
		return aodv.Factory(bc.Tweaks.AODV), nil
	})
	protocols.MustRegister(PAODV, func(bc BuildContext) (network.ProtocolFactory, error) {
		return paodv.Factory(paodv.Config{AODV: bc.Tweaks.AODV, Radio: bc.Radio}), nil
	})
	protocols.MustRegister(CBRP, func(bc BuildContext) (network.ProtocolFactory, error) {
		return cbrp.Factory(bc.Tweaks.CBRP), nil
	})
	protocols.MustRegister(DSDV, func(bc BuildContext) (network.ProtocolFactory, error) {
		return dsdv.Factory(bc.Tweaks.DSDV), nil
	})
	protocols.MustRegister(Flood, func(bc BuildContext) (network.ProtocolFactory, error) {
		return flood.Factory(flood.Config{}), nil
	})
	protocols.MustRegister(Autoconf, func(bc BuildContext) (network.ProtocolFactory, error) {
		return autoconf.Factory(), nil
	})
}
