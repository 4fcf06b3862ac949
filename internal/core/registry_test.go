package core

import (
	"strings"
	"testing"

	"adhocsim/internal/lifecycle"
	"adhocsim/internal/mobility"
	"adhocsim/internal/modelreg"
	"adhocsim/internal/network"
	"adhocsim/internal/phy"
	"adhocsim/internal/pkt"
	"adhocsim/internal/radio"
	"adhocsim/internal/routing/flood"
	"adhocsim/internal/traffic"
)

func stubBuilder(BuildContext) (network.ProtocolFactory, error) {
	return func(pkt.NodeID) network.Protocol { return flood.New(flood.Config{}) }, nil
}

// registrySemantics checks one of the five registries against the shared
// contract: empty names, nil builders and (case-variant) duplicates are
// rejected, lookup is case-insensitive, an unknown name's error lists the
// registered names, and the empty name selects the default — or, for the
// protocol registry, which has none, is unknown.
func registrySemantics[B any](r *modelreg.Registry[B], builtin string, stub B) func(*testing.T) {
	return func(t *testing.T) {
		before := r.Names()
		var nilBuilder B
		for what, tc := range map[string]struct {
			name    string
			b       B
			wantErr string
		}{
			"empty name":             {"  ", stub, "empty"},
			"nil builder":            {"regtest-nil", nilBuilder, "nil builder"},
			"duplicate":              {builtin, stub, "already registered"},
			"case-variant duplicate": {" " + strings.ToUpper(builtin[:1]) + strings.ToLower(builtin[1:]) + " ", stub, "already registered"},
		} {
			err := r.Register(tc.name, tc.b)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.HasPrefix(err.Error(), r.Kind()+": ") {
				t.Errorf("%s: err = %v, want %q-prefixed error containing %q", what, err, r.Kind(), tc.wantErr)
			}
		}
		if got := r.Names(); len(got) != len(before) {
			t.Errorf("rejected registrations changed the registry: %v → %v", before, got)
		}
		for _, name := range []string{builtin, strings.ToLower(builtin), " " + strings.ToUpper(builtin) + " "} {
			if _, key, err := r.Lookup(name); err != nil || !strings.EqualFold(key, builtin) {
				t.Errorf("Lookup(%q) = %q, %v", name, key, err)
			}
		}
		_, _, err := r.Lookup("no-such-entry")
		if err == nil || !strings.Contains(err.Error(), "(registered: "+strings.Join(before, ", ")+")") {
			t.Errorf("unknown-name error %v does not list the registered names", err)
		}
		_, key, err := r.Lookup("")
		if def := r.Default(); def == "" {
			if err == nil || r.Known("") {
				t.Errorf("empty name resolved to %q in a registry with no default", key)
			}
		} else if err != nil || key != def || !r.Known("") {
			t.Errorf("empty name = %q, %v; want the default %q", key, err, def)
		}
	}
}

func TestRegistrySemantics(t *testing.T) {
	t.Run("protocols", registrySemantics(protocols, DSR, stubBuilder))
	t.Run("mobility", registrySemantics(mobility.Models.Registry, "waypoint",
		func(mobility.Env, modelreg.Params) (mobility.Model, error) { return nil, nil }))
	t.Run("traffic", registrySemantics(traffic.Models.Registry, "cbr",
		func(modelreg.Params) (traffic.Generator, error) { return nil, nil }))
	t.Run("radio", registrySemantics(radio.Models.Registry, "tworay",
		func(radio.Env, modelreg.Params) (phy.RadioParams, error) { return phy.RadioParams{}, nil }))
	t.Run("lifecycle", registrySemantics(lifecycle.Models.Registry, "static",
		func(lifecycle.Env, modelreg.Params) (lifecycle.Model, error) { return nil, nil }))
}

func TestFactoryForUnknownProtocolListsRegistered(t *testing.T) {
	_, err := FactoryFor("OSPF", phy.DefaultParams(), ProtocolTweaks{})
	if err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if !strings.Contains(err.Error(), DSR) {
		t.Errorf("error does not list registered protocols: %v", err)
	}
}

func TestFactoryForResolvesCaseInsensitive(t *testing.T) {
	for _, name := range []string{"dsr", "Dsr", " DSR "} {
		if _, err := FactoryFor(name, phy.DefaultParams(), ProtocolTweaks{}); err != nil {
			t.Errorf("FactoryFor(%q): %v", name, err)
		}
	}
}

func TestRegisteredProtocolsContainsBuiltins(t *testing.T) {
	have := map[string]bool{}
	for _, p := range RegisteredProtocols() {
		have[p] = true
	}
	for _, p := range AllProtocols() {
		if !have[p] {
			t.Errorf("built-in %s missing from registry", p)
		}
	}
}
