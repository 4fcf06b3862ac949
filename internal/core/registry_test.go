package core

import (
	"slices"
	"strings"
	"testing"

	"adhocsim/internal/lifecycle"
	"adhocsim/internal/mobility"
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

// names is what the protocol registry and every model kind share: a kind,
// a default entry and case-insensitive name resolution.
type names interface {
	Kind() string
	Default() string
	Names() []string
	Known(name string) bool
}

// lookupSemantics checks one of the five name tables against the shared
// lookup contract: lookup is case-insensitive, an unknown name's error
// (from resolve) lists the names, and the empty name selects the default —
// or, for the protocol registry, which has none, is unknown.
func lookupSemantics(t *testing.T, r names, builtin string, resolve func(string) error) {
	for _, name := range []string{builtin, strings.ToLower(builtin), " " + strings.ToUpper(builtin) + " "} {
		if !r.Known(name) || resolve(name) != nil {
			t.Errorf("%s: %q does not resolve", r.Kind(), name)
		}
	}
	err := resolve("no-such-entry")
	if err == nil || r.Known("no-such-entry") ||
		!strings.Contains(err.Error(), "(registered: "+strings.Join(r.Names(), ", ")+")") {
		t.Errorf("%s: unknown-name error %v does not list the names", r.Kind(), err)
	}
	if def := r.Default(); def == "" {
		if r.Known("") {
			t.Errorf("%s: the empty name resolved in a table with no default", r.Kind())
		}
	} else if !r.Known("") || !slices.Contains(r.Names(), def) {
		t.Errorf("%s: the default %q does not resolve", r.Kind(), def)
	}
}

// TestRegistrySemantics: the protocol registry, the one table code can add
// to, rejects empty names, nil builders and (case-variant) duplicates with a
// kind-prefixed error; it and every model kind resolve names alike.
func TestRegistrySemantics(t *testing.T) {
	t.Run("protocols", func(t *testing.T) {
		before := protocols.Names()
		for what, tc := range map[string]struct {
			name    string
			b       ProtocolBuilder
			wantErr string
		}{
			"empty name":             {"  ", stubBuilder, "empty"},
			"nil builder":            {"regtest-nil", nil, "nil builder"},
			"duplicate":              {DSR, stubBuilder, "already registered"},
			"case-variant duplicate": {" Dsr ", stubBuilder, "already registered"},
		} {
			err := protocols.Register(tc.name, tc.b)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.HasPrefix(err.Error(), "core: ") {
				t.Errorf("%s: err = %v, want a core-prefixed error containing %q", what, err, tc.wantErr)
			}
		}
		if got := protocols.Names(); len(got) != len(before) {
			t.Errorf("rejected registrations changed the registry: %v → %v", before, got)
		}
		lookupSemantics(t, protocols, DSR, func(name string) error { _, _, err := protocols.Lookup(name); return err })
	})
	for _, k := range []struct {
		models interface {
			names
			ParamNames(name string) ([]string, error)
		}
		builtin string
	}{
		{mobility.Models, "waypoint"},
		{traffic.Models, "cbr"},
		{radio.Models, "tworay"},
		{lifecycle.Models, "static"},
	} {
		t.Run(k.models.Kind(), func(t *testing.T) {
			lookupSemantics(t, k.models, k.builtin, func(name string) error { _, err := k.models.ParamNames(name); return err })
		})
	}
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
