package adhocsim_test

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"adhocsim"
	"adhocsim/internal/core"
	"adhocsim/internal/routing/aodv"
	"adhocsim/internal/routing/dsr"
)

// TestZeroRadioSpecCompilesToNamedDefault: the zero-valued RadioSpec and
// the explicitly-named default model must produce reflect.DeepEqual
// end-to-end Results — the golden runs above then pin that shared path to
// the pre-refactor capture bit-for-bit.
func TestZeroRadioSpecCompilesToNamedDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("two 60 s study runs")
	}
	spec := adhocsim.DefaultSpec()
	spec.Duration = 60 * adhocsim.Second
	zero, err := adhocsim.Run(adhocsim.RunConfig{Spec: spec, Protocol: adhocsim.DSR, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec.Radio = adhocsim.RadioSpec{Name: "tworay"}
	named, err := adhocsim.Run(adhocsim.RunConfig{Spec: spec, Protocol: adhocsim.DSR, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero, named) {
		t.Fatalf("named tworay diverges from the zero-valued RadioSpec:\nzero  %+v\nnamed %+v", zero, named)
	}
}

// seedGolden pins the end-to-end results of the study configuration (40
// nodes, 1500×300 m, seed 1) over a 150 s horizon, captured on the
// pre-registry scenario layer (commit 4731a20). The scenario-model
// refactor — registry-backed mobility/traffic specs replacing the
// hard-wired random-waypoint/CBR path — must compile the default spec
// bit-identically, and the radio-model refactor (registry-backed
// RadioSpec replacing the hard-wired two-ray parameter derivation, plus
// the optional SINR reception path) must leave the zero-valued default —
// two-ray ground, pairwise capture — untouched, so every counter and
// every float here must match exactly. If a deliberate simulator change
// invalidates these numbers, re-capture them with the old harness
// semantics in mind and say so in the commit.
//
// The CBRP, PAODV and DSDV rows and the two "/"-named rows — discovery
// policy branches the defaults never take, run under the row's proto and
// tweaks — were captured at cf75444, before the routing layer's shared
// discovery loop and source-route toolkit replaced the per-protocol copies.
var seedGolden = map[string]struct {
	proto                   string // "" = the row's key
	tweaks                  core.ProtocolTweaks
	dataSent, dataDelivered uint64
	routingTxPackets        uint64
	macCtlFrames            uint64
	pdr, avgDelay, avgHops  float64
	drops                   map[string]uint64
}{
	"DSR": {
		dataSent:         3927,
		dataDelivered:    3795,
		routingTxPackets: 4788,
		macCtlFrames:     42063,
		pdr:              0.9663865546218487,
		avgDelay:         0.009146865496179183,
		avgHops:          2.8086956521739133,
		drops:            map[string]uint64{"salvage-failed": 132},
	},
	"AODV": {
		dataSent:         3927,
		dataDelivered:    3837,
		routingTxPackets: 6344,
		macCtlFrames:     36148,
		pdr:              0.9770817417876242,
		avgDelay:         0.05005789578707323,
		avgHops:          2.799583007557988,
		drops:            map[string]uint64{"mac-retries": 86, "no-route": 1},
	},
	"CBRP": {
		dataSent:         3927,
		dataDelivered:    3925,
		routingTxPackets: 7251,
		macCtlFrames:     49052,
		pdr:              0.9994907053730583,
		avgDelay:         0.031241149658089173,
		avgHops:          2.907770700636943,
		drops:            map[string]uint64{"salvage-failed": 1},
	},
	"PAODV": {
		dataSent:         3927,
		dataDelivered:    3834,
		routingTxPackets: 9820,
		macCtlFrames:     44146,
		pdr:              0.9763177998472116,
		avgDelay:         0.050517955691705786,
		avgHops:          2.687793427230047,
		drops:            map[string]uint64{"mac-retries": 91, "no-route": 2},
	},
	"DSDV": {
		dataSent:         3927,
		dataDelivered:    3121,
		routingTxPackets: 4969,
		macCtlFrames:     59778,
		pdr:              0.7947542653425006,
		avgDelay:         0.00616956646171099,
		avgHops:          2.583466837552067,
		drops:            map[string]uint64{"mac-retries": 226, "no-route": 261, "ttl-expired": 319},
	},
	"AODV/no-ring": {
		proto:            "AODV",
		tweaks:           core.ProtocolTweaks{AODV: aodv.Config{DisableExpandingRing: true}},
		dataSent:         3927,
		dataDelivered:    3827,
		routingTxPackets: 6954,
		macCtlFrames:     36774,
		pdr:              0.9745352686529157,
		avgDelay:         0.007591841828325059,
		avgHops:          2.8309380715965506,
		drops:            map[string]uint64{"mac-retries": 96, "no-route": 5},
	},
	"DSR/no-nonprop": {
		proto:            "DSR",
		tweaks:           core.ProtocolTweaks{DSR: dsr.Config{DisableNonPropagating: true}},
		dataSent:         3927,
		dataDelivered:    3740,
		routingTxPackets: 21805,
		macCtlFrames:     73571,
		pdr:              0.9523809523809523,
		avgDelay:         0.018190926678877006,
		avgHops:          2.9008021390374332,
		drops:            map[string]uint64{"salvage-failed": 186},
	},
}

// TestSeedParityDefaultStudyRuns is the parity guard for the scenario-model
// refactor: the default study spec (zero-valued mobility/traffic model
// specs → random waypoint + CBR) compiled through the registry path must
// reproduce the pre-refactor runs bit-for-bit.
func TestSeedParityDefaultStudyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("seven 150 s study runs")
	}
	spec := adhocsim.DefaultSpec()
	spec.Duration = 150 * adhocsim.Second
	for name, want := range seedGolden {
		proto := want.proto
		if proto == "" {
			proto = name
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := adhocsim.Run(adhocsim.RunConfig{Spec: spec, Protocol: proto, Seed: 1, Tweaks: want.tweaks})
			if err != nil {
				t.Fatal(err)
			}
			if res.DataSent != want.dataSent || res.DataDelivered != want.dataDelivered {
				t.Errorf("data sent/delivered = %d/%d, want %d/%d",
					res.DataSent, res.DataDelivered, want.dataSent, want.dataDelivered)
			}
			if res.RoutingTxPackets != want.routingTxPackets {
				t.Errorf("routing tx = %d, want %d", res.RoutingTxPackets, want.routingTxPackets)
			}
			if res.MacCtlFrames != want.macCtlFrames {
				t.Errorf("mac ctl frames = %d, want %d", res.MacCtlFrames, want.macCtlFrames)
			}
			if res.PDR != want.pdr {
				t.Errorf("pdr = %v, want %v", res.PDR, want.pdr)
			}
			if res.AvgDelay != want.avgDelay {
				t.Errorf("avg delay = %v, want %v", res.AvgDelay, want.avgDelay)
			}
			if res.AvgHops != want.avgHops {
				t.Errorf("avg hops = %v, want %v", res.AvgHops, want.avgHops)
			}
			if len(res.Drops) != len(want.drops) {
				t.Errorf("drops = %v, want %v", res.Drops, want.drops)
			} else {
				for reason, n := range want.drops {
					if res.Drops[adhocsim.DropReason(reason)] != n {
						t.Errorf("drops[%s] = %d, want %d", reason, res.Drops[adhocsim.DropReason(reason)], n)
					}
				}
			}
		})
	}
}

// TestOnDemandSeedSweepPinned pins the three on-demand protocols beyond
// seed 1, which every other golden uses: one hash per protocol over the
// ResultsJSON bytes of seeds 2..17 on a sparse scene (20 nodes, 30 s) where
// discoveries time out, retry and give up. Captured at cf75444, before the
// shared discovery loop replaced the per-protocol copies.
func TestOnDemandSeedSweepPinned(t *testing.T) {
	spec := adhocsim.DefaultSpec()
	spec.Nodes = 20
	spec.Duration = 30 * adhocsim.Second
	for proto, want := range map[string]string{
		"DSR":  "2d54c1d1b9515f5a35f358605ef08bfe5bf4e865044948412cdf3a5694acd61f",
		"AODV": "760759c76375bee3142219dad6943ae07fb1bbb10b378f23e4e18fe8d7f34188",
		"CBRP": "e9e6f8604aff1846bf32d647b7d485c0e53e8a0158132ff10656a589e40f1c17",
	} {
		t.Run(proto, func(t *testing.T) {
			t.Parallel()
			h := sha256.New()
			for seed := int64(2); seed <= 17; seed++ {
				res, err := adhocsim.Run(adhocsim.RunConfig{Spec: spec, Protocol: proto, Seed: seed})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				b, err := adhocsim.ResultsJSON(res)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(b)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
				t.Errorf("seeds 2..17 hash = %s, want %s", got, want)
			}
		})
	}
}
