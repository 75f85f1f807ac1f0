package hermes

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// staticFailureCases covers every static FailureKind, with a random (-1)
// and a fixed spine where the kind takes one.
var staticFailureCases = []struct {
	name string
	spec FailureSpec
}{
	{"random-drop spine=-1", FailureSpec{Kind: FailureRandomDrop, Spine: -1}},
	{"random-drop spine=1", FailureSpec{Kind: FailureRandomDrop, Spine: 1, DropRate: 0.05}},
	{"blackhole spine=-1", FailureSpec{Kind: FailureBlackhole, Spine: -1}},
	{"blackhole spine=0", FailureSpec{Kind: FailureBlackhole, Spine: 0}},
	{"spine-blackhole spine=-1", FailureSpec{Kind: FailureSpineBlackhole, Spine: -1}},
	{"spine-blackhole spine=1", FailureSpec{Kind: FailureSpineBlackhole, Spine: 1}},
	{"degrade", FailureSpec{Kind: FailureDegrade, Fraction: 0.5, DegradedBps: 5e8}},
	{"cut-link", FailureSpec{Kind: FailureCutLink, CutLeaf: 1, CutSpine: 0}},
	{"cut-cable", FailureSpec{Kind: FailureCutCable, CutLeaf: 0, CutSpine: 1, CutCable: 1}},
	{"degrade-link", FailureSpec{Kind: FailureDegradeLink, CutLeaf: 0, CutSpine: 1, DegradedBps: 2e8}},
	{"degrade-spine spine=-1", FailureSpec{Kind: FailureDegradeSpine, Spine: -1}},
	{"degrade-spine spine=1", FailureSpec{Kind: FailureDegradeSpine, Spine: 1, DegradedBps: 5e8}},
}

// staticFailureDigests pins SHA-256(json.Marshal(*Result)) of each static
// failure on the testbed (seed 5, 30 web-search flows at load 0.5). They
// were recorded when static failures had injection code of their own, so
// they pin that applying the chaos injector once, before balancer
// construction, changes no byte. CONGA is in the set because it reads
// fabric rates when it is built.
var staticFailureDigests = map[string]string{
	"ecmp/random-drop spine=-1":       "28a3a50df88878704627151b95426bc338aee4026dde82b6a1e399618f960c51",
	"ecmp/random-drop spine=1":        "632778f2616585379bfe8a585ca064de163ab70a9ed4133b7419802e08c55719",
	"ecmp/blackhole spine=-1":         "a62028747374e3a95e6603a2cf5dec1d8706fc209a5342c1d4ccdccc0974ce1b",
	"ecmp/blackhole spine=0":          "2bf679545d1fef86a25967246b71e7729f8c6ac4aae7236d6804059af0981ecc",
	"ecmp/spine-blackhole spine=-1":   "26b629ee121dd441dc18fe586f8731bd51889b3fb589a27ef45f99d435c13a29",
	"ecmp/spine-blackhole spine=1":    "b7adc13462cc612c5674656458c3e829578d61a036b6dd4ca330017c4296964e",
	"ecmp/degrade":                    "f7481b36e896832a6ef768ebcb72dfb588587d85ba0e0ae5e0ccf2ea0be7cd82",
	"ecmp/cut-link":                   "d1805cc7dd7f3ef749ab682234c51a25780b481ee6fc39ed2457db56f14e4363",
	"ecmp/cut-cable":                  "06734d61bc0b0a0703f43707cb7db88713a3e2905e74c9014050e65b10a19626",
	"ecmp/degrade-link":               "98fd5b7e30b915f903f204b25965637c2a4738b313541808c088e67310527bce",
	"ecmp/degrade-spine spine=-1":     "16855aef042b112278ccde88556d318321f262d5b03e67d9b29ba4f4bb078860",
	"ecmp/degrade-spine spine=1":      "7caf3bf51589586a5524098fa1dc58de4b7653eadda46758bd87d633bc52df2b",
	"hermes/random-drop spine=-1":     "963b6de201e50dcc614c3350ccc9fa1d432327501895f2fd6f1fab306a463021",
	"hermes/random-drop spine=1":      "a1bca8dbc5750b55b69d1c71fdcaca7b7977599422f1a52c7a2e303018b165ac",
	"hermes/blackhole spine=-1":       "83bc40d281382697449130b0266985147e43d204cf824349c1541f5b985e74ca",
	"hermes/blackhole spine=0":        "563b9f6e5e25906b35c5256ad80cae568b8a44eaef5cd98fef28170e15e72166",
	"hermes/spine-blackhole spine=-1": "83bc40d281382697449130b0266985147e43d204cf824349c1541f5b985e74ca",
	"hermes/spine-blackhole spine=1":  "6ca6005d1cda2b2c779ce1765db293d927b3c3c2d93558f52fd4eae74eab1e6b",
	"hermes/degrade":                  "d8de84568d8cadf27d459e054a4c93ab76f4487ff525cdc13671f1270083bf7e",
	"hermes/cut-link":                 "6fa5beaabac034589371b864bcc94f867f1edb887586cf9e20fb4f5db23aa946",
	"hermes/cut-cable":                "2ec20b7e633f18bd389cec68013c41fc3ed11836cb1e09b0e3de01f1b460fc7c",
	"hermes/degrade-link":             "653e3b80722e091c071af4c2b3e00fdf58b39927e13d1f7ac3e6355e6e14c86c",
	"hermes/degrade-spine spine=-1":   "9f5ae8ef3522b5c9a93ec6163342f25acf2ee5f72142bfa5301ab16e2748a127",
	"hermes/degrade-spine spine=1":    "935673981adb61dfd43c6798af2eb95480c479bce88c8dd2f73fb4deef77e586",
	"conga/random-drop spine=-1":      "937040392f4a2bf4574d62b8dfc77442f65a6c27b5f4f5e8b7f94f9d2eb844eb",
	"conga/random-drop spine=1":       "323e4aaca4cd33b1e3db8b51b46ebd670b53276221fbe519dfc39148ce1b0f00",
	"conga/blackhole spine=-1":        "c0efcebc70730fe87569cbe94778c366312b518a7f02136e01aaf8b3bea58d7e",
	"conga/blackhole spine=0":         "8001e299a93efff5bb900fdc153691ae3bd9c9ab98a750ef40e8f2ead74d6831",
	"conga/spine-blackhole spine=-1":  "56f2d544c55ddfcd927ca1c01ad0dbeb7b71230655d922f1eed9fa78c428c819",
	"conga/spine-blackhole spine=1":   "0d58cb679f4bee0d94b25ca4cb6be0a749ed15effecf14e72e80b86ff2a98751",
	"conga/degrade":                   "b4328e90d72e5e5c1186cf1a50c940587eb6177c0449302c4ef4e5763c5172cc",
	"conga/cut-link":                  "3ae7d67adb5944f326df32a98734a7dea37e628f810da1d5212782da4416a2f4",
	"conga/cut-cable":                 "9a85539bcca467ace2c93e28cc8d7d42d238d9f837257c296876583212aebeeb",
	"conga/degrade-link":              "2faad688509b0ae2c84120cff42363ff4d8378ff8d7fa0322cbf89e0e2d29cd3",
	"conga/degrade-spine spine=-1":    "da7e71c7d90218b12d8fe294d291f997547d55fc24be0f41e3fdef7711155a2d",
	"conga/degrade-spine spine=1":     "28c4ff9279bcfd90651a766e5e6c7692207a4b0a99da29998a92b800f3b3cf6a",
}

func TestStaticFailureByteIdentity(t *testing.T) {
	schemes := []Scheme{SchemeECMP, SchemeHermes, SchemeCONGA}
	for i, tc := range staticFailureCases {
		for j, scheme := range schemes {
			// -short runs each failure once, rotating through the schemes.
			if testing.Short() && j != i%len(schemes) {
				continue
			}
			key := fmt.Sprintf("%s/%s", scheme, tc.name)
			res := mustRun(t, Config{
				Topology: TestbedTopology(), Scheme: scheme,
				Workload: "web-search", Load: 0.5, Flows: 30, Seed: 5,
				Failure: tc.spec,
			})
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != staticFailureDigests[key] {
				t.Errorf("%s: result digest %s, want %s", key, got, staticFailureDigests[key])
			}
		}
	}
}

// TestDegradeLinkDefaultRate: a degrade-link without DegradedBps halves
// every cable of the link, and the static Config.Failure and a t=0 scenario
// event leave the same cable rates. The default must be per cable: half
// the link's summed rate, set on each of two cables, leaves the link intact.
func TestDegradeLinkDefaultRate(t *testing.T) {
	topo := TestbedTopology()
	spec := FailureSpec{Kind: FailureDegradeLink, CutLeaf: 0, CutSpine: 1}
	cableRates := func(cfg Config) []int64 {
		t.Helper()
		r := &run{cfg: cfg}
		if err := r.validate(); err != nil {
			t.Fatal(err)
		}
		if err := r.setup(); err != nil {
			t.Fatal(err)
		}
		r.eng.Run(0) // fire the t=0 scenario event, if any
		var out []int64
		for c := 0; c < r.nw.Cables(); c++ {
			out = append(out, r.nw.CableRate(spec.CutLeaf, spec.CutSpine, c))
		}
		return out
	}
	base := Config{Topology: topo, Scheme: SchemeECMP, Workload: "web-search",
		Load: 0.5, Flows: 10, Seed: 3}
	static := base
	static.Failure = spec
	scenario := base
	scenario.Scenario = &Scenario{Name: "degrade-at-0", Events: []ScenarioEvent{
		{AtNs: 0, Name: "degrade", Failure: spec}}}

	got, want := cableRates(static), cableRates(scenario)
	if len(got) != topo.CablesPerLink {
		t.Fatalf("%d cables, want %d", len(got), topo.CablesPerLink)
	}
	for c := range got {
		if got[c] != want[c] {
			t.Errorf("cable %d: static rate %d, t=0 scenario rate %d", c, got[c], want[c])
		}
		if got[c] != topo.FabricRateBps/2 {
			t.Errorf("cable %d: rate %d, want half the intact %d", c, got[c], topo.FabricRateBps)
		}
	}
}

// TestFlapCutsBusyPort pins the mid-run cut of a link whose port is still
// transmitting with packets queued behind: the queue drains as down-link
// drops (it used to divide by the cut link's zero rate) and the
// conservation ledger stays clean.
func TestFlapCutsBusyPort(t *testing.T) {
	res := mustRun(t, Config{
		Topology: TestbedTopology(), Scheme: SchemeECMP,
		Workload: "web-search", Load: 0.5, Flows: 30, Seed: 5,
		Failure: FailureSpec{Kind: FailureFlap, CutLeaf: 0, CutSpine: 1, FlapPeriodNs: 20e6},
		Checks:  true,
	})
	if res.FCT.Overall.Count == 0 {
		t.Fatal("no flow completed under the flap")
	}
}
