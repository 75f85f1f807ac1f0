package hermes

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// obsDigests is the SHA-256 of each observability sink of one run: the
// report JSON, the flight recorder JSONL and CSV, and the alert log ("" when
// the run arms no alerts).
type obsDigests struct {
	Report, FlightJSONL, FlightCSV, Alerts string
}

// obsPinned pins every observability sink byte for byte. RepFlow's series and
// the fork paths are pinned by no golden file, so any change to a sampled
// name, value, cadence or engine sequence shows up here first.
var obsPinned = map[string]obsDigests{
	"hermes": {
		Report:      "c6bab7251920468aa257504c666ac4b0021d76022a128bfe91f13e90388387d5",
		FlightJSONL: "b2b36e75e9ec0f28adf2f639e3eeb30d4f1048d5a6cb41b8793680b27a232c9f",
		FlightCSV:   "524ee00667d7eebc32140337a87095ccf9daf765d18edaceec6495655d7b6e76",
		Alerts:      "9f3d0686048fe742854a2b9fa98120d00980bdc31f1a9fd8999d9af9a0ac2ea7",
	},
	"reps": {
		Report:      "f2ccc45ec0960562a8be58df5366bffe4315e00ae47f2b07f11a137bcc5b0ab6",
		FlightJSONL: "8175fb4abf80c1f32ef3f1951fce00b1451248d8caa6edb7fb6958be3368e9fd",
		FlightCSV:   "2c5bbe0d363f367f92e6ba45e704942ff997c3d68ee4e55f2369d877aed7d8b0",
		Alerts:      "9c87175d0bc45e387a55e610ce3a3f4363d236119533648dece9fab9f8180aad",
	},
	"repflow": {
		Report:      "b8f374dc5ab2e2351393d1ef6721e526e61f2440542c25b88347bf77552b3511",
		FlightJSONL: "cbdadaa13826275b80ac36162aaa1a21489db43ba6293190f9d40b39b1606b99",
		FlightCSV:   "d41664c0ab159a44119f09c6a466b020170fb8821a7f4acad99a00a34a1e9afa",
		Alerts:      "263005a659e8dd4d26c65fea3fe77ffeb08578ba83dd1baea7cd8c208a284824",
	},
	"fork-hermes": {
		Report:      "688eddaf0a94a2c4d03fac8a06b3b5464278945d7307c703d7ed42657b5a0f05",
		FlightJSONL: "75c6f624ca4d1255f50613cf37cc5df96a8528e65e1ec049359ab4b476decaae",
		FlightCSV:   "4a052fb79e395def6f83413a2d2c20683d93ce815bb13b3b128a4bc1a1dd0ee7",
		Alerts:      "",
	},
	"fork-reps": {
		Report:      "15477c4b35002f9da3f45bd01a9ba17cc5204461b1c082e6bae9343230cb5e51",
		FlightJSONL: "1d722dc7a14f8a6da9ec2eb492f482f0fa8a7f8b6209dbf092894ea6b731ae77",
		FlightCSV:   "7b8c4a54ae3ec25c1b820618f6dccb28cf30d1620b1e5b1fb795e56f053c9a9a",
		Alerts:      "",
	},
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// obsConfig is the chaos testbed under the builtin spine-blackhole scenario
// with every observability sink armed: report telemetry, flight recorder and
// the builtin alert pack.
func obsConfig(t *testing.T, scheme Scheme) Config {
	t.Helper()
	sc, err := BuiltinScenario("spine-blackhole", chaosTopo())
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(scheme, sc)
	cfg.Flows = 40
	cfg.Telemetry = true
	cfg.TimeSeries = true
	cfg.Alerts = &AlertsConfig{Builtin: true}
	return cfg
}

func digestRun(t *testing.T, label string, cfg Config, res *Result) obsDigests {
	t.Helper()
	var d obsDigests
	rep, err := BuildReport(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	d.Report = sha(buf.Bytes())
	buf.Reset()
	if err := res.TimeSeries.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	d.FlightJSONL = sha(buf.Bytes())
	buf.Reset()
	if err := res.TimeSeries.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	d.FlightCSV = sha(buf.Bytes())
	if res.Alerts != nil {
		buf.Reset()
		if err := WriteAlertLog(&buf, label, res.Alerts); err != nil {
			t.Fatal(err)
		}
		d.Alerts = sha(buf.Bytes())
	}
	return d
}

// TestObservabilityDigests pins the bytes every observability sink emits for
// hermes, reps and repflow under a spine blackhole, and for what-if forks
// that graft the blackhole onto a healthy checkpointed Hermes run. The
// scenario-only fork exercises the late-attached flight recorder: it is
// created at setup but hooked up to the scheme and started only at the fork
// instant. -short runs the hermes and fork-hermes cases.
func TestObservabilityDigests(t *testing.T) {
	check := func(name string, got obsDigests) {
		t.Helper()
		if want := obsPinned[name]; got != want {
			t.Errorf("%s digests changed:\n got %+v\nwant %+v", name, got, want)
		}
	}
	for _, s := range []Scheme{SchemeHermes, SchemeREPS, SchemeRepFlow} {
		name := string(s)
		t.Run(name, func(t *testing.T) {
			if testing.Short() && s != SchemeHermes {
				t.Skip("short mode pins hermes only")
			}
			cfg := obsConfig(t, s)
			check(name, digestRun(t, name, cfg, mustRun(t, cfg)))
		})
	}

	t.Run("fork", func(t *testing.T) {
		dir := t.TempDir()
		base := chaosConfig(SchemeHermes, nil)
		base.Flows = 40
		base.Telemetry = true
		base.Checks = true
		base.Checkpoint = &CheckpointConfig{Dir: dir, AtNs: []int64{19e6}}
		if _, err := Run(base); err != nil {
			t.Fatal(err)
		}
		sc, err := BuiltinScenario("spine-blackhole", chaosTopo())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Scheme{SchemeHermes, SchemeREPS} {
			if testing.Short() && s != SchemeHermes {
				continue
			}
			opts := ForkOptions{Scenario: sc}
			if s != base.Scheme {
				opts.Scheme = s
			}
			res, err := Fork(dir, opts)
			if err != nil {
				t.Fatalf("fork into %s: %v", s, err)
			}
			if res.TimeSeries.Series("transport.flows_active") == nil || res.Telemetry == nil {
				t.Fatalf("fork into %s: flight recorder or telemetry missing", s)
			}
			if s == SchemeHermes && res.TimeSeries.Series("hermes.reroutes_total") == nil {
				t.Fatal("scenario-only fork did not attach the scheme's flight series")
			}
			// The report embeds its config; drop the per-test temp dir.
			repCfg := base
			repCfg.Checkpoint = nil
			name := "fork-" + string(s)
			check(name, digestRun(t, name, repCfg, res))
		}
	})
}
