package topology

import (
	"flag"
	"reflect"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/logvol"
	"repro/internal/overlay"
)

func fullSpec() *Spec {
	return &Spec{
		DataDir: "/tmp/topo",
		Brokers: []BrokerSpec{
			{
				Name: "phb", Listen: "127.0.0.1:0", Pubends: []uint32{1, 2},
				MaxRetainMillis: 500, SyncPublish: true, PubendSync: "group",
				GroupLingerMillis: 2, GroupCommitMaxBytes: 4096,
				TickMillis: 3, SilenceIntervalTicks: 1000,
				DialTimeoutMillis: 250, LeaveGraceMillis: 50,
				MetaCommitLatencyMillis: 1, ReadBufferQ: 100,
				EventCacheSize: 2048, RelayCacheSize: 8192, PFSSyncEvery: 10,
				PFSImpreciseBucketTicks: 64, Admin: "127.0.0.1:0",
				Tuning: Tuning{Shards: 2, SubShards: 3, CatchupWeight: 128},
			},
			{Name: "mid", Listen: "127.0.0.1:0", Upstream: "phb"},
			{Name: "edge", Listen: "127.0.0.1:0", Upstream: "mid", SHB: true, AllPubends: []uint32{1, 2}},
		},
		Mutations: []Mutation{
			{AtMillis: 100, Op: "kill", Broker: "mid"},
			{AtMillis: 200, Op: "reparent", Broker: "edge", Upstream: "phb"},
			{AtMillis: 300, Op: "restart", Broker: "mid"},
			{AtMillis: 400, Op: "detach", Broker: "mid"},
			{AtMillis: 500, Op: "add", Spec: &BrokerSpec{Name: "late", Listen: "127.0.0.1:0", Upstream: "phb"}},
		},
	}
}

// The spec must survive Marshal → Parse unchanged: every field the JSON
// surface claims to carry is actually carried.
func TestSpecRoundTrip(t *testing.T) {
	in := fullSpec()
	raw, err := in.Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	out, err := Parse(raw)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	in.Version = Version // Marshal stamps it
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"future version": `{"version": 99, "brokers": [{"name": "a", "listen": ":0"}]}`,
		"unknown field":  `{"brokers": [{"name": "a", "listen": ":0", "sahrds": 4}]}`,
		"no brokers":     `{"brokers": []}`,
		"dup name":       `{"brokers": [{"name": "a", "listen": ":0"}, {"name": "a", "listen": ":0"}]}`,
		"shb sans all":   `{"brokers": [{"name": "a", "listen": ":0", "shb": true}]}`,
		"bad sync":       `{"brokers": [{"name": "a", "listen": ":0", "pubendSync": "never"}]}`,
		"bad mutation":   `{"brokers": [{"name": "a", "listen": ":0"}], "mutations": [{"op": "explode"}]}`,
		"unknown target": `{"brokers": [{"name": "a", "listen": ":0"}], "mutations": [{"op": "kill", "broker": "b"}]}`,
		"add sans spec":  `{"brokers": [{"name": "a", "listen": ":0"}], "mutations": [{"op": "add"}]}`,
	}
	for name, raw := range cases {
		if _, err := Parse([]byte(raw)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Version 0 (bare hand-written files) reads as the current version.
	s, err := Parse([]byte(`{"brokers": [{"name": "a", "listen": ":0"}]}`))
	if err != nil {
		t.Fatalf("version 0: %v", err)
	}
	if s.Version != Version {
		t.Fatalf("version 0 normalized to %d, want %d", s.Version, Version)
	}
}

func TestBrokerConfig(t *testing.T) {
	tr := overlay.NewInprocNetwork(0)
	cfg, err := fullSpec().Brokers[0].BrokerConfig("/tmp/topo", tr)
	if err != nil {
		t.Fatalf("BrokerConfig: %v", err)
	}
	if cfg.DataDir != "/tmp/topo/phb" {
		t.Errorf("DataDir = %q", cfg.DataDir)
	}
	if cfg.TickInterval != 3*time.Millisecond || cfg.DialTimeout != 250*time.Millisecond ||
		cfg.LeaveGrace != 50*time.Millisecond || cfg.GroupCommitMaxDelay != 2*time.Millisecond {
		t.Errorf("durations: %+v", cfg)
	}
	if cfg.PubendSync != logvol.SyncGroup {
		t.Errorf("PubendSync = %v", cfg.PubendSync)
	}
	if len(cfg.HostedPubends) != 2 || !cfg.HostedPubends[0].SyncEveryPublish || cfg.HostedPubends[0].Policy == nil {
		t.Errorf("HostedPubends = %+v", cfg.HostedPubends)
	}
	if cfg.Shards != 2 || cfg.SubShards != 3 || cfg.CatchupWeight != 128 {
		t.Errorf("tuning: %+v", cfg)
	}
}

func TestFlagsSpec(t *testing.T) {
	fs := flag.NewFlagSet("broker", flag.ContinueOnError)
	f := RegisterFlags(fs)
	err := fs.Parse([]string{
		"-name", "edge1", "-listen", ":7071", "-upstream", "phb:7070",
		"-shb", "-all-pubends", "1, 2", "-tick", "2ms", "-max-retain", "1s",
		"-pubend-sync", "group", "-group-linger", "3ms", "-shards", "4",
		"-dial-timeout", "500ms", "-leave-grace", "100ms",
	})
	if err != nil {
		t.Fatalf("parse flags: %v", err)
	}
	spec, err := f.Spec()
	if err != nil {
		t.Fatalf("Spec: %v", err)
	}
	want := BrokerSpec{
		Name: "edge1", Listen: ":7071", Upstream: "phb:7070",
		SHB: true, AllPubends: []uint32{1, 2},
		MaxRetainMillis: 1000, PubendSync: "group", GroupLingerMillis: 3,
		TickMillis: 2, DialTimeoutMillis: 500, LeaveGraceMillis: 100,
		Tuning: Tuning{Shards: 4},
	}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("spec mismatch:\n got: %+v\nwant: %+v", spec, want)
	}
}

// TestSpecCoversBrokerConfig is the spec lint: every broker.Config field
// must have an entry in ConfigFieldMap (a new Config knob cannot ship
// without deciding its spec surface), and the map must not name fields
// Config no longer has.
func TestSpecCoversBrokerConfig(t *testing.T) {
	cfgT := reflect.TypeOf(broker.Config{})
	fields := make(map[string]bool, cfgT.NumField())
	for i := 0; i < cfgT.NumField(); i++ {
		name := cfgT.Field(i).Name
		fields[name] = true
		if _, ok := ConfigFieldMap[name]; !ok {
			t.Errorf("broker.Config.%s has no topology.Spec mapping — add the field to BrokerSpec (or mark it \"(runtime)\") and record it in ConfigFieldMap", name)
		}
	}
	for name := range ConfigFieldMap {
		if !fields[name] {
			t.Errorf("ConfigFieldMap names %q, which broker.Config no longer has — delete the stale entry", name)
		}
	}
	// Every non-runtime mapping must correspond to a real JSON key of the
	// spec surface, so the map cannot rot into prose.
	keys := map[string]bool{"name": true} // Spec-level dataDir handled below
	collect := func(t reflect.Type) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Anonymous {
				continue
			}
			tag := f.Tag.Get("json")
			if comma := len(tag); comma > 0 {
				for j, r := range tag {
					if r == ',' {
						comma = j
						break
					}
				}
				keys[tag[:comma]] = true
			}
		}
	}
	collect(reflect.TypeOf(BrokerSpec{}))
	collect(reflect.TypeOf(Tuning{}))
	collect(reflect.TypeOf(Spec{}))
	for field, surface := range ConfigFieldMap {
		if surface == "(runtime)" {
			continue
		}
		for _, part := range splitSurface(surface) {
			if !keys[part] {
				t.Errorf("ConfigFieldMap[%q] references %q, which is not a JSON key of the spec", field, part)
			}
		}
	}
}

// splitSurface extracts the JSON key tokens of a ConfigFieldMap value
// (e.g. "dataDir (Spec) + name" → ["dataDir", "name"]).
func splitSurface(s string) []string {
	var out []string
	cur := ""
	flush := func() {
		if cur != "" && cur != "(Spec)" && cur != "+" {
			out = append(out, cur)
		}
		cur = ""
	}
	for _, r := range s {
		if r == ' ' {
			flush()
			continue
		}
		cur += string(r)
	}
	flush()
	return out
}
