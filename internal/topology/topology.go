// Package topology is the single configuration surface for broker trees:
// one spec type consumed by cmd/broker (flags), cmd/cluster (JSON file +
// timed mutations), and the experiment harness. Before this package the
// three surfaces drifted independently — every new broker knob had to be
// added to the root facade config, the cluster JSON schema, and the
// per-knob flags by hand, and each grew its own defaults. Now broker.Config
// is produced in exactly one place (BrokerSpec.BrokerConfig), and the
// mapping from every Config field to its spec surface is recorded in
// ConfigFieldMap and enforced by a reflection test, so an unmapped field
// fails CI instead of silently diverging.
//
// The spec is versioned: Version 1 is the current schema (0 is accepted as
// 1 for bare hand-written files); unknown versions and unknown JSON fields
// are rejected, so typos fail loudly.
package topology

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/broker"
	"repro/internal/logvol"
	"repro/internal/overlay"
	"repro/internal/pubend"
	"repro/internal/vtime"
)

// Version is the current spec schema version.
const Version = 1

// Tuning is the performance-knob subset shared by every consumer: the
// experiment harness embeds it directly (instead of mirroring each field),
// and BrokerSpec embeds it for the JSON/flag surfaces.
type Tuning struct {
	// Shards is the broker event-loop shard count (0 = GOMAXPROCS,
	// 1 = the serialized single-loop broker).
	Shards int `json:"shards,omitempty"`
	// SubShards is the SHB subscriber shard count (0 = engine default
	// min(GOMAXPROCS, 8), 1 = the single-lock engine).
	SubShards int `json:"subShards,omitempty"`
	// CatchupWeight is the catchup scheduler quantum: events one catchup
	// stream may deliver per round before yielding to live traffic
	// (0 = engine default 256).
	CatchupWeight int `json:"catchupWeight,omitempty"`
}

// Apply copies the tuning knobs onto a broker config.
func (t Tuning) Apply(cfg *broker.Config) {
	cfg.Shards = t.Shards
	cfg.SubShards = t.SubShards
	cfg.CatchupWeight = t.CatchupWeight
}

// BrokerSpec describes one broker of a topology. Its zero value plus Name
// and Listen is a valid relay; timing knobs are integers in the unit their
// name states (JSON has no duration type).
type BrokerSpec struct {
	// Name identifies the broker (required, unique within a Spec); it is
	// also the broker's data subdirectory and, on the in-process
	// transport, its listen address.
	Name string `json:"name"`
	// Listen is the bind address (required; "127.0.0.1:0" for an
	// ephemeral TCP port, the broker name under the in-process transport).
	Listen string `json:"listen"`
	// Upstream is the parent: another broker's Name (resolved to its
	// bound address by the cluster driver) or a literal dial address.
	// Empty means root.
	Upstream string `json:"upstream,omitempty"`
	// Pubends are hosted pubend IDs (PHB role).
	Pubends []uint32 `json:"pubends,omitempty"`
	// SHB hosts durable subscribers; requires AllPubends.
	SHB bool `json:"shb,omitempty"`
	// AllPubends is the system-wide pubend ID set (required with SHB).
	AllPubends []uint32 `json:"allPubends,omitempty"`
	// MaxRetainMillis enables the early-release policy on hosted pubends
	// (virtual milliseconds; 0 = retain until released).
	MaxRetainMillis int64 `json:"maxRetainMillis,omitempty"`
	// SyncPublish fsyncs the event log on every publish.
	SyncPublish bool `json:"syncPublish,omitempty"`
	// PubendSync is the event-log durability policy: "" or "explicit",
	// "group" (batch concurrent publishes under one fsync), "always".
	PubendSync string `json:"pubendSync,omitempty"`
	// GroupLingerMillis is the group-commit linger window.
	GroupLingerMillis int64 `json:"groupLingerMillis,omitempty"`
	// GroupCommitMaxBytes caps payload bytes per group-commit batch.
	GroupCommitMaxBytes int `json:"groupCommitMaxBytes,omitempty"`
	// TickMillis overrides the housekeeping interval.
	TickMillis int64 `json:"tickMillis,omitempty"`
	// SilenceIntervalTicks is the SHB silence cadence in virtual ticks.
	SilenceIntervalTicks int64 `json:"silenceIntervalTicks,omitempty"`
	// DialTimeoutMillis bounds upstream dials (0 = unbounded).
	DialTimeoutMillis int64 `json:"dialTimeoutMillis,omitempty"`
	// LeaveGraceMillis is how long a parent retains a deliberately
	// departed child's soft state (0 = broker default 250ms).
	LeaveGraceMillis int64 `json:"leaveGraceMillis,omitempty"`
	// MetaCommitLatencyMillis models the SHB database commit cost.
	MetaCommitLatencyMillis int64 `json:"metaCommitLatencyMillis,omitempty"`
	// ReadBufferQ is the SHB PFS read buffer (0 = engine default).
	ReadBufferQ int `json:"readBufferQ,omitempty"`
	// EventCacheSize is the SHB engine event cache (0 = engine default).
	EventCacheSize int `json:"eventCacheSize,omitempty"`
	// RelayCacheSize bounds intermediate relay caches (0 = 65536).
	RelayCacheSize int `json:"relayCacheSize,omitempty"`
	// PFSSyncEvery syncs the PFS every N writes (0 = engine default).
	PFSSyncEvery int `json:"pfsSyncEvery,omitempty"`
	// PFSImpreciseBucketTicks enables the PFS imprecise mode (0 =
	// precise).
	PFSImpreciseBucketTicks int64 `json:"pfsImpreciseBucketTicks,omitempty"`
	// Admin is the admin HTTP address for /metrics, /healthz,
	// /debug/pprof ("" = disabled).
	Admin string `json:"admin,omitempty"`
	// Parents are candidate parents for automatic fail-over, in
	// preference order: broker Names (resolved to bound addresses by the
	// cluster driver) or literal dial addresses. Requires Upstream.
	Parents []string `json:"parents,omitempty"`
	// FailoverAfterMillis arms automatic fail-over: how long the upstream
	// link must stay down before a candidate parent is adopted (0 =
	// disabled).
	FailoverAfterMillis int64 `json:"failoverAfterMillis,omitempty"`
	// FailoverHolddownMillis is the minimum spacing between automatic
	// re-parents (0 = 4× failoverAfterMillis).
	FailoverHolddownMillis int64 `json:"failoverHolddownMillis,omitempty"`
	// PreferPrimary returns the broker to its declared upstream when that
	// parent comes back after a fail-over.
	PreferPrimary bool `json:"preferPrimary,omitempty"`
	// FailoverSeed seeds the fail-over jitter deterministically (0 =
	// derived from the broker name).
	FailoverSeed int64 `json:"failoverSeed,omitempty"`

	Tuning
}

// Mutation is one timed topology change applied by the cluster driver
// (tentpole: runtime membership). Ops:
//
//   - "add": start Spec (required) at AtMillis; Upstream on the spec may
//     name a running broker.
//   - "kill": Crash the named Broker (persistent state survives).
//     Permanent marks the kill as final: the broker may not be
//     restarted later in the schedule, so its subtree must repair
//     around it for good.
//   - "restart": start the named Broker again from its original spec and
//     data directory.
//   - "reparent": SetUpstream the named Broker to Upstream (a broker name
//     or a literal address).
//   - "detach": DetachUpstream the named Broker (it becomes a root).
type Mutation struct {
	// AtMillis is when the mutation fires, relative to driver start.
	AtMillis int64 `json:"atMillis"`
	// Op is the mutation kind (see above).
	Op string `json:"op"`
	// Broker names the target (all ops except add).
	Broker string `json:"broker,omitempty"`
	// Upstream is the new parent for reparent (broker name or address).
	Upstream string `json:"upstream,omitempty"`
	// Spec is the broker to start (add only).
	Spec *BrokerSpec `json:"spec,omitempty"`
	// Permanent marks a kill as non-restartable (kill only): the
	// schedule may never restart this broker afterwards.
	Permanent bool `json:"permanent,omitempty"`
}

// Spec is a whole topology: brokers in start order (parents first) plus
// optional timed mutations.
type Spec struct {
	// Version is the schema version (0 is read as 1).
	Version int `json:"version,omitempty"`
	// DataDir is the root data directory; each broker uses DataDir/Name.
	DataDir string `json:"dataDir,omitempty"`
	// Brokers start in order.
	Brokers []BrokerSpec `json:"brokers"`
	// Mutations are applied by the cluster driver after startup.
	Mutations []Mutation `json:"mutations,omitempty"`
}

// Parse decodes and validates a spec. Unknown fields and unknown versions
// are errors.
func Parse(raw []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("topology: parse: %w", err)
	}
	if s.Version == 0 {
		s.Version = Version
	}
	if s.Version != Version {
		return nil, fmt.Errorf("topology: unsupported spec version %d (this build reads %d)", s.Version, Version)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Marshal encodes the spec (always stamping the current version).
func (s *Spec) Marshal() ([]byte, error) {
	cp := *s
	cp.Version = Version
	return json.MarshalIndent(&cp, "", "  ")
}

// Validate checks cross-field invariants.
func (s *Spec) Validate() error {
	if len(s.Brokers) == 0 {
		return fmt.Errorf("topology: no brokers")
	}
	names := make(map[string]bool, len(s.Brokers))
	for i := range s.Brokers {
		bs := &s.Brokers[i]
		if err := bs.validate(); err != nil {
			return err
		}
		if names[bs.Name] {
			return fmt.Errorf("topology: duplicate broker name %q", bs.Name)
		}
		names[bs.Name] = true
	}
	// Candidate parents may name brokers that an "add" mutation brings up
	// later, so collect every declared name before cross-checking.
	allNames := make(map[string]bool, len(names))
	for n := range names {
		allNames[n] = true
	}
	for _, m := range s.Mutations {
		if m.Op == "add" && m.Spec != nil && m.Spec.Name != "" {
			allNames[m.Spec.Name] = true
		}
	}
	for i := range s.Brokers {
		if err := s.Brokers[i].validateParents(allNames); err != nil {
			return err
		}
	}
	dead := make(map[string]bool) // permanently killed so far in schedule order
	for i, m := range s.Mutations {
		switch m.Op {
		case "add":
			if m.Spec == nil {
				return fmt.Errorf("topology: mutation %d: add needs a spec", i)
			}
			if err := m.Spec.validate(); err != nil {
				return fmt.Errorf("topology: mutation %d: %w", i, err)
			}
			if names[m.Spec.Name] {
				return fmt.Errorf("topology: mutation %d: add reuses broker name %q", i, m.Spec.Name)
			}
			names[m.Spec.Name] = true
			if err := m.Spec.validateParents(allNames); err != nil {
				return fmt.Errorf("topology: mutation %d: %w", i, err)
			}
		case "kill":
			if !names[m.Broker] {
				return fmt.Errorf("topology: mutation %d: kill targets unknown broker %q", i, m.Broker)
			}
			if m.Permanent {
				dead[m.Broker] = true
			}
		case "restart":
			if !names[m.Broker] {
				return fmt.Errorf("topology: mutation %d: restart targets unknown broker %q", i, m.Broker)
			}
			if dead[m.Broker] {
				return fmt.Errorf("topology: mutation %d: restart of %q after a permanent kill", i, m.Broker)
			}
		case "detach":
			if !names[m.Broker] {
				return fmt.Errorf("topology: mutation %d: %s targets unknown broker %q", i, m.Op, m.Broker)
			}
		case "reparent":
			if !names[m.Broker] {
				return fmt.Errorf("topology: mutation %d: reparent targets unknown broker %q", i, m.Broker)
			}
			if m.Upstream == "" {
				return fmt.Errorf("topology: mutation %d: reparent needs an upstream", i)
			}
		default:
			return fmt.Errorf("topology: mutation %d: unknown op %q", i, m.Op)
		}
		if m.Permanent && m.Op != "kill" {
			return fmt.Errorf("topology: mutation %d: permanent is only valid on kill", i)
		}
	}
	return nil
}

func (bs *BrokerSpec) validate() error {
	if bs.Name == "" || bs.Listen == "" {
		return fmt.Errorf("topology: broker name and listen are required")
	}
	if bs.SHB && len(bs.AllPubends) == 0 {
		return fmt.Errorf("topology: broker %q: shb requires allPubends", bs.Name)
	}
	if _, err := syncPolicy(bs.PubendSync); err != nil {
		return fmt.Errorf("topology: broker %q: %w", bs.Name, err)
	}
	if len(bs.Parents) > 0 && bs.Upstream == "" {
		return fmt.Errorf("topology: broker %q: parents require an upstream (a root has nothing to fail over from)", bs.Name)
	}
	return nil
}

// validateParents cross-checks the candidate-parent list against the set
// of every declared broker name (initial brokers plus add mutations).
// Entries containing ":" are literal dial addresses and pass through, the
// same convention the cluster driver uses to resolve Upstream.
func (bs *BrokerSpec) validateParents(declared map[string]bool) error {
	for _, p := range bs.Parents {
		if p == bs.Name {
			return fmt.Errorf("topology: broker %q: parents lists the broker itself", bs.Name)
		}
		if !strings.Contains(p, ":") && !declared[p] {
			return fmt.Errorf("topology: broker %q: parent candidate %q is not a declared broker", bs.Name, p)
		}
	}
	return nil
}

func syncPolicy(s string) (logvol.SyncPolicy, error) {
	switch s {
	case "", "explicit":
		return logvol.SyncExplicit, nil
	case "group":
		return logvol.SyncGroup, nil
	case "always":
		return logvol.SyncAlways, nil
	default:
		return 0, fmt.Errorf("unknown pubendSync policy %q (want explicit, group, or always)", s)
	}
}

// BrokerConfig materializes the runtime config: everything declarative
// comes from the spec; the transport (and through it the network) is the
// caller's. The broker's data directory is dataDir/Name.
func (bs BrokerSpec) BrokerConfig(dataDir string, t overlay.Transport) (broker.Config, error) {
	if err := bs.validate(); err != nil {
		return broker.Config{}, err
	}
	policy, err := syncPolicy(bs.PubendSync)
	if err != nil {
		return broker.Config{}, err
	}
	cfg := broker.Config{
		Name:                bs.Name,
		Transport:           t,
		ListenAddr:          bs.Listen,
		UpstreamAddr:        bs.Upstream,
		EnableSHB:           bs.SHB,
		TickInterval:        time.Duration(bs.TickMillis) * time.Millisecond,
		SilenceInterval:     vtime.Timestamp(bs.SilenceIntervalTicks),
		DialTimeout:         time.Duration(bs.DialTimeoutMillis) * time.Millisecond,
		LeaveGrace:          time.Duration(bs.LeaveGraceMillis) * time.Millisecond,
		MetaCommitLatency:   time.Duration(bs.MetaCommitLatencyMillis) * time.Millisecond,
		ReadBufferQ:         bs.ReadBufferQ,
		EventCacheSize:      bs.EventCacheSize,
		RelayCacheSize:      bs.RelayCacheSize,
		PFSSyncEvery:        bs.PFSSyncEvery,
		PFSImpreciseBucket:  vtime.Timestamp(bs.PFSImpreciseBucketTicks),
		PubendSync:          policy,
		GroupCommitMaxBytes: bs.GroupCommitMaxBytes,
		GroupCommitMaxDelay: time.Duration(bs.GroupLingerMillis) * time.Millisecond,
		AdminAddr:           bs.Admin,
		Parents:             append([]string(nil), bs.Parents...),
		FailoverAfter:       time.Duration(bs.FailoverAfterMillis) * time.Millisecond,
		FailoverHolddown:    time.Duration(bs.FailoverHolddownMillis) * time.Millisecond,
		PreferPrimary:       bs.PreferPrimary,
		FailoverSeed:        bs.FailoverSeed,
	}
	bs.Tuning.Apply(&cfg)
	if dataDir != "" {
		cfg.DataDir = joinPath(dataDir, bs.Name)
	}
	var retain pubend.Policy
	if bs.MaxRetainMillis > 0 {
		retain = pubend.MaxRetain{Retain: vtime.Timestamp(bs.MaxRetainMillis) * vtime.TicksPerMilli}
	}
	for _, id := range bs.Pubends {
		cfg.HostedPubends = append(cfg.HostedPubends, broker.PubendConfig{
			ID:               vtime.PubendID(id),
			Policy:           retain,
			SyncEveryPublish: bs.SyncPublish,
		})
	}
	for _, id := range bs.AllPubends {
		cfg.AllPubends = append(cfg.AllPubends, vtime.PubendID(id))
	}
	return cfg, nil
}

// joinPath is filepath.Join without the import knot (specs never contain
// ".." cleanup cases worth preserving).
func joinPath(dir, name string) string {
	if dir == "" {
		return name
	}
	return dir + "/" + name
}

// ConfigFieldMap records, for every broker.Config field, which spec surface
// sets it — the explicit flag/JSON mapping the spec lint enforces. Fields
// marked "(runtime)" are process-level wiring that a declarative spec
// cannot carry (function values, the transport); the others name the
// BrokerSpec/Spec JSON key (which is also the basis of the flag name in
// cmd/broker: camelCase key → kebab-case flag).
var ConfigFieldMap = map[string]string{
	"Name":                "name",
	"DataDir":             "dataDir (Spec) + name",
	"Transport":           "(runtime)",
	"ListenAddr":          "listen",
	"UpstreamAddr":        "upstream",
	"DialTimeout":         "dialTimeoutMillis",
	"LeaveGrace":          "leaveGraceMillis",
	"HostedPubends":       "pubends + maxRetainMillis + syncPublish",
	"AllPubends":          "allPubends",
	"EnableSHB":           "shb",
	"TickInterval":        "tickMillis",
	"SilenceInterval":     "silenceIntervalTicks",
	"ReadBufferQ":         "readBufferQ",
	"EventCacheSize":      "eventCacheSize",
	"PFSSyncEvery":        "pfsSyncEvery",
	"PFSImpreciseBucket":  "pfsImpreciseBucketTicks",
	"RelayCacheSize":      "relayCacheSize",
	"SubShards":           "subShards",
	"CatchupWeight":       "catchupWeight",
	"MetaCommitLatency":   "metaCommitLatencyMillis",
	"OnCaughtUp":          "(runtime)",
	"Shards":              "shards",
	"PubendSync":          "pubendSync",
	"GroupCommitMaxBytes": "groupCommitMaxBytes",
	"GroupCommitMaxDelay": "groupLingerMillis",
	"AdminAddr":           "admin",
	"Parents":             "parents",
	"FailoverAfter":       "failoverAfterMillis",
	"FailoverHolddown":    "failoverHolddownMillis",
	"PreferPrimary":       "preferPrimary",
	"FailoverSeed":        "failoverSeed",
}
