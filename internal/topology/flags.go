package topology

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Flags binds the single-broker flag surface of cmd/broker onto a
// BrokerSpec: every flag is the kebab-case form of the spec's JSON key, so
// the two surfaces cannot drift. Duration-valued flags are kept as real
// durations for ergonomics and folded into the spec's integer-millisecond
// fields by Spec().
type Flags struct {
	// DataDir is the -data flag (the Spec-level dataDir; the broker's own
	// directory is DataDir/name, as everywhere else).
	DataDir string

	spec             BrokerSpec
	pubends          string
	allPubends       string
	parents          string
	tick             time.Duration
	maxRetain        time.Duration
	groupLinger      time.Duration
	dialTimeout      time.Duration
	leaveGrace       time.Duration
	failoverAfter    time.Duration
	failoverHolddown time.Duration
}

// RegisterFlags installs the broker flags on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.spec.Name, "name", "broker", "broker name")
	fs.StringVar(&f.spec.Listen, "listen", ":7070", "TCP listen address")
	fs.StringVar(&f.spec.Upstream, "upstream", "", "parent broker address (empty = root)")
	fs.StringVar(&f.DataDir, "data", "", "data directory (required for -pubends / -shb; broker state lands in <data>/<name>)")
	fs.StringVar(&f.pubends, "pubends", "", "comma-separated pubend IDs hosted here (PHB role)")
	fs.BoolVar(&f.spec.SHB, "shb", false, "host durable subscribers (SHB role)")
	fs.StringVar(&f.allPubends, "all-pubends", "", "comma-separated system-wide pubend IDs (required with -shb)")
	fs.DurationVar(&f.tick, "tick", 5*time.Millisecond, "housekeeping interval")
	fs.DurationVar(&f.maxRetain, "max-retain", 0, "early-release retention bound (0 = retain until released)")
	fs.BoolVar(&f.spec.SyncPublish, "sync-publish", false, "fsync the event log on every publish")
	fs.StringVar(&f.spec.PubendSync, "pubend-sync", "explicit", "pubend log durability: explicit (fsync only on request), group (batch concurrent publishes under one fsync), or always (fsync every append)")
	fs.DurationVar(&f.groupLinger, "group-linger", 0, "max time a group commit waits for more publishes before fsyncing (0 = none; millisecond granularity)")
	fs.StringVar(&f.spec.Admin, "admin", "", "admin HTTP address for /metrics, /healthz, /debug/pprof (empty = disabled)")
	fs.IntVar(&f.spec.Shards, "shards", 0, "event-loop shard count (0 = GOMAXPROCS, 1 = serialized)")
	fs.IntVar(&f.spec.SubShards, "sub-shards", 0, "SHB subscriber shard count (0 = min(GOMAXPROCS, 8), 1 = single-lock engine)")
	fs.IntVar(&f.spec.CatchupWeight, "catchup-weight", 0, "catchup scheduler quantum: events one catchup stream may deliver per round before yielding to live traffic (0 = 256)")
	fs.DurationVar(&f.dialTimeout, "dial-timeout", 0, "upstream dial bound, initial and supervised reconnects (0 = unbounded)")
	fs.DurationVar(&f.leaveGrace, "leave-grace", 0, "how long to retain a deliberately departed child's soft state (0 = 250ms)")
	fs.StringVar(&f.parents, "parents", "", "comma-separated candidate parent addresses for automatic fail-over, in preference order (requires -upstream and -failover-after)")
	fs.DurationVar(&f.failoverAfter, "failover-after", 0, "how long the upstream link must stay down before failing over to a candidate parent (0 = disabled)")
	fs.DurationVar(&f.failoverHolddown, "failover-holddown", 0, "minimum spacing between automatic re-parents (0 = 4x failover-after)")
	fs.BoolVar(&f.spec.PreferPrimary, "prefer-primary", false, "return to the declared upstream when it comes back after a fail-over")
	fs.Int64Var(&f.spec.FailoverSeed, "failover-seed", 0, "deterministic fail-over jitter seed (0 = derived from the broker name)")
	return f
}

// Spec folds the parsed flags into a validated BrokerSpec.
func (f *Flags) Spec() (BrokerSpec, error) {
	spec := f.spec
	spec.TickMillis = f.tick.Milliseconds()
	spec.MaxRetainMillis = f.maxRetain.Milliseconds()
	spec.GroupLingerMillis = f.groupLinger.Milliseconds()
	spec.DialTimeoutMillis = f.dialTimeout.Milliseconds()
	spec.LeaveGraceMillis = f.leaveGrace.Milliseconds()
	spec.FailoverAfterMillis = f.failoverAfter.Milliseconds()
	spec.FailoverHolddownMillis = f.failoverHolddown.Milliseconds()
	if f.parents != "" {
		for _, p := range strings.Split(f.parents, ",") {
			if p = strings.TrimSpace(p); p != "" {
				spec.Parents = append(spec.Parents, p)
			}
		}
	}
	var err error
	if spec.Pubends, err = ParsePubendIDs(f.pubends); err != nil {
		return BrokerSpec{}, fmt.Errorf("-pubends: %w", err)
	}
	if spec.AllPubends, err = ParsePubendIDs(f.allPubends); err != nil {
		return BrokerSpec{}, fmt.Errorf("-all-pubends: %w", err)
	}
	if err := spec.validate(); err != nil {
		return BrokerSpec{}, err
	}
	return spec, nil
}

// ParsePubendIDs parses a comma-separated pubend ID list ("" = none).
func ParsePubendIDs(s string) ([]uint32, error) {
	if s == "" {
		return nil, nil
	}
	var out []uint32
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad pubend id %q: %w", part, err)
		}
		out = append(out, uint32(id))
	}
	return out, nil
}
