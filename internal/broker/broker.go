// Package broker implements the overlay broker node. A broker can play any
// combination of the three roles of the paper:
//
//   - publisher hosting broker (PHB): hosts pubends, logs each published
//     event exactly once, serves recovery nacks from its log, and runs the
//     event retention and release protocol;
//   - intermediate broker: caches knowledge flowing down the tree, filters
//     events per downstream link (D→S when nothing below the link
//     matches), consolidates nacks flowing up, and aggregates release
//     vectors;
//   - subscriber hosting broker (SHB): hosts durable subscribers through
//     the core engine (consolidated stream, catchup streams, PFS).
//
// Brokers form a tree rooted at the PHB (the knowledge graph of section 3).
//
// Concurrency model: the broker runs Config.Shards event-loop goroutines.
// Every pubend maps to one shard (pubend id mod shard count), and all work
// for that pubend — knowledge relay, nack routing, release aggregation,
// tick draining — always runs on its shard, so per-pubend processing stays
// strictly FIFO while distinct pubends proceed in parallel. Shard 0
// doubles as the control shard: link lifecycle and subscription changes
// run there and fan out to the event shards through an atomic snapshot of
// the downstream-link set (with Shards=1 everything lands on shard 0,
// reproducing the original single-loop broker). Thread-safe components
// (pubends, the core engine, the client registry, link sends, per-link
// matchers) are called directly from whichever goroutine holds the
// message; see DESIGN.md "Broker concurrency model" for the ownership
// rules.
package broker

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/logvol"
	"repro/internal/matchidx"
	"repro/internal/message"
	"repro/internal/metastore"
	"repro/internal/overlay"
	"repro/internal/pfs"
	"repro/internal/pubend"
	"repro/internal/repair"
	"repro/internal/ringq"
	"repro/internal/telemetry"
	"repro/internal/tick"
	"repro/internal/vtime"
)

// Routing instruments (process-wide; see internal/telemetry).
var (
	tPublishes = telemetry.Default().Counter("gryphon_broker_publishes_total",
		"Events accepted by hosted pubends.")
	tPublishSeconds = telemetry.Default().DurationHistogram("gryphon_broker_publish_seconds",
		"PHB publish latency including the forced log write.", telemetry.FastBuckets)
	tForwarded = telemetry.Default().Counter("gryphon_broker_events_forwarded_total",
		"Events forwarded as data on downstream links.")
	tFiltered = telemetry.Default().Counter("gryphon_broker_events_filtered_total",
		"Events downgraded to silence by per-link subscription filtering.")
	tNacksRouted = telemetry.Default().Counter("gryphon_broker_nacks_routed_total",
		"Nack requests answered or consolidated by this process.")
	tDrainsCommit   = telemetry.Default().Counter(`gryphon_broker_drains_total{cause="commit"}`, drainsHelp)
	tDrainsTick     = telemetry.Default().Counter(`gryphon_broker_drains_total{cause="tick"}`, drainsHelp)
	tAllocsPerEvent = telemetry.Default().Gauge("gryphon_broker_allocs_per_event_milli",
		"Heap allocations per delivered event over the last sampling window, "+
			"in thousandths (ReadMemStats sampled every allocSampleTicks ticks). "+
			"The live-side companion of the TestDeliveryPathAllocsGate bound.")
)

const drainsHelp = "Hosted-pubend knowledge drains, by trigger: a publish's log commit " +
	"(the live path) or the housekeeping tick (silence on an idle pubend)."

// allocSampleTicks is how many housekeeping ticks elapse between
// ReadMemStats samples for the allocs-per-event gauge; ReadMemStats
// stops the world, so it is kept well off the delivery path.
const allocSampleTicks = 64

// PubendConfig configures one pubend hosted by a broker.
type PubendConfig struct {
	// ID is the system-wide pubend identifier.
	ID vtime.PubendID
	// Policy is the early-release policy (nil: retain until released).
	Policy pubend.Policy
	// SyncEveryPublish forces an fsync per published event.
	SyncEveryPublish bool
	// LogLatency models the forced-log latency of the paper's PHB disk
	// (44 ms of its 50 ms end-to-end latency) without depending on the
	// local disk.
	LogLatency time.Duration
}

// Config describes one broker.
type Config struct {
	// Name identifies the broker in logs and handshakes.
	Name string
	// DataDir holds the broker's persistent state (event logs, PFS,
	// metastore). Required when the broker hosts pubends or subscribers.
	DataDir string
	// Transport connects this broker to the overlay (required).
	Transport overlay.Transport
	// ListenAddr accepts downstream brokers and clients ("" = no
	// listener; such a broker can still act as a pure client of its
	// upstream, which is not useful — normally set).
	ListenAddr string
	// UpstreamAddr is the parent broker in the tree ("" = root).
	UpstreamAddr string
	// DialTimeout bounds each upstream connection attempt (the first one
	// and every supervised reconnect). Zero means no timeout, matching the
	// old Dial behavior.
	DialTimeout time.Duration
	// LeaveGrace is how long a parent retains a departed child's soft
	// state (announced covers, release floors) after a deliberate Leave
	// before purging it. The delay lets in-flight traffic on the child's
	// new path establish replacement state first (a crashed child's state
	// is never purged — only Leave triggers this). Zero means 250ms;
	// negative means purge immediately (tests).
	LeaveGrace time.Duration
	// Parents is the ordered candidate-parent address list for automatic
	// fail-over: when the upstream link stays down past FailoverAfter the
	// broker re-parents itself to the first live, loop-safe candidate
	// (see internal/repair). Empty disables automatic fail-over.
	Parents []string
	// FailoverAfter is how long the upstream link must stay down before
	// automatic fail-over triggers. Zero disables automatic fail-over
	// even when Parents is set.
	FailoverAfter time.Duration
	// FailoverHolddown is the minimum spacing between repair-driven
	// re-parents, damping flaps on a blinking link (0 = 4×FailoverAfter).
	FailoverHolddown time.Duration
	// PreferPrimary re-adopts the operator-intended parent once it is
	// reachable and loop-safe again.
	PreferPrimary bool
	// FailoverSeed seeds the fail-over jitter so sibling schedules
	// decorrelate deterministically (0 = hash of Name).
	FailoverSeed int64
	// HostedPubends are the pubends this broker hosts (PHB role).
	HostedPubends []PubendConfig
	// AllPubends is the system-wide pubend set (required when EnableSHB).
	AllPubends []vtime.PubendID
	// EnableSHB turns on the subscriber hosting role.
	EnableSHB bool

	// TickInterval drives draining, housekeeping and release
	// aggregation. Zero means 5ms.
	TickInterval time.Duration
	// SilenceInterval, ReadBufferQ, EventCacheSize configure the core
	// engine (zero values = engine defaults).
	SilenceInterval vtime.Timestamp
	ReadBufferQ     int
	EventCacheSize  int
	// PFSSyncEvery syncs the PFS every N writes (0 = engine default 200).
	PFSSyncEvery int
	// PFSImpreciseBucket enables the PFS imprecise mode (0 = precise).
	PFSImpreciseBucket vtime.Timestamp
	// RelayCacheSize bounds the intermediate per-pubend event cache
	// (0 = 65536).
	RelayCacheSize int
	// MatchEngine selects the subscription matching strategy for the SHB
	// engine and the per-link D→S filters: "" or "indexed" for the
	// counting-based attribute index (internal/matchidx), "linear" for
	// the brute-force scan (the test oracle / escape hatch).
	MatchEngine string
	// SubShards partitions the SHB's subscriber set into N independently
	// locked shards, each with its own catchup pump (0 = engine default:
	// min(GOMAXPROCS, 8)). 1 reproduces the original single-lock engine.
	SubShards int
	// CatchupWeight is the catchup scheduler's delivery quantum: how many
	// catchup events one stream may deliver per scheduling round before
	// yielding the shard to live traffic (0 = engine default 256).
	CatchupWeight int
	// MetaCommitLatency models the per-commit cost of the SHB database
	// (section 5.2); 0 = none.
	MetaCommitLatency time.Duration
	// OnCaughtUp is forwarded to the core engine (figure 5 metric).
	OnCaughtUp func(sub vtime.SubscriberID, pub vtime.PubendID, took time.Duration)

	// Shards is the number of event-loop shards. Each pubend is pinned
	// to one shard (pubend id mod Shards) and all its work runs there;
	// shard 0 additionally serves as the control shard for link
	// lifecycle and subscription changes. 0 means GOMAXPROCS; 1
	// reproduces the original fully serialized single-loop broker.
	Shards int

	// PubendSync selects the durability policy of the pubend event log.
	// logvol.SyncGroup runs the volume's group-commit pipeline: every
	// publish is durable before its ack, but concurrent publishers share
	// fsyncs (batched writes, one fsync per batch). Zero means
	// logvol.SyncExplicit — the historical default, where durability per
	// publish is governed by each pubend's SyncEveryPublish flag.
	PubendSync logvol.SyncPolicy
	// GroupCommitMaxBytes caps the payload bytes per group-commit batch
	// when PubendSync is SyncGroup (0 = 1 MiB).
	GroupCommitMaxBytes int
	// GroupCommitMaxDelay makes the commit loop linger up to this long
	// to let concurrent publishers join a batch when PubendSync is
	// SyncGroup (0 = no linger; the fsync in flight is the batching
	// window).
	GroupCommitMaxDelay time.Duration

	// AdminAddr, when non-empty, binds the admin HTTP endpoint there:
	// /metrics (Prometheus text format over the process-wide telemetry
	// registry), /healthz, /readyz, and /debug/pprof/. Use
	// "127.0.0.1:0" to bind an ephemeral port and read it back through
	// Broker.AdminAddr. Empty means no admin listener and no behavior
	// change.
	AdminAddr string
}

// Broker is one overlay node.
type Broker struct {
	cfg Config

	shards   []*shard // shards[0] doubles as the control shard
	tickStop chan struct{}
	tickDone chan struct{}
	closed   atomic.Bool

	listener io.Closer
	admin    *telemetry.Server

	// upSup is the current upstream link supervisor (nil at the root or
	// after DetachUpstream). It is an atomic pointer because runtime
	// re-parenting (SetUpstream) replaces it while event shards read it
	// through upSend. pendingSup holds a candidate supervisor during the
	// make-before-break window of SetUpstream so its bring-up passes the
	// generation guard in upstreamUp; memberMu serializes membership
	// changes (SetUpstream, DetachUpstream, shutdown).
	upSup      atomic.Pointer[overlay.Supervisor]
	pendingSup atomic.Pointer[overlay.Supervisor]
	memberMu   sync.Mutex

	// tree is the broker's advertised position in the overlay (read by
	// Hello replies, probes, and the repair monitor); treeMu serializes
	// updates and guards epochHigh, the highest root epoch ever seen
	// (becomeRoot mints past it). See internal/repair and DESIGN §2.12.
	tree      atomic.Pointer[repair.TreeInfo]
	treeMu    sync.Mutex
	epochHigh uint64

	// repairMon, when non-nil, watches the upstream link and drives
	// automatic fail-over/fail-back (Config.Parents + FailoverAfter).
	// Assigned before any goroutine starts; stopped first in shutdown.
	repairMon *repair.Monitor

	// pubInflight counts publishes accepted but not yet durably logged
	// (acked); Shutdown drains it before closing volumes.
	pubInflight atomic.Int64

	// Control-shard-owned routing state (no mutex: only the control
	// shard's loop touches it).
	links map[overlay.Conn]*downLink // every accepted connection
	downs map[overlay.Conn]*downLink // the downstream-broker subset

	// upCover maintains the minimal covering subset of everything this
	// broker would announce upstream (local SHB subscriptions plus every
	// downstream broker's announcements): only covers are sent, so
	// upstream routing tables shrink with fan-in instead of growing.
	// Control-shard-owned, like the rest of the subscription lifecycle;
	// seeded from recovered SHB subscriptions before the first connect.
	upCover *matchidx.CoverSet

	// coverSrc refcounts each tracked subscription by announcement source
	// ("local" for SHB durables, the downstream link's aggregation key
	// otherwise). During a re-parent the same subscription is briefly
	// announced via both the old and the new path of a common ancestor;
	// the cover is withdrawn only when its source set empties, so the old
	// path's delayed withdrawal cannot tear down a cover the new path
	// still needs. Control-shard-owned.
	coverSrc map[vtime.SubscriberID]map[string]struct{}

	// annSeq counts the announcements sent upstream, annConfirmed how many
	// of them an echoed SubSync has confirmed in force on the whole path to
	// the root. syncWait holds what to do when the parent echoes a SubSync
	// this broker sent (see syncOn), keyed by its token; syncSeq mints the
	// tokens. Control-shard-owned.
	annSeq, annConfirmed uint64
	syncWait             map[uint64]func()
	syncSeq              uint64

	// downsSnap is the event shards' read-only view of the downstream
	// fanout set; the control shard republishes it after every downs
	// mutation. Never nil.
	downsSnap atomic.Pointer[[]*downLink]

	// clients is read by engine callbacks (Deliver) and conn dispatch
	// goroutines, written by the control shard.
	clients sync.Map // vtime.SubscriberID -> overlay.Conn

	pubends map[vtime.PubendID]*hostedPubend
	peVol   *logvol.Volume
	shb     *core.SHB
	shbVol  *logvol.Volume
	meta    *metastore.Store

	// Relay statistics: events forwarded as D vs downgraded to S by
	// per-link subscription filtering (the bandwidth saving of
	// intermediate filtering, section 1).
	eventsForwarded atomic.Int64
	eventsFiltered  atomic.Int64

	// pubRR round-robins publishes without a pubend hint.
	pubRR atomic.Uint64
	// linkSeq uniquifies aggregation source keys for accepted links
	// (transport remote addresses are not guaranteed unique).
	linkSeq atomic.Uint64
	// hostedIDs caches the hosted pubend IDs in config order.
	hostedIDs []vtime.PubendID
}

// hostedPubend is one hosted pubend plus the scheduling state of its
// commit-driven drain: drainQueued is set while drainTask sits in the
// pubend's shard queue, so however many publishes commit meanwhile, at most
// one drain is queued and it emits all of them in one batch.
type hostedPubend struct {
	*pubend.Pubend
	drainQueued atomic.Bool
	drainTask   func() // built once; pushed by kickDrain
}

// relState is one source's contribution to release aggregation.
type relState struct {
	released        vtime.Timestamp
	latestDelivered vtime.Timestamp
	valid           bool
}

// downLink is a downstream broker connection with its subscription matcher
// (for D→S filtering) — or a client connection before classification.
type downLink struct {
	conn    overlay.Conn
	matcher *filter.Matcher
	key     string // aggregation source key
	isDown  bool   // classified as downstream broker

	// synced is set by the link's first SubSync: the child has announced
	// everything it subscribes to. Until then the matcher may hold only
	// part of a resync, so knowledge passes unfiltered.
	synced atomic.Bool

	// subs is the set of subscriptions announced over this link (the
	// withdrawal set for a deliberate Leave). Control-shard-owned.
	subs map[vtime.SubscriberID]struct{}
}

// taskQueue is an unbounded queue of loop tasks over a ring buffer (the
// former slice-shift queue retained a burst's backing array forever; the
// ring nils drained slots and shrinks back). Close does not drop queued
// tasks: pop keeps draining them, returning false only once the queue is
// both closed and empty.
type taskQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  ringq.Ring[func()]
	closed bool
	depth  *telemetry.Gauge // optional occupancy mirror, updated under mu
}

func newTaskQueue(depth *telemetry.Gauge) *taskQueue {
	q := &taskQueue{depth: depth}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues fn, reporting false when the queue is already closed and
// the task was dropped.
func (q *taskQueue) push(fn func()) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items.Push(fn)
	if q.depth != nil {
		q.depth.Inc()
	}
	q.cond.Signal()
	return true
}

func (q *taskQueue) pop() (func(), bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.items.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	fn, ok := q.items.Pop()
	if ok && q.depth != nil {
		q.depth.Dec()
	}
	return fn, ok
}

func (q *taskQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items.Len()
}

func (q *taskQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// shard is one broker event loop: a task queue, the goroutine draining
// it, and the routing state owned by that goroutine alone. Pubend →
// shard assignment is static (pubend id mod shard count), so knowledge,
// nacks, release aggregation and tick draining for one pubend are always
// serialized on its shard while other pubends run in parallel.
type shard struct {
	id     int
	tasks  *taskQueue
	done   chan struct{}
	hosted []*hostedPubend // hosted pubends assigned to this shard

	// Shard-loop-owned state (no mutex: only this shard's loop).
	caches map[vtime.PubendID]*relayCache
	relAgg map[vtime.PubendID]map[string]relState // per source key
	tickN  int64

	// Per-shard instruments (labeled by shard index; process-wide, so
	// co-located brokers with equal shard counts aggregate).
	ran  *telemetry.Counter
	busy *telemetry.Counter
}

func newShard(id int) *shard {
	label := fmt.Sprintf("{shard=\"%d\"}", id)
	depth := telemetry.Default().Gauge(
		"gryphon_broker_shard_queue_depth"+label,
		"Tasks queued per broker event-loop shard.")
	return &shard{
		id:     id,
		tasks:  newTaskQueue(depth),
		done:   make(chan struct{}),
		caches: make(map[vtime.PubendID]*relayCache),
		relAgg: make(map[vtime.PubendID]map[string]relState),
		ran: telemetry.Default().Counter(
			"gryphon_broker_shard_tasks_total"+label,
			"Tasks executed per broker event-loop shard."),
		busy: telemetry.Default().Counter(
			"gryphon_broker_shard_busy_nanos_total"+label,
			"Nanoseconds spent executing tasks per broker event-loop shard (occupancy)."),
	}
}

// push enqueues fn on this shard.
func (s *shard) push(fn func()) bool { return s.tasks.push(fn) }

// loop drains the shard until its queue closes and empties.
func (s *shard) loop() {
	defer close(s.done)
	for {
		fn, ok := s.tasks.pop()
		if !ok {
			return
		}
		start := time.Now()
		fn()
		s.busy.Add(int64(time.Since(start)))
		s.ran.Inc()
	}
}

// control returns the control shard (link lifecycle, subscriptions).
func (b *Broker) control() *shard { return b.shards[0] }

// shardFor returns the shard owning a pubend's work.
func (b *Broker) shardFor(pub vtime.PubendID) *shard {
	return b.shards[int(uint32(pub))%len(b.shards)]
}

// New creates and starts a broker: opens persistent state, connects to its
// upstream, starts listening, and begins ticking.
func New(cfg Config) (*Broker, error) { return NewContext(context.Background(), cfg) }

// NewContext is New with the initial upstream dial bounded by ctx (in
// addition to Config.DialTimeout, whichever is tighter). Supervised
// reconnects after startup are governed by DialTimeout alone.
func NewContext(ctx context.Context, cfg Config) (*Broker, error) {
	if cfg.Transport == nil {
		return nil, errors.New("broker: Transport is required")
	}
	if cfg.TickInterval == 0 {
		cfg.TickInterval = 5 * time.Millisecond
	}
	if cfg.RelayCacheSize == 0 {
		cfg.RelayCacheSize = 65536
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.LeaveGrace == 0 {
		cfg.LeaveGrace = 250 * time.Millisecond
	}
	b := &Broker{
		cfg:      cfg,
		tickStop: make(chan struct{}),
		tickDone: make(chan struct{}),
		links:    make(map[overlay.Conn]*downLink),
		downs:    make(map[overlay.Conn]*downLink),
		upCover:  matchidx.NewCoverSet(),
		coverSrc: make(map[vtime.SubscriberID]map[string]struct{}),
		syncWait: make(map[uint64]func()),
		pubends:  make(map[vtime.PubendID]*hostedPubend),
	}
	b.downsSnap.Store(&[]*downLink{})
	// Seed the advertised tree position: a root knows it is one (epoch 1);
	// a broker with an upstream learns its position from the parent's
	// Hello reply (learnTreeInfo).
	if cfg.UpstreamAddr == "" {
		b.epochHigh = 1
		b.tree.Store(&repair.TreeInfo{Known: true, Root: cfg.Name, Epoch: 1})
	} else {
		b.tree.Store(&repair.TreeInfo{})
	}
	for i := 0; i < cfg.Shards; i++ {
		b.shards = append(b.shards, newShard(i))
	}
	if err := b.openState(); err != nil {
		return nil, err
	}
	// Seed the covering set from recovered durable subscriptions so the
	// first upstream resync announces the minimal cover, not the full
	// population. No shard is running yet, so touching upCover directly
	// is safe; emitted ops are discarded (there is no upstream link yet —
	// resyncUpstream replays Announced() instead).
	if b.shb != nil {
		for _, si := range b.shb.Subscriptions() {
			if sub, err := filter.Parse(si.Filter); err == nil {
				b.upCover.Add(si.ID, sub)
				b.coverSrc[si.ID] = map[string]struct{}{coverSrcLocal: {}}
			}
		}
	}
	// Pin each hosted pubend to its shard (the assignment is static for
	// the broker's lifetime; everything keys off pubend id mod shards).
	for _, id := range b.hostedIDs {
		sh := b.shardFor(id)
		sh.hosted = append(sh.hosted, b.pubends[id])
	}
	if err := b.connect(ctx); err != nil {
		b.closeState()
		return nil, err
	}
	// Build (but don't start) the repair monitor before the admin endpoint
	// goes live: its health note reads b.repairMon, so the field must be
	// settled before any concurrent reader exists.
	if cfg.FailoverAfter > 0 && len(cfg.Parents) > 0 {
		b.repairMon = repair.NewMonitor(repair.Config{
			Node:          repairNode{b},
			Primary:       cfg.UpstreamAddr,
			Candidates:    cfg.Parents,
			FailoverAfter: cfg.FailoverAfter,
			Holddown:      cfg.FailoverHolddown,
			PreferPrimary: cfg.PreferPrimary,
			Seed:          cfg.FailoverSeed,
		})
	}
	if err := b.startAdmin(); err != nil {
		if b.listener != nil {
			b.listener.Close() //nolint:errcheck,gosec // failed-start cleanup
		}
		if sup := b.upSup.Swap(nil); sup != nil {
			sup.Stop()
		}
		b.closeState()
		return nil, err
	}
	for _, sh := range b.shards {
		go sh.loop()
	}
	go b.tickLoop()
	if b.repairMon != nil {
		b.repairMon.Start()
	}
	if b.admin != nil {
		b.admin.SetReady(true)
	}
	return b, nil
}

// startAdmin binds the admin endpoint when AdminAddr is configured and
// registers this broker's component health checks.
func (b *Broker) startAdmin() error {
	if b.cfg.AdminAddr == "" {
		return nil
	}
	srv, err := telemetry.NewServer(b.cfg.AdminAddr, telemetry.Default())
	if err != nil {
		return fmt.Errorf("broker %s: admin: %w", b.cfg.Name, err)
	}
	b.admin = srv
	prefix := "broker/" + b.cfg.Name
	srv.RegisterHealth(prefix, func() error {
		if b.closed.Load() {
			return errors.New("broker closed")
		}
		return nil
	})
	if b.peVol != nil {
		srv.RegisterHealth(prefix+"/pubend-log", b.peVol.Ping)
	}
	if b.shbVol != nil {
		srv.RegisterHealth(prefix+"/pfs-log", b.shbVol.Ping)
	}
	if b.meta != nil {
		srv.RegisterHealth(prefix+"/metastore", b.meta.Ping)
	}
	// The upstream check reads the atomic supervisor pointer on every
	// probe: a broker that starts as a root can later gain a parent via
	// SetUpstream (and vice versa), so registration cannot be conditional
	// on the startup topology. A root (nil supervisor) is healthy.
	srv.RegisterHealth(prefix+"/upstream", func() error {
		sup := b.upSup.Load()
		if sup == nil {
			return nil
		}
		st := sup.Status()
		if st.State != overlay.LinkUp {
			if b.repairMon != nil {
				return fmt.Errorf("upstream link %s for %s (retries=%d, last error: %s; failover armed over %d candidates)",
					st.State, st.DownFor.Round(time.Millisecond), st.Retries, st.LastError, len(b.cfg.Parents))
			}
			return fmt.Errorf("upstream link %s (retries=%d, last error: %s)",
				st.State, st.Retries, st.LastError)
		}
		return nil
	})
	// A failed-over broker is healthy — its link is up, just not to the
	// operator-intended parent — so /healthz stays 200 and reports the
	// substitution as a note instead of a bare 503.
	srv.RegisterNote(prefix+"/upstream", func() string {
		mon := b.repairMon
		if mon == nil {
			return ""
		}
		cur, pri := b.UpstreamAddr(), mon.Primary()
		if pri == "" || cur == "" || cur == pri {
			return ""
		}
		return fmt.Sprintf("failed over to %s (primary %s)", cur, pri)
	})
	return nil
}

// AdminAddr reports the bound admin endpoint address, or "" when none was
// configured.
func (b *Broker) AdminAddr() string {
	if b.admin == nil {
		return ""
	}
	return b.admin.Addr()
}

// openState opens logs, metastore, pubends, and the SHB engine.
func (b *Broker) openState() error {
	cfg := b.cfg
	needsDisk := len(cfg.HostedPubends) > 0 || cfg.EnableSHB
	if needsDisk && cfg.DataDir == "" {
		return errors.New("broker: DataDir required for PHB/SHB roles")
	}
	if needsDisk {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return fmt.Errorf("broker: data dir: %w", err)
		}
	}
	if len(cfg.HostedPubends) > 0 {
		vol, err := logvol.Open(filepath.Join(cfg.DataDir, "pubends.log"), logvol.Options{
			Sync:          cfg.PubendSync,
			GroupMaxBytes: cfg.GroupCommitMaxBytes,
			GroupMaxDelay: cfg.GroupCommitMaxDelay,
		})
		if err != nil {
			return err
		}
		b.peVol = vol
		for _, pc := range cfg.HostedPubends {
			pe, err := pubend.New(pubend.Options{
				ID:               pc.ID,
				Volume:           vol,
				Policy:           pc.Policy,
				SyncEveryPublish: pc.SyncEveryPublish,
				LogLatency:       pc.LogLatency,
			})
			if err != nil {
				return err
			}
			h := &hostedPubend{Pubend: pe}
			h.drainTask = func() {
				// Clear before Drain reads pubend state: a publish that
				// commits from here on queues the next drain.
				h.drainQueued.Store(false)
				b.drain(h, tDrainsCommit)
			}
			b.pubends[pc.ID] = h
			b.hostedIDs = append(b.hostedIDs, pc.ID)
		}
	}
	if cfg.EnableSHB {
		if len(cfg.AllPubends) == 0 {
			return errors.New("broker: AllPubends required with EnableSHB")
		}
		vol, err := logvol.Open(filepath.Join(cfg.DataDir, "pfs.log"), logvol.Options{})
		if err != nil {
			return err
		}
		b.shbVol = vol
		meta, err := metastore.Open(filepath.Join(cfg.DataDir, "shb.meta"), metastore.Options{
			Sync:          metastore.SyncNone,
			CommitLatency: cfg.MetaCommitLatency,
		})
		if err != nil {
			return err
		}
		b.meta = meta
		syncEvery := cfg.PFSSyncEvery
		if syncEvery == 0 {
			syncEvery = 200
		}
		p, err := pfs.New(pfs.Options{
			Volume:          vol,
			Meta:            meta,
			SyncEvery:       syncEvery,
			ImpreciseBucket: cfg.PFSImpreciseBucket,
		})
		if err != nil {
			return err
		}
		engine, err := core.New(core.Config{
			Meta:            meta,
			PFS:             p,
			Pubends:         cfg.AllPubends,
			SilenceInterval: cfg.SilenceInterval,
			ReadBufferQ:     cfg.ReadBufferQ,
			EventCacheSize:  cfg.EventCacheSize,
			MatchEngine:     cfg.MatchEngine,
			SubShards:       cfg.SubShards,
			CatchupWeight:   cfg.CatchupWeight,
			SendNack:        b.shbSendNack,
			SendRelease:     b.shbSendRelease,
			Deliver:         b.shbDeliver,
			OnCaughtUp:      cfg.OnCaughtUp,
		})
		if err != nil {
			return err
		}
		b.shb = engine
	}
	return nil
}

func (b *Broker) closeState() {
	if b.shb != nil {
		// Stop the per-shard catchup pumps before the volumes they read
		// from go away.
		b.shb.Close()
	}
	if b.peVol != nil {
		b.peVol.Close() //nolint:errcheck,gosec // shutdown path
	}
	if b.shbVol != nil {
		b.shbVol.Close() //nolint:errcheck,gosec // shutdown path
	}
	if b.meta != nil {
		b.meta.Close() //nolint:errcheck,gosec // shutdown path
	}
}

// connect starts the supervised upstream link and binds the listener.
func (b *Broker) connect(ctx context.Context) error {
	cfg := b.cfg
	if cfg.UpstreamAddr != "" {
		sup := b.newUpstreamSup(cfg.UpstreamAddr)
		b.pendingSup.Store(sup)
		// StartContext's first attempt is synchronous, preserving the old
		// fail-fast startup: a dead upstream fails New, not some later
		// send. Only after that does the link self-heal in the background.
		if err := sup.StartContext(ctx); err != nil {
			b.pendingSup.Store(nil)
			return fmt.Errorf("broker %s: dial upstream: %w", cfg.Name, err)
		}
		b.upSup.Store(sup)
		b.pendingSup.Store(nil)
	}
	if cfg.ListenAddr != "" {
		closer, err := cfg.Transport.Listen(cfg.ListenAddr, b.accept)
		if err != nil {
			return fmt.Errorf("broker %s: listen: %w", cfg.Name, err)
		}
		b.listener = closer
	}
	return nil
}

// newUpstreamSup builds a supervisor for one upstream link. The OnUp
// closure captures the supervisor itself so upstreamUp can tell whether the
// connecting supervisor is still the broker's current (or pending) one — a
// retired supervisor racing a reconnect during a re-parent must not
// resynchronize state onto the abandoned path.
func (b *Broker) newUpstreamSup(addr string) *overlay.Supervisor {
	var sup *overlay.Supervisor
	sup = overlay.NewSupervisor(overlay.SupervisorConfig{
		Name:        b.cfg.Name + "/upstream",
		Transport:   b.cfg.Transport,
		Addr:        addr,
		DialTimeout: b.cfg.DialTimeout,
		OnUp:        func(conn overlay.Conn) error { return b.upstreamUp(sup, conn) },
		// Echoes owed by a dead link will not come; the next link's
		// resync re-announces what they were to confirm.
		OnDown: func(error) { b.control().push(func() { b.takeSyncs()() }) },
	})
	return sup
}

// upstreamUp brings up a freshly dialed upstream connection: handshake,
// dispatch, and state resynchronization. It runs on the supervisor's
// goroutine for every (re)connect, including the synchronous first one.
func (b *Broker) upstreamUp(sup *overlay.Supervisor, conn overlay.Conn) error {
	if b.upSup.Load() != sup && b.pendingSup.Load() != sup {
		return errStaleSupervisor
	}
	if err := conn.Send(&message.Hello{Role: message.RoleBroker, Name: b.cfg.Name}); err != nil {
		return err
	}
	// fromUpstream routes each message to its pubend's shard itself;
	// the upstream dispatch goroutine pushes in receive order, so
	// per-pubend FIFO is preserved shard-side. The supervisor rides along
	// so control messages (the parent's tree-position Hello) can be
	// rejected once this link is retired by a re-parent.
	conn.Start(func(m message.Message) { b.fromUpstream(sup, m) })
	b.resyncUpstream(conn)
	return nil
}

// resyncUpstream replays this broker's upstream-facing soft state onto a
// fresh parent link. The paper's recovery protocol makes the gap itself
// recoverable (knowledge keeps flowing, QGaps get re-nacked), but two
// pieces of state live only in messages that may have died with the old
// link:
//
//   - subscription announcements: the parent's new per-link matcher is
//     empty and passes everything until this link's first SubSync. The
//     covering set (local SHB subscriptions plus every downstream
//     announcement, minimized by subsumption) is replayed from the control
//     shard, which owns it, with a SubSync behind it. Its echo also
//     settles the SubSyncs still owed by the previous link.
//   - pending curiosity: spans nacked while the link was dying are
//     recorded as pending, so the consolidators will never re-request
//     them; they are re-nacked here (duplicates are harmless — delivery
//     is governed by the constream cursor, not by what arrives).
//   - release floors: the new parent zero-seeds this link's floor on
//     Hello, but its aggregate only advances once this broker reports. An
//     immediate snapshot of each shard's aggregated release vector pins
//     the subtree's retention on the new path before the old parent's
//     grace-period purge (after a deliberate Leave) can release it.
//
// Sends go directly on conn (not upSend): the supervisor installs the conn
// only after bring-up succeeds, and the Hello above must stay the link's
// first message anyway.
func (b *Broker) resyncUpstream(conn overlay.Conn) {
	if b.shb != nil {
		for pub, spans := range b.shb.PendingCuriosity() {
			//nolint:errcheck,gosec // link death re-enters the supervisor
			conn.Send(&message.Nack{Pubend: pub, Spans: spans})
		}
	}
	b.control().push(func() {
		for _, op := range b.upCover.Announced() {
			//nolint:errcheck,gosec // link death re-enters the supervisor
			conn.Send(&message.SubUpdate{Subscriber: op.ID, Filter: op.Filter})
		}
		b.annSeq++ // the replay is itself unconfirmed on this path
		b.syncOn(conn, b.takeSyncs())
	})
	for _, sh := range b.shards {
		sh := sh
		sh.push(func() {
			for pub, cache := range sh.caches {
				if pending := cache.cur.Pending(); len(pending) > 0 {
					//nolint:errcheck,gosec // link death re-enters the supervisor
					conn.Send(&message.Nack{Pubend: pub, Spans: pending})
				}
			}
			for pub, per := range sh.relAgg {
				if _, hosted := b.pubends[pub]; hosted {
					continue
				}
				if rel, ld, ok := aggregateRelease(per); ok {
					//nolint:errcheck,gosec // link death re-enters the supervisor
					conn.Send(&message.Release{Pubend: pub, Released: rel, LatestDelivered: ld})
				}
			}
		})
	}
}

// upSend sends m on the upstream link, dropping it when the broker is the
// root or the link is down (the knowledge/NACK recovery protocol
// regenerates anything that matters once the link heals).
func (b *Broker) upSend(m message.Message) {
	if sup := b.upSup.Load(); sup != nil {
		sup.Send(m) //nolint:errcheck,gosec // link death handled by the supervisor
	}
}

// Health reports the state of the broker's supervised links: the
// upstream link (absent for a root) followed, when automatic fail-over is
// configured, by one pseudo-entry per candidate parent named
// "<broker>/candidate/<addr>" whose state reflects the last probe (Up =
// reachable). Callers that only care about real links filter by
// IsCandidateLink.
func (b *Broker) Health() []overlay.LinkStatus {
	var hs []overlay.LinkStatus
	if sup := b.upSup.Load(); sup != nil {
		hs = append(hs, sup.Status())
	}
	if b.repairMon != nil {
		for _, c := range b.repairMon.Candidates() {
			st := overlay.LinkStatus{
				Name:      b.cfg.Name + "/candidate/" + c.Addr,
				Addr:      c.Addr,
				State:     overlay.LinkDown,
				Since:     c.LastProbe,
				LastError: c.LastError,
			}
			if c.Alive {
				st.State = overlay.LinkUp
			}
			hs = append(hs, st)
		}
	}
	return hs
}

// IsCandidateLink reports whether a Health() entry is a candidate-parent
// pseudo-entry rather than a real supervised link.
func IsCandidateLink(st overlay.LinkStatus) bool {
	return strings.Contains(st.Name, "/candidate/")
}

// accept classifies and starts an inbound connection.
func (b *Broker) accept(conn overlay.Conn) {
	link := &downLink{
		conn:    conn,
		matcher: matchidx.MatcherFor(b.cfg.MatchEngine).InstrumentSite("link"),
		key:     fmt.Sprintf("%s#%d", conn.RemoteAddr(), b.linkSeq.Add(1)),
		subs:    make(map[vtime.SubscriberID]struct{}),
	}
	b.control().push(func() { b.links[conn] = link })
	conn.OnClose(func(error) {
		b.control().push(func() { b.dropLink(link) })
	})
	conn.Start(func(m message.Message) {
		b.fromBelow(link, m)
	})
}

// tickLoop drives periodic work (live knowledge does not wait for it — see
// kickDrain): each tick fans one housekeeping task to every shard and waits
// for all of them before the next tick, keeping at most one tick in flight
// per shard (the single-loop broker's semantics, just parallelized across
// shards).
func (b *Broker) tickLoop() {
	defer close(b.tickDone)
	ticker := time.NewTicker(b.cfg.TickInterval)
	defer ticker.Stop()
	// Allocs-per-event sampler state: process-wide mallocs vs events
	// delivered since the previous sample. The ratio is approximate (all
	// broker work allocates against it, not just delivery), which is
	// exactly what makes it a useful live regression signal.
	var (
		sampleTick    int
		lastMallocs   uint64
		lastDelivered int64
	)
	sampleAllocs := func() {
		if b.shb == nil {
			return
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		delivered := b.shb.Stats().EventsDelivered
		if dd := delivered - lastDelivered; dd > 0 && lastMallocs != 0 {
			tAllocsPerEvent.Set(int64((ms.Mallocs - lastMallocs) * 1000 / uint64(dd)))
		}
		lastMallocs = ms.Mallocs
		lastDelivered = delivered
	}
	for {
		select {
		case <-ticker.C:
			if sampleTick++; sampleTick >= allocSampleTicks {
				sampleTick = 0
				sampleAllocs()
			}
			var wg sync.WaitGroup
			for _, sh := range b.shards {
				sh := sh
				wg.Add(1)
				if !sh.push(func() {
					b.tickShard(sh)
					wg.Done()
				}) {
					wg.Done() // shard already shut down
				}
			}
			done := make(chan struct{})
			go func() {
				wg.Wait()
				close(done)
			}()
			select {
			case <-done:
			case <-b.tickStop:
				<-done // all shards drain their queues before closing
				return
			}
		case <-b.tickStop:
			return
		}
	}
}

// Close shuts the broker down hard: no drain, connections and volumes go
// away as fast as the goroutines can be stopped (the alias for code that
// has nothing in flight or doesn't care). Use Shutdown for a drained stop.
func (b *Broker) Close() error {
	b.shutdown()
	return nil
}

// Shutdown stops the broker gracefully: it stops advertising readiness,
// waits for in-flight publishes to reach their durable ack (so no
// publisher holds an accepted-but-unlogged event), then runs the hard
// stop. If ctx expires first the remaining in-flight publishes are
// abandoned to the hard stop and ctx's error is returned — the broker is
// fully stopped either way.
func (b *Broker) Shutdown(ctx context.Context) error {
	if b.admin != nil {
		b.admin.SetReady(false)
	}
	var err error
	for b.pubInflight.Load() > 0 {
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-time.After(time.Millisecond):
			continue
		}
		break
	}
	b.shutdown()
	return err
}

// Crash simulates a broker failure: connections drop and volatile state is
// lost; persistent files remain for a successor started with the same
// Config.
func (b *Broker) Crash() { b.shutdown() }

// shutdown stops ticking, tears down connections on the control shard,
// then closes every shard queue; queued tasks drain before the loops exit
// (taskQueue.pop keeps returning items after close until empty).
func (b *Broker) shutdown() {
	// Stop the repair monitor before taking memberMu: an in-flight
	// repair-driven re-parent completes (or fails against closed) and no
	// further one can start, so the supervisor swap below can't race a
	// monitor installing a fresh link.
	if b.repairMon != nil {
		b.repairMon.Stop()
	}
	// Retire the supervisors under memberMu so a concurrent SetUpstream
	// either completes before the swap or observes closed and refuses.
	b.memberMu.Lock()
	if b.closed.Swap(true) {
		b.memberMu.Unlock()
		return
	}
	oldSup := b.upSup.Swap(nil)
	pending := b.pendingSup.Swap(nil)
	b.memberMu.Unlock()
	close(b.tickStop)
	<-b.tickDone
	if b.admin != nil {
		b.admin.Close() //nolint:errcheck,gosec // shutdown path
	}
	if b.listener != nil {
		b.listener.Close() //nolint:errcheck,gosec // shutdown path
	}
	if oldSup != nil {
		oldSup.Stop()
	}
	if pending != nil {
		pending.Stop()
	}
	connsClosed := make(chan struct{})
	if !b.control().push(func() {
		for conn := range b.links {
			conn.Close() //nolint:errcheck,gosec // shutdown path
		}
		close(connsClosed)
	}) {
		close(connsClosed)
	}
	<-connsClosed
	for _, sh := range b.shards {
		sh.tasks.close()
	}
	for _, sh := range b.shards {
		<-sh.done
	}
	b.closeState()
}

// Name reports the broker's configured name.
func (b *Broker) Name() string { return b.cfg.Name }

// Shards reports the number of event-loop shards the broker runs.
func (b *Broker) Shards() int { return len(b.shards) }

// BoundAddr reports the listener's actual bound address (useful with
// ephemeral-port TCP addresses like "127.0.0.1:0"), falling back to the
// configured ListenAddr for transports that don't expose one.
func (b *Broker) BoundAddr() string {
	if ln, ok := b.listener.(net.Listener); ok {
		return ln.Addr().String()
	}
	return b.cfg.ListenAddr
}

// CoverStats reports the covering set's population: how many
// upstream-facing subscriptions this broker tracks (local SHB durables plus
// downstream announcements) and how many it actually announces upstream
// (the minimal covering subset). Blocks briefly on the control shard;
// returns zeros after shutdown.
func (b *Broker) CoverStats() (members, announced int) {
	ch := make(chan [2]int, 1)
	if !b.control().push(func() {
		ch <- [2]int{b.upCover.Len(), b.upCover.AnnouncedLen()}
	}) {
		return 0, 0
	}
	v := <-ch
	return v[0], v[1]
}

// RelayStats reports how many events this broker forwarded as data versus
// downgraded to silence on downstream links because nothing below the link
// subscribed to them — the utilization win of filtering at intermediate
// nodes (section 1).
func (b *Broker) RelayStats() (forwarded, filtered int64) {
	return b.eventsForwarded.Load(), b.eventsFiltered.Load()
}

// SHBStats exposes the core engine statistics (zero value when the broker
// is not an SHB).
func (b *Broker) SHBStats() core.Stats {
	if b.shb == nil {
		return core.Stats{}
	}
	return b.shb.Stats()
}

// LatestDelivered reports the SHB constream cursor for a pubend.
func (b *Broker) LatestDelivered(pub vtime.PubendID) vtime.Timestamp {
	if b.shb == nil {
		return 0
	}
	return b.shb.LatestDelivered(pub)
}

// Released reports the SHB released(p) value.
func (b *Broker) Released(pub vtime.PubendID) vtime.Timestamp {
	if b.shb == nil {
		return 0
	}
	return b.shb.Released(pub)
}

// CatchupCount reports active catchup streams at the SHB.
func (b *Broker) CatchupCount() int {
	if b.shb == nil {
		return 0
	}
	return b.shb.CatchupCount()
}

// Pubend returns a hosted pubend (nil if not hosted) — used by tests and
// the experiment harness to inspect retention.
func (b *Broker) Pubend(id vtime.PubendID) *pubend.Pubend {
	if h := b.pubends[id]; h != nil {
		return h.Pubend
	}
	return nil
}

// --- Core engine callbacks ---
//
// The engine is sharded (see core.SHB): SendNack and SendRelease run while
// a per-pubend lock is held; Deliver runs while a subscriber-shard lock is
// held, and is invoked concurrently from the constream fan-out and from the
// per-shard catchup pump goroutines (serialized per subscriber — FIFO order
// is guaranteed per subscriber, not across subscribers). All three must not
// block and must not re-enter the engine; they hop onto the pubend's
// event-loop shard (non-blocking push) or do a non-blocking conn send.
// conn.Send is safe for concurrent use, so Deliver needs no extra hop.

func (b *Broker) shbSendNack(pub vtime.PubendID, spans []tick.Span) {
	sh := b.shardFor(pub)
	sh.push(func() { b.routeNack(sh, nil, pub, spans) })
}

func (b *Broker) shbSendRelease(pub vtime.PubendID, rel, ld vtime.Timestamp) {
	sh := b.shardFor(pub)
	sh.push(func() { b.storeRelease(sh, "self", pub, rel, ld) })
}

func (b *Broker) shbDeliver(sub vtime.SubscriberID, d message.Delivery) {
	v, ok := b.clients.Load(sub)
	if !ok {
		return
	}
	conn, ok := v.(overlay.Conn)
	if !ok {
		return
	}
	//nolint:errcheck,gosec // a failed send means the client link died;
	// its OnClose detaches the subscriber.
	// Pooled envelope + a reference on the event's frame buffer; a wire
	// writer recycles both after framing, an in-process client owns them.
	conn.Send(message.GetDeliver(sub, d))
}
