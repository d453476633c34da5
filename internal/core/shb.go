// Package core implements the subscriber hosting broker (SHB) engine of
// the paper (section 4): the istream accumulating knowledge from upstream,
// the single consolidated stream (constream) serving all connected
// non-catchup subscribers and the Persistent Filtering Subsystem, separate
// catchup streams for reconnecting subscribers, the catchup→non-catchup
// switchover, and the SHB side of the release protocol.
//
// The engine is callback-driven: the owning broker feeds it received
// messages (OnKnowledge, Subscribe, OnAck, ...) and drives housekeeping
// through Tick. All outputs (deliveries to clients, nacks and release
// vectors to upstream) leave through the callbacks in Config. Internally
// the engine is sharded: subscriber state is partitioned across
// Config.SubShards locks (each with its own catchup pump goroutine), and
// each pubend's constream state sits behind its own lock — see the
// concurrency contract below.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/filter"
	"repro/internal/matchidx"
	"repro/internal/message"
	"repro/internal/metastore"
	"repro/internal/pfs"
	"repro/internal/telemetry"
	"repro/internal/tick"
	"repro/internal/vtime"
)

// Engine instruments (process-wide; see internal/telemetry). Per-shard
// gryphon_shb_* instruments live on each subShard.
var (
	tEventsDelivered = telemetry.Default().Counter("gryphon_core_events_delivered_total",
		"Event deliveries to durable subscribers (constream and catchup).")
	tSilences = telemetry.Default().Counter("gryphon_core_silences_delivered_total",
		"Silence deliveries advancing subscriber checkpoint tokens.")
	tGaps = telemetry.Default().Counter("gryphon_core_gaps_delivered_total",
		"Gap deliveries for early-released intervals.")
	tSwitchovers = telemetry.Default().Counter("gryphon_core_switchovers_total",
		"Catchup → non-catchup stream switchovers.")
	tCatchupActive = telemetry.Default().Gauge("gryphon_core_catchup_active",
		"Active (subscriber, pubend) catchup streams.")
	tCatchupSeconds = telemetry.Default().DurationHistogram("gryphon_core_catchup_seconds",
		"Catchup duration from reconnection to switchover (figure 5 metric).",
		telemetry.DefBuckets)
	tCacheHits = telemetry.Default().Counter("gryphon_core_cache_hits_total",
		"Event-cache hits while resolving catchup D ticks.")
	tCacheMisses = telemetry.Default().Counter("gryphon_core_cache_misses_total",
		"Event-cache misses forcing an upstream re-request.")
	tNackSpans = telemetry.Default().Counter("gryphon_core_nack_spans_total",
		"Consolidated nack spans sent upstream.")
)

// Metastore tables used by the SHB.
const (
	tableSubs     = "shb_subs"     // subID -> filter source
	tableReleased = "shb_released" // "<pub>/<sub>" -> released(s,p)
	tableSince    = "shb_since"    // "<pub>/<sub>" -> PFS coverage start
	tableLD       = "shb_ld"       // "<pub>" -> latestDelivered(p)
)

// maxSubShards bounds Config.SubShards; the fan-out path tracks pending
// shards in a 64-bit mask.
const maxSubShards = 64

// Config wires an SHB engine to its broker.
type Config struct {
	// Meta persists subscriptions, released(s,p) and latestDelivered(p)
	// (required).
	Meta *metastore.Store
	// PFS is the persistent filtering subsystem (required).
	PFS *pfs.PFS
	// Pubends is the set of pubends in the system, known from cluster
	// configuration (required, non-empty).
	Pubends []vtime.PubendID

	// SendNack forwards consolidated nacks upstream.
	SendNack func(pub vtime.PubendID, spans []tick.Span)
	// SendRelease forwards the release vector upstream.
	SendRelease func(pub vtime.PubendID, released, latestDelivered vtime.Timestamp)
	// Deliver enqueues one delivery on the subscriber's FIFO link.
	Deliver func(sub vtime.SubscriberID, d message.Delivery)
	// OnCaughtUp, if set, is invoked at every catchup→non-catchup
	// switchover with the catchup duration (figure 5's metric).
	OnCaughtUp func(sub vtime.SubscriberID, pub vtime.PubendID, took time.Duration)

	// SilenceInterval is how far latestDelivered may run ahead of a
	// subscriber's last delivery before a silence message is sent so
	// its checkpoint token does not lag (virtual time units). Zero
	// means 250ms of virtual time.
	SilenceInterval vtime.Timestamp
	// ReadBufferQ is the PFS batch-read buffer size in Q spans (the
	// paper's experiments use 5000). Zero means 5000.
	ReadBufferQ int
	// EventCacheSize bounds the per-pubend event cache (the SHB-side
	// recovery cache). Zero means 65536 events; absence of a cached
	// event is always recoverable by nacking upstream.
	EventCacheSize int
	// SubShards is the number of subscriber shards (each with its own
	// lock and catchup pump). Zero means min(GOMAXPROCS, 8); values are
	// clamped to [1, 64].
	SubShards int
	// CatchupWeight is the catchup scheduler's round-robin quantum: the
	// maximum number of deliveries one catchup stream makes per scheduler
	// round before the shard lock is released and the next stream runs.
	// Smaller values favor live-path latency under deep backlogs; larger
	// values favor catchup drain throughput. Zero means 256.
	CatchupWeight int
}

// SHB is the subscriber hosting broker engine.
//
// Concurrency contract. The engine is internally sharded; there is no
// whole-engine lock and entry points for different subscribers or
// pubends run concurrently:
//
//   - Subscriber state (the subscription records, released/since/lastSent
//     floors, credits, catchup streams) is partitioned across SubShards
//     shards by subscriber id. Calls touching one subscriber (Subscribe,
//     Detach, Unsubscribe, OnAck, OnCredit) are atomic with respect to
//     that subscriber's shard only.
//   - Per-pubend constream state (istream knowledge, event cache,
//     consolidated curiosity, latestDelivered, released vector) is guarded
//     by a per-pubend lock. OnKnowledge ingests and advances the constream
//     under it, then fans deliveries out to the shards from a snapshot.
//     Callers MUST serialize OnKnowledge per pubend (knowledge before the
//     nack answer that fills its gap); the broker does so by pinning each
//     pubend's traffic to one event-shard loop. Calls for different
//     pubends may run concurrently.
//   - Shard locks order before pubend locks; the engine never calls back
//     into itself.
//
// The configured callbacks (Deliver, SendNack, SendRelease, OnCaughtUp)
// are invoked while a shard and/or pubend lock is held — possibly from a
// shard's catchup pump goroutine, not only from the caller's goroutine.
// They must not block (a blocked callback stalls that shard or pubend,
// though no longer the whole engine) and must not re-enter the engine,
// which can self-deadlock. Deliveries for one subscriber are always made
// under its shard lock, so the per-subscriber FIFO contract survives
// concurrent shards. The broker's callbacks obey this by only doing
// non-blocking queue pushes (shard task queues, overlay sends).
type SHB struct {
	cfg     Config
	matcher *filter.Matcher

	pubends map[vtime.PubendID]*shbPubend // immutable after New
	pubList []*shbPubend                  // sorted by id, immutable after New
	shards  []*subShard                   // immutable after New

	stats        engineStats
	closed       atomic.Bool
	persistRetry atomic.Bool // a Tick commit failed; re-persist next Tick
}

// Stats exposes engine counters for the experiment harness. Snapshot them
// via SHB.Stats.
type Stats struct {
	EventsDelivered   int64 // event deliveries to subscribers
	SilencesDelivered int64
	GapsDelivered     int64
	PFSWrites         int64
	PFSReads          int64
	NacksSent         int64 // nack spans sent upstream (post-consolidation)
	NackTicksSent     int64 // total ticks covered by those spans
	NackTicksWanted   int64 // ticks requested by consumers pre-consolidation
	CacheHits         int64
	CacheMisses       int64
	Switchovers       int64 // catchup → non-catchup transitions
}

// shbPubend is the per-pubend state: istream knowledge, event cache,
// consolidated curiosity, and the constream cursor.
type shbPubend struct {
	id vtime.PubendID

	// mu guards every non-atomic field below. Lock order: a shard's mu
	// may be held when acquiring ps.mu, never the reverse; two pubend
	// locks are never nested.
	mu    chanMutex
	know  *tick.Stream    // istream knowledge (base advances with released)
	cur   *tick.Curiosity // consolidated upstream curiosity
	cache *eventCache

	attached        bool            // latestDelivered initialized
	latestDelivered vtime.Timestamp // constream cursor (persisted)
	released        vtime.Timestamp // min over subs, ≤ latestDelivered
	maxKnown        vtime.Timestamp // highest tick ever heard about

	lastSentRelease  vtime.Timestamp // dedupe for SendRelease
	lastSentLD       vtime.Timestamp
	pendingNackSpans []tick.Span // consolidated spans awaiting SendNack
	dirtyLD          bool        // latestDelivered pending a Tick commit

	// ld mirrors latestDelivered for lock-free reads on the catchup
	// pump's PFS phase.
	ld atomic.Int64
	// fanLD is the constream position whose deliveries have been handed
	// to every shard. Silence may only advance a subscriber's checkpoint
	// to fanLD: between the constream advance (under ps.mu) and the
	// per-shard fan-out, latestDelivered covers events no subscriber has
	// seen yet, and a silence at raw latestDelivered would release them.
	fanLD atomic.Int64

	// Per-shard aggregates, published by the shards under ps.mu:
	// relByShard[i] is shard i's min released(s,p) (MaxTS when the shard
	// hosts no subscriber), pinByShard[i] its min catchup-stream base
	// (MaxTS when none). released(p) and the cache pin derive from these.
	relByShard []vtime.Timestamp
	pinByShard []vtime.Timestamp

	// matchBuf is the reusable per-event match-result buffer for this
	// pubend's constream advance (guarded by mu; neither the PFS nor the
	// fan staging retains it).
	matchBuf []vtime.SubscriberID
	// dtickBuf is the reusable D-tick scratch for advanceConstream
	// (guarded by mu), so a steady-state knowledge batch allocates no
	// tick slice.
	dtickBuf []vtime.Timestamp
	// fan stages constream deliveries per shard; see shardFan.
	fan []shardFan
}

func (ps *shbPubend) ldTS() vtime.Timestamp {
	return vtime.Timestamp(ps.ld.Load())
}

// chanMutex is a mutex implemented over a channel (tiny footprint, and
// trivially extensible to TryLock). One instance guards each pubend.
type chanMutex chan struct{}

func newChanMutex() chanMutex { return make(chanMutex, 1) }

func (m chanMutex) lock()   { m <- struct{}{} }
func (m chanMutex) unlock() { <-m }

// subscriber is one durable subscription hosted by this SHB. All fields
// are guarded by the owning shard's lock.
type subscriber struct {
	id        vtime.SubscriberID
	sub       *filter.Subscription
	connected bool
	credits   int64
	released  map[vtime.PubendID]vtime.Timestamp // released(s,p), persisted
	// since is the timestamp this SHB started logging PFS records for
	// the subscriber (its registration point); persisted. Catchup for
	// ticks before it must refilter retrieved events instead of trusting
	// the PFS (reconnect-anywhere, and clients resuming with a rewound
	// checkpoint token).
	since    map[vtime.PubendID]vtime.Timestamp
	lastSent map[vtime.PubendID]vtime.Timestamp // for silence generation
	catchup  map[vtime.PubendID]*catchupStream
}

// New creates (or recovers) an SHB engine. Subscriptions, released(s,p)
// and latestDelivered(p) are reloaded from the metastore; every recovered
// subscriber starts disconnected. Call Close to stop the shard pump
// goroutines.
func New(cfg Config) (*SHB, error) {
	if cfg.Meta == nil || cfg.PFS == nil {
		return nil, errors.New("core: Meta and PFS are required")
	}
	if len(cfg.Pubends) == 0 {
		return nil, errors.New("core: at least one pubend is required")
	}
	if cfg.SilenceInterval == 0 {
		cfg.SilenceInterval = 250 * vtime.TicksPerMilli
	}
	if cfg.ReadBufferQ == 0 {
		cfg.ReadBufferQ = 5000
	}
	if cfg.EventCacheSize == 0 {
		cfg.EventCacheSize = 65536
	}
	if cfg.SubShards == 0 {
		cfg.SubShards = runtime.GOMAXPROCS(0)
		if cfg.SubShards > 8 {
			cfg.SubShards = 8
		}
	}
	if cfg.SubShards < 1 {
		cfg.SubShards = 1
	}
	if cfg.SubShards > maxSubShards {
		cfg.SubShards = maxSubShards
	}
	if cfg.CatchupWeight <= 0 {
		cfg.CatchupWeight = 256
	}
	if cfg.SendNack == nil {
		cfg.SendNack = func(vtime.PubendID, []tick.Span) {}
	}
	if cfg.SendRelease == nil {
		cfg.SendRelease = func(vtime.PubendID, vtime.Timestamp, vtime.Timestamp) {}
	}
	if cfg.Deliver == nil {
		cfg.Deliver = func(vtime.SubscriberID, message.Delivery) {}
	}
	s := &SHB{
		cfg:     cfg,
		matcher: matchidx.NewMatcher().InstrumentSite("shb"),
		pubends: make(map[vtime.PubendID]*shbPubend, len(cfg.Pubends)),
	}
	for i := 0; i < cfg.SubShards; i++ {
		s.shards = append(s.shards, newSubShard(i, len(cfg.Pubends)))
	}
	for _, pub := range cfg.Pubends {
		ps := &shbPubend{
			id:         pub,
			mu:         newChanMutex(),
			cur:        tick.NewCuriosity(),
			cache:      newEventCache(cfg.EventCacheSize),
			relByShard: make([]vtime.Timestamp, cfg.SubShards),
			pinByShard: make([]vtime.Timestamp, cfg.SubShards),
			fan:        make([]shardFan, cfg.SubShards),
		}
		for i := range ps.relByShard {
			ps.relByShard[i] = vtime.MaxTS
			ps.pinByShard[i] = vtime.MaxTS
		}
		if v, ok := cfg.Meta.GetUint64(tableLD, pubKey(pub)); ok {
			ps.latestDelivered = vtime.Timestamp(v)
			ps.attached = true
		}
		ps.know = tick.NewStream(ps.latestDelivered)
		ps.cache.setFloor(ps.latestDelivered)
		ps.released = ps.latestDelivered
		ps.maxKnown = ps.latestDelivered
		ps.ld.Store(int64(ps.latestDelivered))
		ps.fanLD.Store(int64(ps.latestDelivered))
		s.pubends[pub] = ps
		s.pubList = append(s.pubList, ps)
	}
	sort.Slice(s.pubList, func(i, j int) bool { return s.pubList[i].id < s.pubList[j].id })
	if err := s.recoverSubscribers(); err != nil {
		return nil, err
	}
	// released(p) must honor the persisted per-subscriber floors, which lag
	// the in-memory state by one persistence cycle. Recovering it from
	// latestDelivered alone would let the post-restart PFS chop discard the
	// loss boundary a resuming subscriber's catchup depends on, minting
	// spurious gap messages for ranges that were pure silence. Unlike the
	// steady-state recompute this may move released(p) BELOW
	// latestDelivered, so it is done directly (no locks needed: the pump
	// goroutines have not started).
	for _, ps := range s.pubList {
		rel := ps.latestDelivered
		for _, sh := range s.shards {
			min := vtime.MaxTS
			for _, sub := range sh.subs {
				if r := sub.released[ps.id]; r < min {
					min = r
				}
			}
			ps.relByShard[sh.id] = min
			if min < rel {
				rel = min
			}
		}
		ps.released = rel
	}
	for _, sh := range s.shards {
		go s.shardPump(sh)
	}
	return s, nil
}

// Close stops the shard pump goroutines. Idempotent; the engine must not
// be used after Close.
func (s *SHB) Close() {
	if s.closed.Swap(true) {
		return
	}
	for _, sh := range s.shards {
		kickShard(sh)
	}
}

func pubKey(pub vtime.PubendID) string { return strconv.FormatUint(uint64(pub), 10) }

func relKey(pub vtime.PubendID, sub vtime.SubscriberID) string {
	return strconv.FormatUint(uint64(pub), 10) + "/" + strconv.FormatUint(uint64(sub), 10)
}

// recoverSubscribers reloads durable subscriptions from the metastore.
func (s *SHB) recoverSubscribers() error {
	for _, key := range s.cfg.Meta.Keys(tableSubs) {
		id64, err := strconv.ParseUint(key, 10, 32)
		if err != nil {
			continue
		}
		src, ok := s.cfg.Meta.Get(tableSubs, key)
		if !ok {
			continue
		}
		subFilter, err := filter.Parse(string(src))
		if err != nil {
			return fmt.Errorf("core: recover subscription %s: %w", key, err)
		}
		id := vtime.SubscriberID(id64)
		sub := s.newSubscriber(id, subFilter)
		for pub := range s.pubends {
			if v, ok := s.cfg.Meta.GetUint64(tableReleased, relKey(pub, id)); ok {
				sub.released[pub] = vtime.Timestamp(v)
			}
			if v, ok := s.cfg.Meta.GetUint64(tableSince, relKey(pub, id)); ok {
				sub.since[pub] = vtime.Timestamp(v)
			}
		}
		s.shardFor(id).subs[id] = sub
		s.matcher.Add(id, subFilter)
	}
	return nil
}

func (s *SHB) newSubscriber(id vtime.SubscriberID, f *filter.Subscription) *subscriber {
	return &subscriber{
		id:       id,
		sub:      f,
		released: make(map[vtime.PubendID]vtime.Timestamp, len(s.pubends)),
		since:    make(map[vtime.PubendID]vtime.Timestamp, len(s.pubends)),
		lastSent: make(map[vtime.PubendID]vtime.Timestamp, len(s.pubends)),
		catchup:  make(map[vtime.PubendID]*catchupStream),
	}
}

// Stats returns a snapshot of the engine counters.
func (s *SHB) Stats() Stats { return s.stats.snapshot() }

// LatestDelivered reports the constream cursor for a pubend.
func (s *SHB) LatestDelivered(pub vtime.PubendID) vtime.Timestamp {
	if ps, ok := s.pubends[pub]; ok {
		return ps.ldTS()
	}
	return vtime.ZeroTS
}

// Released reports released(p): the highest timestamp all durable
// subscribers of this SHB have acknowledged (bounded by latestDelivered).
func (s *SHB) Released(pub vtime.PubendID) vtime.Timestamp {
	if ps, ok := s.pubends[pub]; ok {
		ps.mu.lock()
		defer ps.mu.unlock()
		return ps.released
	}
	return vtime.ZeroTS
}

// CatchupCount reports how many (subscriber, pubend) catchup streams are
// currently active.
func (s *SHB) CatchupCount() int {
	n := int64(0)
	for _, sh := range s.shards {
		n += sh.nCatchup.Load()
	}
	return int(n)
}

// SubShardCount reports the number of subscriber shards the engine runs.
func (s *SHB) SubShardCount() int { return len(s.shards) }

// ConnectedCount reports the number of connected subscribers.
func (s *SHB) ConnectedCount() int {
	n := int64(0)
	for _, sh := range s.shards {
		n += sh.nConnected.Load()
	}
	return int(n)
}

// OnKnowledge ingests a knowledge message from upstream: ranges and events
// accumulate into the istream, curiosity is satisfied, the constream
// advances under the pubend lock, and the resulting deliveries fan out to
// the subscriber shards. Catchup streams with fresh knowledge are fed and
// their shard pumps kicked; the heavy catchup work happens on the pump
// goroutines so this call's latency is the live-path latency.
//
// Calls for the same pubend must be serialized by the caller (the broker
// pins each pubend to one event-shard loop).
func (s *SHB) OnKnowledge(know *message.Knowledge) {
	ps, ok := s.pubends[know.Pubend]
	if !ok {
		return
	}
	ps.mu.lock()
	s.attach(ps, know)
	for _, r := range know.Ranges {
		ps.know.Apply(r)
		ps.cur.Satisfy(r.Start, r.End)
		if r.End > ps.maxKnown {
			ps.maxKnown = r.End
		}
	}
	for _, ev := range know.Events {
		ps.know.Apply(tick.Range{Start: ev.Timestamp, End: ev.Timestamp, Kind: tick.D})
		ps.cache.put(ev)
		ps.cur.Satisfy(ev.Timestamp, ev.Timestamp)
		if ev.Timestamp > ps.maxKnown {
			ps.maxKnown = ev.Timestamp
		}
	}
	s.advanceConstream(ps)
	ldNow := ps.latestDelivered
	// Snapshot which shards hold catchup streams on this pubend; their
	// istream filters must see this knowledge (figure 1: nack responses
	// for ticks below the istream base flow through the per-subscriber
	// catchup knowledge streams, the istream itself discards them).
	var catchMask uint64
	for i, pin := range ps.pinByShard {
		if pin != vtime.MaxTS {
			catchMask |= 1 << uint(i)
		}
	}
	ps.mu.unlock()

	var kickMask uint64
	for i, sh := range s.shards {
		f := &ps.fan[i]
		hasCatch := catchMask&(1<<uint(i)) != 0
		if len(f.evs) == 0 && !hasCatch {
			continue
		}
		sh.mu.Lock()
		s.fanOutLocked(sh, ps, f)
		if hasCatch {
			for _, sub := range sh.subs {
				if cs := sub.catchup[ps.id]; cs != nil {
					feedCatchup(cs, know)
				}
			}
			kickMask |= 1 << uint(i)
		}
		sh.mu.Unlock()
	}
	// Every shard has now seen the deliveries up to ldNow; silence may
	// advance checkpoints this far.
	ps.fanLD.Store(int64(ldNow))
	for i, sh := range s.shards {
		if kickMask&(1<<uint(i)) != 0 {
			kickShard(sh)
		}
	}
}

// fanOutLocked replays one shard's staged constream deliveries (built by
// advanceConstream under ps.mu) into the shard. Caller holds sh.mu; ps.mu
// is NOT held — the stage is safe to read because OnKnowledge calls for
// one pubend are serialized by the caller.
func (s *SHB) fanOutLocked(sh *subShard, ps *shbPubend, f *shardFan) {
	base := 0
	for i, ev := range f.evs {
		n := int(f.n[i])
		for _, subID := range f.arena[base : base+n] {
			sub := sh.subs[subID]
			if sub == nil || !sub.connected || sub.catchup[ps.id] != nil {
				continue
			}
			// A subscriber can be ahead of a recovering constream, or
			// have subscribed after this event was staged with a floor
			// covering it. Never deliver at or below its floor.
			if ev.Timestamp <= sub.lastSent[ps.id] {
				continue
			}
			s.deliverEvent(sh, sub, ps.id, ev)
		}
		base += n
	}
	f.reset()
}

// attach initializes latestDelivered for a fresh SHB at the first received
// knowledge: a broker that joins the stream starts delivering from the
// current position rather than nacking all of history. Caller holds ps.mu.
func (s *SHB) attach(ps *shbPubend, know *message.Knowledge) {
	if ps.attached {
		return
	}
	start := vtime.MaxTS
	for _, r := range know.Ranges {
		if r.Start < start {
			start = r.Start
		}
	}
	for _, ev := range know.Events {
		if ev.Timestamp < start {
			start = ev.Timestamp
		}
	}
	if start == vtime.MaxTS {
		return
	}
	ps.attached = true
	ps.latestDelivered = start - 1
	ps.cache.setFloor(start - 1)
	ps.released = start - 1
	ps.know.Advance(start - 1)
	ps.ld.Store(int64(start - 1))
	ps.fanLD.Store(int64(start - 1))
	ps.dirtyLD = true
}

// advanceConstream processes ticks in (latestDelivered, doubtHorizon]: D
// ticks are matched once against every durable subscription, written to
// the PFS, and staged for delivery to the connected non-catchup
// subscribers that match (paper, section 4.1). Caller holds ps.mu; the
// staged fans are consumed by OnKnowledge's fan-out phase.
func (s *SHB) advanceConstream(ps *shbPubend) {
	dh := ps.know.DoubtHorizon()
	if dh <= ps.latestDelivered {
		return
	}
	// Gap-free by definition of the doubt horizon; walk D ticks in order.
	ps.dtickBuf = ps.know.DTicksAppend(ps.dtickBuf[:0], ps.latestDelivered, dh)
	dticks := ps.dtickBuf
	for _, ts := range dticks {
		ev, ok := ps.cache.get(ts)
		if !ok {
			// The cache evicted an undelivered event (pathological
			// sizing). Re-request it and stop advancing; knowledge
			// will come back around.
			s.stats.cacheMisses.Add(1)
			tCacheMisses.Inc()
			s.requestSpansLocked(ps, []tick.Span{{Start: ts, End: ts}})
			s.flushNacksLocked(ps)
			dh = ts - 1
			break
		}
		ps.matchBuf = s.matcher.MatchAppend(ps.matchBuf[:0], ev.Attrs)
		matched := ps.matchBuf
		// PFS first — delivery to the PFS must complete before the
		// tick is considered delivered. Skip timestamps the PFS
		// already has (constream replay after a crash).
		if len(matched) > 0 && ts > s.cfg.PFS.LastTimestamp(ps.id) {
			if err := s.cfg.PFS.Write(ps.id, ts, matched); err == nil {
				s.stats.pfsWrites.Add(1)
			}
		}
		// Stage matches into the per-shard fans; delivery happens under
		// each shard's lock after ps.mu is released.
		nShards := uint64(len(s.shards))
		for _, subID := range matched {
			f := &ps.fan[uint64(subID)%nShards]
			if len(f.evs) == 0 || f.evs[len(f.evs)-1] != ev {
				f.evs = append(f.evs, ev)
				f.n = append(f.n, 0)
			}
			f.n[len(f.n)-1]++
			f.arena = append(f.arena, subID)
		}
	}
	if dh > ps.latestDelivered {
		ps.latestDelivered = dh
		ps.ld.Store(int64(dh))
		ps.cache.setFloor(dh)
		ps.dirtyLD = true
	}
	s.recomputeReleasedLocked(ps)
}

// deliverEvent sends one event delivery and updates silence bookkeeping.
// Caller holds sh.mu (the subscriber's shard).
func (s *SHB) deliverEvent(sh *subShard, sub *subscriber, pub vtime.PubendID, ev *message.Event) {
	s.cfg.Deliver(sub.id, message.Delivery{
		Kind:      message.DeliverEvent,
		Pubend:    pub,
		Timestamp: ev.Timestamp,
		Event:     ev,
	})
	sub.lastSent[pub] = ev.Timestamp
	s.stats.eventsDelivered.Add(1)
	tEventsDelivered.Inc()
	sh.tDelivered.Inc()
}

// requestSpansLocked adds wanted spans to the consolidated curiosity; only
// the fresh (not already pending) parts are queued for upstream. Caller
// holds ps.mu.
func (s *SHB) requestSpansLocked(ps *shbPubend, spans []tick.Span) {
	for _, sp := range spans {
		s.stats.nackTicksWanted.Add(sp.Len())
		for _, fresh := range ps.cur.Add(sp.Start, sp.End) {
			ps.pendingNackSpans = append(ps.pendingNackSpans, fresh)
		}
	}
}

// flushNacksLocked sends queued consolidated nack spans upstream. Caller
// holds ps.mu.
func (s *SHB) flushNacksLocked(ps *shbPubend) {
	if len(ps.pendingNackSpans) == 0 {
		return
	}
	spans := ps.pendingNackSpans
	ps.pendingNackSpans = nil
	s.stats.nacksSent.Add(int64(len(spans)))
	tNackSpans.Add(int64(len(spans)))
	for _, sp := range spans {
		s.stats.nackTicksSent.Add(sp.Len())
	}
	s.cfg.SendNack(ps.id, spans)
}

// recomputeReleasedLocked recalculates released(p) =
// min(latestDelivered, min_i relByShard[i]) from the shard-published
// floors. Caller holds ps.mu.
func (s *SHB) recomputeReleasedLocked(ps *shbPubend) {
	rel := ps.latestDelivered
	for _, r := range ps.relByShard {
		if r < rel {
			rel = r
		}
	}
	if rel > ps.released {
		ps.released = rel
		ps.dirtyLD = true
		// Knowledge and cached events below released(p) can never be
		// needed again by any local subscriber.
		ps.know.Advance(rel)
		ps.cache.evictUpTo(rel)
	}
}

// publishShardFloors recomputes one shard's per-pubend min released(s,p)
// and publishes it into every pubend's release vector.
func (s *SHB) publishShardFloors(sh *subShard) {
	sh.mu.Lock()
	mins := sh.relMins
	for i := range mins {
		mins[i] = vtime.MaxTS
	}
	for _, sub := range sh.subs {
		for i, ps := range s.pubList {
			if r := sub.released[ps.id]; r < mins[i] {
				mins[i] = r
			}
		}
	}
	for i, ps := range s.pubList {
		ps.mu.lock()
		ps.relByShard[sh.id] = mins[i]
		s.recomputeReleasedLocked(ps)
		ps.mu.unlock()
	}
	sh.mu.Unlock()
}

// syncShardPins recomputes one shard's per-pubend min catchup base and
// publishes it into the pubends' cache pins, so the event cache keeps
// events any catchup stream may still need.
func (s *SHB) syncShardPins(sh *subShard) {
	sh.mu.Lock()
	mins := sh.pinMins
	for i := range mins {
		mins[i] = vtime.MaxTS
	}
	for _, sub := range sh.catchups {
		for i, ps := range s.pubList {
			if cs := sub.catchup[ps.id]; cs != nil {
				if b := cs.know.Base(); b < mins[i] {
					mins[i] = b
				}
			}
		}
	}
	for i, ps := range s.pubList {
		ps.mu.lock()
		ps.pinByShard[sh.id] = mins[i]
		pin := vtime.MaxTS
		for _, p := range ps.pinByShard {
			if p < pin {
				pin = p
			}
		}
		ps.cache.setPin(pin)
		ps.mu.unlock()
	}
	sh.mu.Unlock()
}

// PendingCuriosity snapshots the consolidated spans each pubend is still
// waiting on from upstream. A nack request in flight when the upstream
// link died is recorded here as pending, which makes requestSpans suppress
// any re-request — so after a reconnect the broker must re-issue these
// spans itself or the gap would never fill. Pubends with nothing pending
// are omitted.
func (s *SHB) PendingCuriosity() map[vtime.PubendID][]tick.Span {
	out := make(map[vtime.PubendID][]tick.Span)
	for pub, ps := range s.pubends {
		ps.mu.lock()
		if pending := ps.cur.Pending(); len(pending) > 0 {
			out[pub] = pending
		}
		ps.mu.unlock()
	}
	return out
}

// SubscriptionInfo identifies one durable subscription for upstream
// re-announcement.
type SubscriptionInfo struct {
	ID     vtime.SubscriberID
	Filter string // filter source, round-trippable through filter.Parse
}

// Subscriptions lists every durable subscription this engine hosts,
// connected or not. After an upstream reconnect the new link's matcher on
// the parent is empty until told otherwise; once any subscription is
// announced it starts D→S filtering, so the broker must re-announce all of
// them or pre-outage subscribers would silently stop matching.
func (s *SHB) Subscriptions() []SubscriptionInfo {
	var out []SubscriptionInfo
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id, sub := range sh.subs {
			out = append(out, SubscriptionInfo{ID: id, Filter: sub.sub.String()})
		}
		sh.mu.Unlock()
	}
	return out
}
