// Package pfs implements the Persistent Filtering Subsystem of the paper
// (section 4.2): the SHB-side persistent log of which events matched which
// durable subscribers, written once per matched timestamp and read in large
// batches when a subscriber reconnects, so that catchup never has to
// retrieve and refilter events that did not match.
//
// Storage layout follows the paper exactly. All subscribers of one pubend
// share a single log stream; one record is written per timestamp that is Q
// (matched) for at least one subscriber. A record is
//
//	timestamp (8 bytes) + n × (subscriberID 8 bytes, prevIndex 8 bytes)
//
// i.e. the paper's 8 + 16·n bytes, where prevIndex is the log-volume index
// of the previous record containing that subscriber. The per-subscriber
// backpointer chains make batch reads walk only records relevant to the
// subscriber being caught up.
//
// The PFS keeps lastTimestamp (latest Q tick written) per pubend and
// lastIndex (latest record containing the subscriber) per subscriber in a
// metastore table, checkpointed at every Sync; recovery replays the log
// tail beyond the checkpoint.
package pfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/logvol"
	"repro/internal/message"
	"repro/internal/metastore"
	"repro/internal/telemetry"
	"repro/internal/tick"
	"repro/internal/vtime"
)

// PFS instruments (process-wide; see internal/telemetry).
var (
	tWrites = telemetry.Default().Counter("gryphon_pfs_writes_total",
		"PFS records written (one per timestamp matched by ≥1 subscriber).")
	tWriteBytes = telemetry.Default().Counter("gryphon_pfs_write_bytes_total",
		"PFS record payload bytes written (the paper's 8+16n accounting).")
	tReads = telemetry.Default().Counter("gryphon_pfs_reads_total",
		"PFS batch reads served for catchup streams.")
	tReadWalk = telemetry.Default().Histogram("gryphon_pfs_read_walk_records",
		"Backpointer-chain records walked per PFS batch read.", telemetry.SizeBuckets)
	tCkptFlushes = telemetry.Default().Counter("gryphon_pfs_checkpoint_flushes_total",
		"PFS checkpoint flushes (volume sync + metastore transaction).")
	tCkptErrors = telemetry.Default().Counter("gryphon_pfs_checkpoint_errors_total",
		"PFS background checkpoint flushes that failed.")
	tRangeReads = telemetry.Default().Counter("gryphon_pfs_range_reads_total",
		"Vectored log-volume range reads issued to fill the decode cache.")
	tDecHits = telemetry.Default().Counter("gryphon_pfs_decode_cache_hits_total",
		"Chain-walk records served from the per-pubend decode cache.")
	tDecMisses = telemetry.Default().Counter("gryphon_pfs_decode_cache_misses_total",
		"Chain-walk records that required a log-volume read.")
	tArenaMisses = telemetry.Default().Counter("gryphon_pfs_arena_pool_misses_total",
		"Decode-arena acquisitions that allocated a new slab (pool empty or "+
			"previous slab oversized); steady-state catchup should sit near zero.")
)

const (
	metaTable = "pfs"
	recBase   = 8  // timestamp
	recPerSub = 16 // subscriber id + backpointer

	// tailWindow bounds one vectored range read (bytes); fillSpan is how
	// many record indexes below a missed record the fill tries to cover.
	// With typical records (8+16n payload + 20 framing) one window decodes
	// hundreds of records in a single syscall.
	tailWindow = 256 << 10
	fillSpan   = 512
	// recScratch sizes the single-record read scratch; records larger than
	// this (≈4000 subscribers in one record) fall back to allocating.
	recScratch = 64 << 10
	// recCacheBudget bounds the decode cache per pubend, counted in
	// subscriber entries (~32 bytes each), not records: record cost scales
	// with fan-out.
	recCacheBudget = 1 << 18
)

// readBufs is the pooled per-read scratch set: a single-record buffer, a
// range-read window, and the span-reversal scratch, all pre-sized at pool
// construction so a read never allocates scratch. Concurrent catchup
// pumps each grab one from the pool for the duration of a batch read.
type readBufs struct {
	rec      []byte
	win      []byte
	reversed []tick.Span
}

var readBufPool = sync.Pool{New: func() any {
	return &readBufs{rec: make([]byte, recScratch), win: make([]byte, tailWindow)}
}}

// decArena is a pooled slab backing the subs/prevs slices of every record
// decoded from one fill window. refs counts the resident cache entries
// carved from it plus any chain walk currently reading one of them; the
// slab returns to the pool when the count reaches zero, so a deep catchup
// storm decodes records into recycled memory instead of allocating two
// slices per record (the old decodeRecord behavior). Reuse-after-release
// is impossible by construction: an arena is only reset once no holder of
// any slice carved from it remains.
type decArena struct {
	subs  []vtime.SubscriberID
	prevs []logvol.Index
	refs  atomic.Int32
}

// maxArenaEntries caps recycled slab capacity (~24 B/entry); a slab grown
// by a pathological window is handed to the GC instead of pinned.
const maxArenaEntries = 1 << 16

var arenaPool = sync.Pool{New: func() any {
	tArenaMisses.Inc()
	return new(decArena)
}}

// getArena returns an empty arena holding one base reference (the
// filler's; dropped when the fill completes).
func getArena() *decArena {
	a := arenaPool.Get().(*decArena)
	a.subs = a.subs[:0]
	a.prevs = a.prevs[:0]
	a.refs.Store(1)
	return a
}

func (a *decArena) retain() {
	if a != nil {
		a.refs.Add(1)
	}
}

func (a *decArena) release() {
	if a == nil {
		return
	}
	if a.refs.Add(-1) == 0 && cap(a.subs) <= maxArenaEntries {
		arenaPool.Put(a)
	}
}

// carve extends the arena by n entries and returns the capacity-pinned
// sub-slices. A growth reallocation is safe: slices carved earlier keep
// the orphaned backing array alive, and the refcount still covers them.
func (a *decArena) carve(n int) ([]vtime.SubscriberID, []logvol.Index) {
	base := len(a.subs)
	a.subs = slices.Grow(a.subs, n)[:base+n]
	a.prevs = slices.Grow(a.prevs, n)[:base+n]
	return a.subs[base : base+n : base+n], a.prevs[base : base+n : base+n]
}

// decRec is one decoded PFS record held in the per-pubend decode cache.
// Its subs/prevs slices are carved from a pooled, ref-counted arena (nil
// for cold-path decodes that own their slices); every holder — the cache
// itself, and each chain walk between recCache.get and its release —
// accounts for one arena reference.
type decRec struct {
	ts    vtime.Timestamp
	subs  []vtime.SubscriberID
	prevs []logvol.Index
	arena *decArena
}

// recCache is the per-pubend decoded-record cache: concurrent catchup
// streams walking overlapping backpointer chains (the common case — a churn
// storm reconnects many subscribers at similar lag) share one decode of
// each record instead of re-reading and re-parsing it per subscriber.
type recCache struct {
	mu      sync.Mutex
	recs    map[logvol.Index]*decRec
	entries int // total subscriber entries across cached records
	budget  int
}

func newRecCache(budget int) *recCache {
	return &recCache{recs: make(map[logvol.Index]*decRec), budget: budget}
}

// get returns the cached record at idx with one arena reference held for
// the caller, who must release it (rec.arena.release()) when done with
// the record's slices. Taking the reference under c.mu makes it atomic
// with respect to eviction's release.
func (c *recCache) get(idx logvol.Index) *decRec {
	c.mu.Lock()
	r := c.recs[idx]
	if r != nil {
		r.arena.retain()
	}
	c.mu.Unlock()
	return r
}

// put inserts a record, taking an arena reference for the cache (dropped
// when the entry is evicted, pruned, or loses the insert race).
func (c *recCache) put(idx logvol.Index, r *decRec) {
	c.mu.Lock()
	if _, ok := c.recs[idx]; !ok {
		r.arena.retain()
		c.recs[idx] = r
		c.entries += len(r.subs)
		if c.entries > c.budget {
			c.evictLocked()
		}
	}
	c.mu.Unlock()
}

// evictLocked drops lowest-index entries until half the budget is free;
// catchup walks move toward the tail as release floors advance, so low
// indexes are the coldest. Caller holds c.mu.
func (c *recCache) evictLocked() {
	keys := make([]logvol.Index, 0, len(c.recs))
	for idx := range c.recs {
		keys = append(keys, idx)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, idx := range keys {
		if c.entries <= c.budget/2 {
			break
		}
		r := c.recs[idx]
		c.entries -= len(r.subs)
		delete(c.recs, idx)
		r.arena.release()
	}
}

// pruneBelow drops entries below min (chopped records).
func (c *recCache) pruneBelow(min logvol.Index) {
	c.mu.Lock()
	for idx, r := range c.recs {
		if idx < min {
			c.entries -= len(r.subs)
			delete(c.recs, idx)
			r.arena.release()
		}
	}
	c.mu.Unlock()
}

// Options configures a PFS.
type Options struct {
	// Volume is the shared log volume (required).
	Volume *logvol.Volume
	// Meta is the metastore holding lastTimestamp/lastIndex (required).
	Meta *metastore.Store
	// SyncEvery syncs the volume and checkpoints metadata every N
	// writes per pubend; 0 disables automatic syncs (explicit Sync
	// only). The paper's microbenchmark uses one sync per 200 events.
	SyncEvery int
	// ImpreciseBucket, when positive, enables the paper's imprecise
	// mode: once a record includes a subscriber, further matches for
	// that subscriber within the next ImpreciseBucket ticks are not
	// written; reads expand each recorded tick to a bucket-wide Q span
	// instead. This trades write volume for retrieving and refiltering
	// unnecessary events during catchup.
	ImpreciseBucket vtime.Timestamp
}

// PFS is the persistent filtering subsystem of one SHB. All methods are
// safe for concurrent use; writes for a given pubend must be issued in
// timestamp order (the constream, its only writer, delivers in order).
type PFS struct {
	opts Options

	mu      sync.Mutex
	pubends map[vtime.PubendID]*pubendState

	// Background checkpointing: the write path hands checkpoint snapshots
	// to a flusher goroutine instead of stalling the constream on the
	// volume fsync. Recovery replays the log tail past the checkpoint, so
	// a lagging (or lost) checkpoint costs replay time, never correctness.
	flushing    bool
	pendingSnap ckptSnap
	flushDone   chan struct{} // closed when the current flusher exits
	flushErr    error         // last background flush failure, surfaced by Sync
}

// ckptSnap is one checkpoint snapshot: the per-pubend metadata captured
// under p.mu, flushed to disk without the lock.
type ckptSnap map[vtime.PubendID]pubCkpt

// dirtyIdx is one unpersisted chain-head advance: the new head index plus
// the (cached, immutable) metastore key it is persisted under. Carrying
// the key in the delta lets the background flusher build the checkpoint
// transaction without allocating a key string per subscriber per flush —
// and without touching pubendState off the lock.
type dirtyIdx struct {
	idx logvol.Index
	key string
}

type pubCkpt struct {
	lastTS  vtime.Timestamp
	scanned logvol.Index
	tsKey   string                          // cached keyLastTS(pub)
	scanKey string                          // cached keyScanned(pub)
	lastIdx map[vtime.SubscriberID]dirtyIdx // chain heads advanced since the previous capture
}

// idxMapPool recycles the delta maps that shuttle between the write path
// and the checkpoint flusher.
var idxMapPool = sync.Pool{
	New: func() any { return make(map[vtime.SubscriberID]dirtyIdx, 64) },
}

func getIdxMap() map[vtime.SubscriberID]dirtyIdx {
	return idxMapPool.Get().(map[vtime.SubscriberID]dirtyIdx)
}

func putIdxMap(m map[vtime.SubscriberID]dirtyIdx) {
	clear(m)
	idxMapPool.Put(m)
}

// recPos locates one live record: its timestamp and log index.
type recPos struct {
	ts  vtime.Timestamp
	idx logvol.Index
}

type pubendState struct {
	stream *logvol.Stream
	lastTS vtime.Timestamp
	chopTS vtime.Timestamp // records with ts <= chopTS are discarded (L)
	// live lists the live records in ascending (ts, idx) order — appended
	// by Write, rebuilt by the recovery scan, trimmed by Chop — so Chop
	// finds the index of a timestamp by binary search instead of reading
	// the log. Recovery scans only past the metadata checkpoint, so after a
	// restart the oldest live records may be missing from the front; Chop
	// searches those in the log (chopIdxUnlisted).
	live    []recPos
	lastIdx map[vtime.SubscriberID]logvol.Index
	// dirty holds the chain heads advanced since the last checkpoint
	// capture; checkpoints persist only these deltas (the metastore
	// accumulates per-key state, so recovery still sees every head).
	// At churn scale this is the difference between rewriting every
	// subscriber's entry each checkpoint and writing the few that moved.
	dirty map[vtime.SubscriberID]dirtyIdx
	// idxKeys caches each subscriber's metastore key (guarded by p.mu).
	idxKeys map[vtime.SubscriberID]string
	// tsKey/scanKey cache the pubend's own checkpoint keys.
	tsKey   string
	scanKey string
	scanned logvol.Index                           // metadata checkpoint covers indexes <= scanned
	writes  int                                    // writes since last sync
	nextOK  map[vtime.SubscriberID]vtime.Timestamp // imprecise mode gate
	cache   *recCache                              // decoded records shared by concurrent reads
}

// markDirtyLocked records sub's new chain head for the next checkpoint
// delta. Caller holds p.mu.
func (st *pubendState) markDirtyLocked(pub vtime.PubendID, sub vtime.SubscriberID, idx logvol.Index) {
	d, ok := st.dirty[sub]
	if !ok {
		d.key = st.idxKeys[sub]
		if d.key == "" {
			d.key = keyLastIdx(pub, sub)
			st.idxKeys[sub] = d.key
		}
	}
	d.idx = idx
	st.dirty[sub] = d
}

// ReadResult is the outcome of one batch read for a subscriber.
type ReadResult struct {
	// QSpans are the tick spans in (from, upTo] that are Q for the
	// subscriber — events must be retrieved (and, in imprecise mode,
	// refiltered) for them. Ascending and disjoint.
	QSpans []tick.Span
	// LostUpTo is the end of the chopped (early-released) prefix
	// encountered while walking, if any; ticks in (from, LostUpTo] are L
	// and the subscriber must receive a gap. Zero when none.
	LostUpTo vtime.Timestamp
	// KnownUpTo bounds the read's coverage: every tick in
	// (from, KnownUpTo] not inside a QSpan (and above LostUpTo) is S.
	KnownUpTo vtime.Timestamp
	// Complete is false when the read was truncated by maxQ; the caller
	// should read again from KnownUpTo after consuming these spans.
	Complete bool
}

// New creates a PFS over the given volume and metastore, recovering any
// pubend streams already present.
func New(opts Options) (*PFS, error) {
	if opts.Volume == nil || opts.Meta == nil {
		return nil, errors.New("pfs: Volume and Meta are required")
	}
	p := &PFS{opts: opts, pubends: make(map[vtime.PubendID]*pubendState)}
	for _, name := range opts.Volume.StreamNames() {
		var pub uint64
		if n, err := fmt.Sscanf(name, "pfs/%d", &pub); n != 1 || err != nil {
			continue
		}
		if _, err := p.recoverPubend(vtime.PubendID(pub)); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func streamName(pub vtime.PubendID) string { return "pfs/" + strconv.FormatUint(uint64(pub), 10) }

func keyLastTS(pub vtime.PubendID) string { return "lastts/" + strconv.FormatUint(uint64(pub), 10) }

func keyScanned(pub vtime.PubendID) string { return "scan/" + strconv.FormatUint(uint64(pub), 10) }

func keyChopTS(pub vtime.PubendID) string { return "chopts/" + strconv.FormatUint(uint64(pub), 10) }

func keyLastIdx(pub vtime.PubendID, sub vtime.SubscriberID) string {
	return "lastidx/" + strconv.FormatUint(uint64(pub), 10) + "/" +
		strconv.FormatUint(uint64(sub), 10)
}

// state returns (creating if necessary) the per-pubend state; callers hold
// p.mu.
func (p *PFS) state(pub vtime.PubendID) (*pubendState, error) {
	if st, ok := p.pubends[pub]; ok {
		return st, nil
	}
	stream, err := p.opts.Volume.Stream(streamName(pub))
	if err != nil {
		return nil, fmt.Errorf("pfs stream: %w", err)
	}
	st := &pubendState{
		stream:  stream,
		lastIdx: make(map[vtime.SubscriberID]logvol.Index),
		dirty:   getIdxMap(),
		idxKeys: make(map[vtime.SubscriberID]string),
		tsKey:   keyLastTS(pub),
		scanKey: keyScanned(pub),
		nextOK:  make(map[vtime.SubscriberID]vtime.Timestamp),
		cache:   newRecCache(recCacheBudget),
	}
	p.pubends[pub] = st
	return st, nil
}

// recoverPubend rebuilds in-memory metadata for one pubend: metastore
// checkpoint plus a scan of records beyond it.
func (p *PFS) recoverPubend(pub vtime.PubendID) (*pubendState, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, err := p.state(pub)
	if err != nil {
		return nil, err
	}
	meta := p.opts.Meta
	if v, ok := meta.GetUint64(metaTable, keyLastTS(pub)); ok {
		st.lastTS = vtime.Timestamp(v)
	}
	if v, ok := meta.GetUint64(metaTable, keyScanned(pub)); ok {
		st.scanned = logvol.Index(v)
	}
	if v, ok := meta.GetUint64(metaTable, keyChopTS(pub)); ok {
		st.chopTS = vtime.Timestamp(v)
	}
	prefix := "lastidx/" + strconv.FormatUint(uint64(pub), 10) + "/"
	for _, key := range meta.Keys(metaTable) {
		if len(key) <= len(prefix) || key[:len(prefix)] != prefix {
			continue
		}
		sub, err := strconv.ParseUint(key[len(prefix):], 10, 32)
		if err != nil {
			continue
		}
		if v, ok := meta.GetUint64(metaTable, key); ok {
			st.lastIdx[vtime.SubscriberID(sub)] = logvol.Index(v)
		}
	}
	// Replay the tail past the checkpoint.
	first := st.stream.FirstLiveIndex()
	start := st.scanned + 1
	if first > start {
		start = first
	}
	last := st.stream.LastIndex()
	for idx := start; idx != logvol.NilIndex && idx <= last; idx++ {
		payload, err := st.stream.Read(idx)
		if errors.Is(err, logvol.ErrChopped) || errors.Is(err, logvol.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("pfs recover: %w", err)
		}
		ts, subs, _, derr := decodeRecord(payload)
		if derr != nil {
			return nil, fmt.Errorf("pfs recover: %w", derr)
		}
		if ts > st.lastTS {
			st.lastTS = ts
		}
		st.live = append(st.live, recPos{ts: ts, idx: idx})
		for _, sub := range subs {
			if idx > st.lastIdx[sub] {
				st.lastIdx[sub] = idx
				// Replayed heads are ahead of the persisted checkpoint;
				// mark them dirty so the next capture (which also advances
				// the persisted scan index past them) re-persists them.
				st.markDirtyLocked(pub, sub, idx)
			}
		}
	}
	return st, nil
}

// Write records that timestamp ts of pubend pub matched exactly the given
// subscribers (the tick is S for everyone else). Writes must be issued in
// increasing timestamp order per pubend; a timestamp at or before the last
// written one is rejected. An empty subscriber list writes nothing (the
// tick is S for all subscribers).
func (p *PFS) Write(pub vtime.PubendID, ts vtime.Timestamp, subs []vtime.SubscriberID) error {
	if len(subs) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st, err := p.state(pub)
	if err != nil {
		return err
	}
	if ts <= st.lastTS {
		return fmt.Errorf("pfs: non-monotonic write ts %d after %d for %s", ts, st.lastTS, pub)
	}
	include := subs
	if p.opts.ImpreciseBucket > 0 {
		include = include[:0:0]
		for _, sub := range subs {
			if ts >= st.nextOK[sub] {
				include = append(include, sub)
			}
		}
		if len(include) == 0 {
			// Covered by earlier bucket-wide Q spans; advance
			// lastTS so reads treat this tick as within coverage.
			st.lastTS = ts
			return nil
		}
	}
	// Encode into a pooled buffer: Append is durable on return (on a
	// group-commit volume it blocks until the covering fsync), so the
	// bytes can be recycled as soon as it comes back — one record encode
	// per matched timestamp without a per-write allocation.
	bufp := message.GetEncodeBuffer()
	payload := binary.BigEndian.AppendUint64((*bufp)[:0], uint64(ts))
	for _, sub := range include {
		payload = binary.BigEndian.AppendUint64(payload, uint64(sub))
		payload = binary.BigEndian.AppendUint64(payload, uint64(st.lastIdx[sub]))
	}
	idx, err := st.stream.Append(payload)
	*bufp = payload[:0]
	message.PutEncodeBuffer(bufp)
	if err != nil {
		return fmt.Errorf("pfs write: %w", err)
	}
	tWrites.Inc()
	tWriteBytes.Add(int64(len(payload)))
	st.live = append(st.live, recPos{ts: ts, idx: idx})
	for _, sub := range include {
		st.lastIdx[sub] = idx
		st.markDirtyLocked(pub, sub, idx)
		if p.opts.ImpreciseBucket > 0 {
			st.nextOK[sub] = ts + p.opts.ImpreciseBucket
		}
	}
	st.lastTS = ts
	st.writes++
	if p.opts.SyncEvery > 0 && st.writes >= p.opts.SyncEvery {
		// Hand the checkpoint to the background flusher: the constream
		// (the serialized engine driving Write) must not stall on the
		// checkpoint fsync. The snapshot is captured before the flush's
		// fsync, so a persisted checkpoint only ever describes records
		// the same flush made durable.
		p.scheduleFlushLocked(p.captureLocked())
	}
	return nil
}

// Sync makes all writes durable and checkpoints metadata synchronously; the
// constream calls it at its group-commit points and tests rely on its
// blocking contract. It also surfaces the last background flush error.
func (p *PFS) Sync() error {
	p.mu.Lock()
	snap := p.captureLocked()
	err := p.flushErr
	p.flushErr = nil
	p.mu.Unlock()
	if err != nil {
		// The captured deltas were not persisted; put them back so a
		// later checkpoint carries them (a delta must never be dropped
		// once the scan index can advance past it).
		p.requeueSnap(snap)
		return err
	}
	if err := p.flushSnapshot(snap); err != nil {
		p.requeueSnap(snap)
		return err
	}
	releaseSnap(snap)
	return nil
}

// captureLocked snapshots checkpoint metadata for every pubend with
// unsynced writes and resets their write counters: last timestamp, scan
// index, and the chain-head deltas accumulated since the previous capture
// (the dirty map is handed to the snapshot whole and replaced with a
// pooled empty one — no copying, no per-subscriber work for the clean
// majority). Caller holds p.mu.
func (p *PFS) captureLocked() ckptSnap {
	var snap ckptSnap
	for pub, st := range p.pubends {
		if st.writes == 0 && len(st.dirty) == 0 {
			continue
		}
		if snap == nil {
			snap = make(ckptSnap, 2)
		}
		snap[pub] = pubCkpt{
			lastTS:  st.lastTS,
			scanned: st.stream.LastIndex(),
			tsKey:   st.tsKey,
			scanKey: st.scanKey,
			lastIdx: st.dirty,
		}
		st.dirty = getIdxMap()
		st.writes = 0
	}
	return snap
}

// requeueSnap folds an unflushed snapshot's deltas back into the per-pubend
// dirty state after a failed flush, so the next checkpoint re-persists
// them. Entries dirtied again since the capture win (they are newer).
func (p *PFS) requeueSnap(snap ckptSnap) {
	if len(snap) == 0 {
		return
	}
	p.mu.Lock()
	for pub, c := range snap {
		st, ok := p.pubends[pub]
		if !ok {
			continue
		}
		for sub, d := range c.lastIdx {
			if _, newer := st.dirty[sub]; !newer {
				st.dirty[sub] = d
			}
		}
		if st.writes == 0 && len(st.dirty) > 0 {
			st.writes = 1 // ensure the next capture picks the pubend up
		}
		putIdxMap(c.lastIdx)
	}
	p.mu.Unlock()
}

// releaseSnap recycles a flushed snapshot's delta maps.
func releaseSnap(snap ckptSnap) {
	for _, c := range snap {
		putIdxMap(c.lastIdx)
	}
}

// scheduleFlushLocked hands a snapshot to the background flusher, merging
// it into the pending one (newest wins per pubend and per subscriber) when
// a flush is already in flight. Caller holds p.mu.
func (p *PFS) scheduleFlushLocked(snap ckptSnap) {
	if len(snap) == 0 {
		return
	}
	if p.flushing {
		if p.pendingSnap == nil {
			p.pendingSnap = make(ckptSnap, len(snap))
		}
		for pub, c := range snap {
			pc, ok := p.pendingSnap[pub]
			if !ok {
				p.pendingSnap[pub] = c
				continue
			}
			// Merge the newer deltas over the pending ones; both maps
			// hold only changes, so neither may be discarded outright.
			for sub, d := range c.lastIdx {
				pc.lastIdx[sub] = d
			}
			pc.lastTS, pc.scanned = c.lastTS, c.scanned
			p.pendingSnap[pub] = pc
			putIdxMap(c.lastIdx)
		}
		return
	}
	p.flushing = true
	p.flushDone = make(chan struct{})
	go p.flushLoop(snap, p.flushDone)
}

// flushLoop flushes snapshots until none are pending. Errors are counted
// and kept for the next synchronous Sync; a failed checkpoint only delays
// recovery (longer tail replay), it never loses acknowledged data — its
// deltas are requeued so a later checkpoint persists them.
func (p *PFS) flushLoop(snap ckptSnap, done chan struct{}) {
	defer close(done)
	for {
		if err := p.flushSnapshot(snap); err != nil {
			tCkptErrors.Inc()
			p.mu.Lock()
			p.flushErr = err
			p.mu.Unlock()
			p.requeueSnap(snap)
		} else {
			releaseSnap(snap)
		}
		p.mu.Lock()
		if p.pendingSnap == nil {
			p.flushing = false
			p.mu.Unlock()
			return
		}
		snap = p.pendingSnap
		p.pendingSnap = nil
		p.mu.Unlock()
	}
}

// flushSnapshot makes the snapshot's records durable, then persists the
// checkpoint. The order matters: the volume sync happens after the capture,
// so every index the checkpoint names is on stable storage before the
// metastore commit that records it. Only the chain heads that moved since
// the previous checkpoint are written — the metastore accumulates per-key
// state, so recovery reconstructs the full map from the union of deltas.
func (p *PFS) flushSnapshot(snap ckptSnap) error {
	if err := p.opts.Volume.Sync(); err != nil {
		return fmt.Errorf("pfs sync: %w", err)
	}
	if len(snap) == 0 {
		return nil
	}
	tx := p.opts.Meta.Begin()
	for _, c := range snap {
		tx.PutUint64(metaTable, c.tsKey, uint64(c.lastTS))
		tx.PutUint64(metaTable, c.scanKey, uint64(c.scanned))
		for _, d := range c.lastIdx {
			tx.PutUint64(metaTable, d.key, uint64(d.idx))
		}
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("pfs sync meta: %w", err)
	}
	tCkptFlushes.Inc()
	return nil
}

// WaitFlush blocks until any in-flight background checkpoint flush
// completes; shutdown paths and tests use it.
func (p *PFS) WaitFlush() {
	p.mu.Lock()
	done := p.flushDone
	flushing := p.flushing
	p.mu.Unlock()
	if flushing && done != nil {
		<-done
	}
}

// LastTimestamp reports the latest Q tick written for the pubend.
func (p *PFS) LastTimestamp(pub vtime.PubendID) vtime.Timestamp {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.pubends[pub]; ok {
		return st.lastTS
	}
	return vtime.ZeroTS
}

// Read performs one batch read for a subscriber: the tick knowledge for
// pubend pub in the interval (from, to]. maxQ bounds the number of Q spans
// returned (the paper's read buffer, e.g. 5000); 0 means unlimited.
//
// Per the paper: ticks above lastTimestamp are returned as one Q span
// (safe imprecision — the PFS does not know them yet); ticks between the
// subscriber's last record and lastTimestamp are S; the backpointer chain
// from lastIndex(sub) yields the subscriber's Q ticks further back, with S
// implicit between them.
func (p *PFS) Read(pub vtime.PubendID, sub vtime.SubscriberID, from, to vtime.Timestamp, maxQ int) (ReadResult, error) {
	return p.ReadAppend(pub, sub, from, to, maxQ, nil)
}

// ReadAppend is Read with a caller-supplied Q-span buffer: the result's
// QSpans use dst's backing array (grown as needed), so steady-state
// catchup pumps can reuse one buffer per shard instead of allocating per
// read. dst should be passed with length zero.
func (p *PFS) ReadAppend(pub vtime.PubendID, sub vtime.SubscriberID, from, to vtime.Timestamp, maxQ int, dst []tick.Span) (ReadResult, error) {
	tReads.Inc()
	p.mu.Lock()
	st, ok := p.pubends[pub]
	if !ok {
		p.mu.Unlock()
		// Nothing ever written: everything up to "to" is S as far as
		// the PFS knows; there is no lastTimestamp so the whole range
		// is unknown → one Q span.
		if to <= from {
			return ReadResult{QSpans: dst, KnownUpTo: from, Complete: true}, nil
		}
		return ReadResult{
			QSpans:    append(dst, tick.Span{Start: from + 1, End: to}),
			KnownUpTo: to,
			Complete:  true,
		}, nil
	}
	lastTS := st.lastTS
	chopTS := st.chopTS
	chainHead := st.lastIdx[sub]
	stream := st.stream
	cache := st.cache
	bucket := p.opts.ImpreciseBucket
	p.mu.Unlock()

	if to <= from {
		return ReadResult{QSpans: dst, KnownUpTo: from, Complete: true}, nil
	}

	res := ReadResult{QSpans: dst, Complete: true}
	floor := from
	if chopTS > floor {
		// The early-released prefix overlaps the request: ticks in
		// (from, chopTS] are L and the subscriber must get a gap.
		res.LostUpTo = vtime.MinTS(chopTS, to)
		floor = res.LostUpTo
	}

	// Walk the backpointer chain newest→oldest collecting matched spans
	// inside (floor, min(to, lastTS)]. Records come from the shared decode
	// cache; misses are filled with one vectored range read covering the
	// span of records below the miss, so concurrent catchup streams at
	// similar lag share both the syscalls and the decode work.
	var walked int64
	defer func() { tReadWalk.Observe(walked) }()
	bufs := readBufPool.Get().(*readBufs)
	reversed := bufs.reversed[:0]
	firstLive := stream.FirstLiveIndex()
	ceil := vtime.MinTS(to, lastTS)
	idx := chainHead
	for idx != logvol.NilIndex {
		if firstLive == logvol.NilIndex || idx < firstLive {
			// Chain descends into the chopped prefix; everything
			// below is covered by LostUpTo.
			break
		}
		walked++
		rec := cache.get(idx) // holds one arena ref for this walk
		if rec == nil {
			tDecMisses.Inc()
			var err error
			rec, err = fillRecord(stream, cache, idx, firstLive, bufs)
			if errors.Is(err, logvol.ErrChopped) {
				break
			}
			if err != nil {
				bufs.reversed = reversed[:0]
				readBufPool.Put(bufs)
				return ReadResult{}, fmt.Errorf("pfs read: %w", err)
			}
		} else {
			tDecHits.Inc()
		}
		next := logvol.NilIndex
		for i, s := range rec.subs {
			if s == sub {
				next = rec.prevs[i]
				break
			}
		}
		ts := rec.ts
		// Done with the record's slices: drop the reader hold before any
		// break so a concurrent eviction can recycle the arena.
		rec.arena.release()
		if ts <= floor {
			break
		}
		if ts <= ceil {
			end := ts
			if bucket > 0 {
				end = vtime.MinTS(ts+bucket-1, ceil)
			}
			reversed = append(reversed, tick.Span{Start: ts, End: end})
		}
		idx = next
	}

	// Assemble ascending spans: chain spans then the unknown tail.
	for i := len(reversed) - 1; i >= 0; i-- {
		appendSpan(&res.QSpans, reversed[i])
	}
	bufs.reversed = reversed[:0]
	readBufPool.Put(bufs)
	if lastTS < to {
		// Ticks beyond the PFS's knowledge are Q (paper: "sets all
		// ticks from [lastTimestamp+1, to] in the read buffer to Q").
		start := vtime.MaxOfTS(lastTS, floor) + 1
		if start <= to {
			appendSpan(&res.QSpans, tick.Span{Start: start, End: to})
		}
	}
	res.KnownUpTo = to

	if maxQ > 0 && len(res.QSpans) > maxQ {
		res.QSpans = res.QSpans[:maxQ]
		res.KnownUpTo = res.QSpans[maxQ-1].End
		res.Complete = false
	}
	return res, nil
}

// fillRecord loads the record at idx into the decode cache. It first tries
// one vectored range read starting fillSpan records below idx (clamped to
// the live prefix), decoding every record of the stream it covers — the
// records a descending chain walk will visit next, and that other
// subscribers' walks at similar lag will want too. If the window cannot
// reach idx (fat interleaved records, a torn tail, a concurrent chop), it
// falls back to a precise single-record read, which is also the path that
// surfaces real corruption as an error.
// On success the returned record carries one arena reference held for the
// caller (mirroring recCache.get), released when the caller is done with
// its slices.
func fillRecord(stream *logvol.Stream, cache *recCache, idx, firstLive logvol.Index, bufs *readBufs) (*decRec, error) {
	from := firstLive
	if idx >= firstLive+fillSpan {
		from = idx - fillSpan + 1
	}
	// One arena backs every record decoded from this window; the filler's
	// base reference keeps it alive until the cache (and the returned
	// reader hold) have taken theirs.
	arena := getArena()
	err := stream.ReadRange(from, bufs.win, func(i logvol.Index, payload []byte) bool {
		ts, subs, prevs, derr := decodeRecordArena(arena, payload)
		if derr != nil {
			return false
		}
		cache.put(i, &decRec{ts: ts, subs: subs, prevs: prevs, arena: arena})
		return i < idx
	})
	if err == nil {
		tRangeReads.Inc()
		if rec := cache.get(idx); rec != nil {
			arena.release() // reader hold taken by get; drop filler base
			return rec, nil
		}
	}
	payload, err := stream.ReadInto(idx, bufs.rec)
	if err != nil {
		arena.release()
		return nil, err
	}
	ts, subs, prevs, derr := decodeRecordArena(arena, payload)
	if derr != nil {
		arena.release()
		return nil, derr
	}
	rec := &decRec{ts: ts, subs: subs, prevs: prevs, arena: arena}
	cache.put(idx, rec) // cache takes its own reference
	// The filler base transfers to the caller as the reader hold.
	return rec, nil
}

// appendSpan appends sp, merging with the previous span when adjacent or
// overlapping (bucketed spans may overlap).
func appendSpan(spans *[]tick.Span, sp tick.Span) {
	if n := len(*spans); n > 0 {
		last := &(*spans)[n-1]
		if sp.Start <= last.End+1 {
			if sp.End > last.End {
				last.End = sp.End
			}
			return
		}
	}
	*spans = append(*spans, sp)
}

// Chop discards PFS records with timestamps at or below upTo for the
// pubend; the release protocol calls it as released(p) advances. Reads
// whose chains descend below the chop observe the loss boundary.
func (p *PFS) Chop(pub vtime.PubendID, upTo vtime.Timestamp) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.pubends[pub]
	if !ok {
		return nil
	}
	if upTo <= st.chopTS {
		return nil
	}
	// The chop index is that of the last live record at or below upTo.
	var chopIdx logvol.Index
	n := sort.Search(len(st.live), func(i int) bool { return st.live[i].ts > upTo })
	if n > 0 {
		chopIdx = st.live[n-1].idx
	} else {
		var err error
		if chopIdx, err = st.chopIdxUnlisted(upTo); err != nil {
			return fmt.Errorf("pfs chop search: %w", err)
		}
	}
	st.chopTS = upTo
	if err := p.opts.Meta.Begin().
		PutUint64(metaTable, keyChopTS(pub), uint64(upTo)).Commit(); err != nil {
		return fmt.Errorf("pfs chop meta: %w", err)
	}
	if chopIdx == logvol.NilIndex {
		return nil
	}
	if err := st.stream.Chop(chopIdx); err != nil {
		return fmt.Errorf("pfs chop: %w", err)
	}
	st.live = st.live[:copy(st.live, st.live[n:])]
	st.cache.pruneBelow(chopIdx + 1)
	return nil
}

// chopIdxUnlisted finds the last record at or below upTo among the live
// records older than the (ts, idx) list — the ones a restart found covered
// by the metadata checkpoint and did not read — by binary search over their
// indexes: O(log n) reads, and none at all once a chop has passed them.
// NilIndex means there is no such record.
func (st *pubendState) chopIdxUnlisted(upTo vtime.Timestamp) (logvol.Index, error) {
	lo := st.stream.FirstLiveIndex()
	if lo == logvol.NilIndex {
		return logvol.NilIndex, nil
	}
	hi := st.stream.LastIndex() + 1
	if len(st.live) > 0 {
		hi = st.live[0].idx
	}
	if hi <= lo {
		return logvol.NilIndex, nil
	}
	bufs := readBufPool.Get().(*readBufs)
	defer readBufPool.Put(bufs)
	var rerr error
	k := sort.Search(int(hi-lo), func(i int) bool {
		// A hole in the index sequence stands for its successor.
		for idx := lo + logvol.Index(i); idx < hi; idx++ {
			payload, err := st.stream.ReadInto(idx, bufs.rec)
			if errors.Is(err, logvol.ErrChopped) || errors.Is(err, logvol.ErrNotFound) {
				continue
			}
			if err == nil && len(payload) < recBase {
				err = fmt.Errorf("malformed record of %d bytes", len(payload))
			}
			if err != nil {
				rerr = err
				return true
			}
			return vtime.Timestamp(binary.BigEndian.Uint64(payload)) > upTo
		}
		return true
	})
	if rerr != nil || k == 0 {
		return logvol.NilIndex, rerr
	}
	return lo + logvol.Index(k) - 1, nil
}

// RecordCount reports the number of live records for the pubend; tests and
// the microbenchmark use it.
func (p *PFS) RecordCount(pub vtime.PubendID) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.pubends[pub]; ok {
		return st.stream.Len()
	}
	return 0
}

// decodeRecord parses a PFS record into its timestamp, subscriber list and
// backpointer list.
func decodeRecord(payload []byte) (vtime.Timestamp, []vtime.SubscriberID, []logvol.Index, error) {
	if len(payload) < recBase || (len(payload)-recBase)%recPerSub != 0 {
		return 0, nil, nil, fmt.Errorf("pfs: malformed record of %d bytes", len(payload))
	}
	ts := vtime.Timestamp(binary.BigEndian.Uint64(payload))
	n := (len(payload) - recBase) / recPerSub
	subs := make([]vtime.SubscriberID, n)
	prevs := make([]logvol.Index, n)
	for i := 0; i < n; i++ {
		off := recBase + i*recPerSub
		subs[i] = vtime.SubscriberID(binary.BigEndian.Uint64(payload[off:]))
		prevs[i] = logvol.Index(binary.BigEndian.Uint64(payload[off+8:]))
	}
	return ts, subs, prevs, nil
}

// decodeRecordArena is decodeRecord with the output slices carved from a
// pooled arena instead of freshly allocated — the hot-path variant used by
// fillRecord (recovery, the cold path, keeps the allocating form).
func decodeRecordArena(a *decArena, payload []byte) (vtime.Timestamp, []vtime.SubscriberID, []logvol.Index, error) {
	if len(payload) < recBase || (len(payload)-recBase)%recPerSub != 0 {
		return 0, nil, nil, fmt.Errorf("pfs: malformed record of %d bytes", len(payload))
	}
	ts := vtime.Timestamp(binary.BigEndian.Uint64(payload))
	n := (len(payload) - recBase) / recPerSub
	subs, prevs := a.carve(n)
	for i := 0; i < n; i++ {
		off := recBase + i*recPerSub
		subs[i] = vtime.SubscriberID(binary.BigEndian.Uint64(payload[off:]))
		prevs[i] = logvol.Index(binary.BigEndian.Uint64(payload[off+8:]))
	}
	return ts, subs, prevs, nil
}
