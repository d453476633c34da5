// Package pubend implements publishing endpoints: the persistent, ordered,
// timestamp-indexed event streams maintained by publisher hosting brokers
// (paper, sections 2 and 3).
//
// A pubend is the single place in the whole system where an event is
// persistently logged ("only once event logging"). It assigns strictly
// increasing timestamps, serves recovery nacks from its log, and runs the
// event retention and release protocol: converting an increasing prefix of
// its stream to L (lost) once every durable subscriber has acknowledged it
// — or earlier, under an administratively configured early-release policy.
package pubend

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/logvol"
	"repro/internal/message"
	"repro/internal/telemetry"
	"repro/internal/tick"
	"repro/internal/vtime"
)

// Pubend instruments (process-wide; see internal/telemetry).
var (
	tDrainEvents = telemetry.Default().Histogram("gryphon_pubend_drain_events",
		"Events emitted per knowledge drain (the adaptive batch: one on an idle "+
			"broker, a commit group's worth on a busy one).", telemetry.SizeBuckets)
	tReadErrors = telemetry.Default().Counter("gryphon_pubend_read_errors_total",
		"Event-log reads that failed while building knowledge; the tick is "+
			"withheld (it stays Q downstream and is re-nacked), never emitted as L.")
)

// The pubend persists a horizon record alongside its event log: the clock
// lease (an upper bound on every virtual timestamp it has stamped or
// asserted silence for) and the release-protocol floors. Without it, a
// pubend whose log has been fully released and chopped — the steady state
// of a healthy system — would recover with a zero clock and stamp new
// events in the past, below the silence horizon it had already asserted;
// downstream exactly-once cursors then discard those events forever, with
// no gap and no nack. Virtual time is never exposed beyond the persisted
// lease, so recovery restoring the clock to the lease can only move it
// forward past everything the previous incarnation promised.
const (
	// leaseWindow is how far past current virtual time each horizon
	// record extends the stamping lease. It bounds both the virtual time
	// skipped by a crash-restart and the horizon write rate (one write
	// per leaseMargin of virtual time under steady load).
	leaseWindow = vtime.Timestamp(2 * time.Second / time.Microsecond)
	leaseMargin = leaseWindow / 2

	horizonRecLen = 32 // lease, loss, released, latestDelivered — 8 bytes each
)

// Policy is an early-release policy: it decides how far the loss horizon
// may advance beyond the fully-acknowledged prefix (paper, section 3).
type Policy interface {
	// LossHorizon returns the highest timestamp that may be converted
	// to L, given the release protocol's aggregated minima: released
	// (Tr), latestDelivered (Td), and the current pubend time (T).
	// Implementations must never return less than released, and must
	// never return more than latestDelivered (so connected non-catchup
	// subscribers never see gaps).
	LossHorizon(released, latestDelivered, now vtime.Timestamp) vtime.Timestamp
}

// RetainUntilReleased is the default policy: no early release; storage is
// reclaimed only once every durable subscriber has acknowledged it.
type RetainUntilReleased struct{}

// LossHorizon implements Policy.
func (RetainUntilReleased) LossHorizon(released, _, _ vtime.Timestamp) vtime.Timestamp {
	return released
}

// MaxRetain is the paper's example PHB-controlled policy: a tick t becomes
// L when t <= Tr, or when t <= Td and T - t > maxRetain. Disconnected
// subscribers whose checkpoint falls more than maxRetain behind risk gap
// messages.
type MaxRetain struct {
	// Retain is the maximum retention interval in virtual time.
	Retain vtime.Timestamp
}

// LossHorizon implements Policy.
func (p MaxRetain) LossHorizon(released, latestDelivered, now vtime.Timestamp) vtime.Timestamp {
	early := now - p.Retain - 1 // highest t with now - t > Retain
	if early > latestDelivered {
		early = latestDelivered
	}
	return vtime.MaxOfTS(released, early)
}

// Options configures a pubend.
type Options struct {
	// ID is the system-wide pubend identifier (required, nonzero).
	ID vtime.PubendID
	// Volume stores the persistent event log (required).
	Volume *logvol.Volume
	// Clock supplies virtual time; nil means a new real-time clock.
	Clock *vtime.Clock
	// Policy is the early-release policy; nil means RetainUntilReleased.
	Policy Policy
	// SyncEveryPublish fsyncs the log on every publish when true. The
	// paper's PHB logs each event before delivery (its 44 ms of the
	// 50 ms end-to-end latency); group-committed configurations leave
	// this false and rely on LogLatency or explicit syncs.
	SyncEveryPublish bool
	// LogLatency, when positive, is added to every publish to model the
	// paper's forced-log disk latency without depending on local disk
	// speed. Used by the end-to-end latency experiment (E1).
	LogLatency time.Duration
}

// Pubend is one publishing endpoint. All methods are safe for concurrent
// use.
type Pubend struct {
	id     vtime.PubendID
	clock  *vtime.Clock
	policy Policy
	opts   Options

	mu      sync.Mutex
	stream  *logvol.Stream
	horizon *logvol.Stream               // persisted clock lease + release floors
	index   []entry                      // (ts, log index) in ascending ts order, above loss
	ready   []*message.Event             // logged, not yet emitted; ascending ts (Drain's input)
	pending map[vtime.Timestamp]struct{} // publishes still being logged
	lease   vtime.Timestamp              // persisted bound on exposed virtual time
	loss    vtime.Timestamp              // L prefix: everything <= loss is lost
	emitted vtime.Timestamp              // knowledge published downstream up to here

	// Release protocol state: aggregated minima from downstream.
	released        vtime.Timestamp // Tr(p)
	latestDelivered vtime.Timestamp // Td(p)
}

type entry struct {
	ts  vtime.Timestamp
	idx logvol.Index
}

// New opens (and recovers) a pubend.
func New(opts Options) (*Pubend, error) {
	if opts.ID == 0 {
		return nil, errors.New("pubend: ID is required")
	}
	if opts.Volume == nil {
		return nil, errors.New("pubend: Volume is required")
	}
	if opts.Clock == nil {
		opts.Clock = vtime.NewClock()
	}
	if opts.Policy == nil {
		opts.Policy = RetainUntilReleased{}
	}
	stream, err := opts.Volume.Stream("pubend/" + strconv.FormatUint(uint64(opts.ID), 10))
	if err != nil {
		return nil, fmt.Errorf("pubend log: %w", err)
	}
	horizon, err := opts.Volume.Stream("pubend/" + strconv.FormatUint(uint64(opts.ID), 10) + "/horizon")
	if err != nil {
		return nil, fmt.Errorf("pubend horizon log: %w", err)
	}
	p := &Pubend{
		id:      opts.ID,
		clock:   opts.Clock,
		policy:  opts.Policy,
		opts:    opts,
		stream:  stream,
		horizon: horizon,
	}
	if err := p.recover(); err != nil {
		return nil, err
	}
	return p, nil
}

// recover rebuilds the in-memory timestamp index from the log and restores
// the clock lease and release floors from the last horizon record.
func (p *Pubend) recover() error {
	if last := p.horizon.LastIndex(); last != logvol.NilIndex {
		payload, err := p.horizon.Read(last)
		if err != nil {
			return fmt.Errorf("pubend horizon recover: %w", err)
		}
		if len(payload) >= horizonRecLen {
			p.lease = vtime.Timestamp(binary.BigEndian.Uint64(payload))
			p.loss = vtime.Timestamp(binary.BigEndian.Uint64(payload[8:]))
			p.released = vtime.Timestamp(binary.BigEndian.Uint64(payload[16:]))
			p.latestDelivered = vtime.Timestamp(binary.BigEndian.Uint64(payload[24:]))
		}
	}
	var scanErr error
	err := p.stream.ForEach(func(idx logvol.Index, payload []byte) bool {
		ev, _, derr := message.DecodeEvent(payload)
		if derr != nil {
			scanErr = derr
			return false
		}
		p.index = append(p.index, entry{ts: ev.Timestamp, idx: idx})
		return true
	})
	if err != nil {
		return fmt.Errorf("pubend recover: %w", err)
	}
	if scanErr != nil {
		return fmt.Errorf("pubend recover: %w", scanErr)
	}
	sort.Slice(p.index, func(i, j int) bool { return p.index[i].ts < p.index[j].ts })
	// A crash between the horizon write and the chop it announced leaves
	// events at or below the persisted loss horizon in the log; finish
	// the chop now so they stay invisible.
	if cut := sort.Search(len(p.index), func(i int) bool { return p.index[i].ts > p.loss }); cut > 0 {
		if cerr := p.stream.Chop(p.index[cut-1].idx); cerr != nil {
			return fmt.Errorf("pubend recover chop: %w", cerr)
		}
		p.index = append(p.index[:0], p.index[cut:]...)
	}
	var lastTS vtime.Timestamp
	if n := len(p.index); n > 0 {
		lastTS = p.index[n-1].ts
		p.emitted = lastTS
		if p.stream.FirstLiveIndex() > 1 && p.horizon.LastIndex() == logvol.NilIndex {
			// The log was chopped by a build that did not persist
			// horizon records, so adopt the conservative bound
			// "everything before the first live event": ticks below
			// it may have been lost.
			p.released = p.index[0].ts - 1
			p.loss = p.released
			p.latestDelivered = p.released
		}
	}
	if p.loss > p.emitted {
		p.emitted = p.loss
	}
	// Restore virtual time above every timestamp the previous incarnation
	// may have exposed: logged events and the persisted lease, which
	// bounds all silence assertions.
	p.clock.Restore(vtime.MaxOfTS(lastTS, p.lease))
	return nil
}

// persistHorizonLocked writes a horizon record extending the clock lease
// to newLease and recording the current release floors. Caller holds p.mu.
func (p *Pubend) persistHorizonLocked(newLease vtime.Timestamp) error {
	if newLease < p.lease {
		newLease = p.lease
	}
	var buf [horizonRecLen]byte
	binary.BigEndian.PutUint64(buf[0:], uint64(newLease))
	binary.BigEndian.PutUint64(buf[8:], uint64(p.loss))
	binary.BigEndian.PutUint64(buf[16:], uint64(p.released))
	binary.BigEndian.PutUint64(buf[24:], uint64(p.latestDelivered))
	idx, err := p.horizon.Append(buf[:])
	if err != nil {
		return fmt.Errorf("pubend horizon: %w", err)
	}
	p.lease = newLease
	if idx > 1 {
		// Only the latest record matters; reclaim the rest.
		p.horizon.Chop(idx - 1) //nolint:errcheck,gosec // space reclaim only; the record above is durable
	}
	return nil
}

// ID reports the pubend identifier.
func (p *Pubend) ID() vtime.PubendID { return p.id }

// Now reports the pubend's current virtual time T(p).
func (p *Pubend) Now() vtime.Timestamp { return p.clock.Now() }

// PublishResult is the completion handle of one asynchronous publish. It
// resolves once the event is durably logged (per the volume's sync policy)
// and indexed, or with the publish error.
type PublishResult struct {
	done chan struct{}

	mu       sync.Mutex
	ev       *message.Event
	err      error
	complete bool
	cb       func(*message.Event, error)
}

// Done returns a channel closed when the publish resolves.
func (r *PublishResult) Done() <-chan struct{} { return r.done }

// Wait blocks until the publish resolves and returns the stamped event or
// the error.
func (r *PublishResult) Wait() (*message.Event, error) {
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ev, r.err
}

// OnDone registers fn to run when the publish resolves (immediately, on
// the caller's goroutine, if it already has). The callback runs off the
// volume's commit loop, so it may acquire broker or pubend locks; it must
// not block indefinitely. Only one callback may be registered.
func (r *PublishResult) OnDone(fn func(*message.Event, error)) {
	r.mu.Lock()
	if r.complete {
		ev, err := r.ev, r.err
		r.mu.Unlock()
		fn(ev, err)
		return
	}
	r.cb = fn
	r.mu.Unlock()
}

func (r *PublishResult) resolve(ev *message.Event, err error) {
	r.mu.Lock()
	r.ev, r.err = ev, err
	r.complete = true
	cb := r.cb
	r.cb = nil
	close(r.done)
	r.mu.Unlock()
	if cb != nil {
		cb(ev, err)
	}
}

// Publish logs the event and assigns its timestamp; the returned event (a
// stamped copy) is durable when Publish returns (subject to the sync
// policy).
func (p *Pubend) Publish(attrs message.Event) (*message.Event, error) {
	return p.PublishAsync(attrs).Wait()
}

// PublishAsync stamps and logs the event without blocking on durability.
// On a SyncGroup volume the append rides the volume's group-commit batch
// and the result resolves once the covering fsync returns — so concurrent
// publishers share fsyncs instead of serializing behind them, and callers
// (the broker's publish path) can pipeline acks. On other policies it
// degrades to the synchronous publish and returns an already-resolved
// result.
func (p *Pubend) PublishAsync(attrs message.Event) *PublishResult {
	res := &PublishResult{done: make(chan struct{})}
	// The stamped event outlives this call — Drain hands it downstream from
	// memory — so it must own its attributes and payload: over an
	// in-process link they still alias the publisher's buffers.
	ev := &message.Event{
		Pubend:  p.id,
		Attrs:   attrs.Attrs.Clone(),
		Payload: bytes.Clone(attrs.Payload),
	}
	p.mu.Lock()
	ev.Timestamp = p.clock.Next()
	if ev.Timestamp+leaseMargin > p.lease {
		// The horizon append below is durable-on-return on SyncGroup
		// volumes (it rides a commit batch), so the lease invariant holds
		// unchanged: no timestamp is exposed beyond a persisted lease.
		// The wait under p.mu is safe — commit completions never need
		// p.mu; callbacks that do run on the committer's dispatcher.
		if err := p.persistHorizonLocked(ev.Timestamp + leaseWindow); err != nil && ev.Timestamp > p.lease {
			// Never stamp beyond the persisted lease: a crash-restart
			// would reuse the timestamp range.
			p.mu.Unlock()
			res.resolve(nil, err)
			return res
		}
	}
	// Mark the tick in-flight so Drain does not emit knowledge past an
	// event that is still being forced to disk: the paper's PHB delivers
	// an event downstream only after it is logged.
	if p.pending == nil {
		p.pending = make(map[vtime.Timestamp]struct{})
	}
	p.pending[ev.Timestamp] = struct{}{}
	grouped := p.opts.Volume.Policy() == logvol.SyncGroup && p.opts.LogLatency == 0
	bufp := message.GetEncodeBuffer()
	payload := message.AppendEvent((*bufp)[:0], ev)
	*bufp = payload
	p.mu.Unlock()

	if grouped {
		// The payload buffer stays pooled-out until the commit batch
		// resolves; the completion callback recycles it.
		t := p.stream.AppendAsync(payload)
		t.OnDone(func(idx logvol.Index, err error) {
			message.PutEncodeBuffer(bufp)
			if err != nil {
				err = fmt.Errorf("pubend publish: %w", err)
			}
			p.finishPublish(res, ev, idx, err)
		})
		return res
	}

	idx, err := p.stream.Append(payload)
	message.PutEncodeBuffer(bufp)
	if err != nil {
		err = fmt.Errorf("pubend publish: %w", err)
	}
	if err == nil && p.opts.SyncEveryPublish {
		if serr := p.opts.Volume.Sync(); serr != nil {
			err = fmt.Errorf("pubend publish sync: %w", serr)
		}
	}
	if err == nil && p.opts.LogLatency > 0 {
		time.Sleep(p.opts.LogLatency)
	}
	p.finishPublish(res, ev, idx, err)
	return res
}

// finishPublish clears the in-flight mark, indexes the logged event, keeps
// it for the next Drain, and resolves the result. It runs on the publisher's
// goroutine (synchronous paths) or the volume committer's dispatcher (group
// path).
func (p *Pubend) finishPublish(res *PublishResult, ev *message.Event, idx logvol.Index, err error) {
	p.mu.Lock()
	delete(p.pending, ev.Timestamp)
	if err != nil {
		p.mu.Unlock()
		res.resolve(nil, err)
		return
	}
	// Concurrent publishes may complete out of timestamp order; keep the
	// index and the ready queue sorted.
	i := sort.Search(len(p.index), func(i int) bool { return p.index[i].ts > ev.Timestamp })
	p.index = slices.Insert(p.index, i, entry{ts: ev.Timestamp, idx: idx})
	i = sort.Search(len(p.ready), func(i int) bool { return p.ready[i].Timestamp > ev.Timestamp })
	p.ready = slices.Insert(p.ready, i, ev)
	p.mu.Unlock()
	res.resolve(ev, nil)
}

// Drain returns the knowledge accumulated since the last Drain: S/L ranges
// and D events covering (prevEmitted, now]. The broker calls it whenever a
// publish commits, and on its tick to assert silence on an idle pubend, to
// push knowledge downstream. The events come from memory (finishPublish
// kept them), not from the log. After Drain, no event will ever be assigned
// a timestamp at or below the drained horizon.
func (p *Pubend) Drain() (*message.Knowledge, vtime.Timestamp) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.clock.Now()
	// Never drain past an in-flight publish: its tick must still be
	// emitted as D once logging completes.
	for ts := range p.pending {
		if ts-1 < now {
			now = ts - 1
		}
	}
	if now+leaseMargin > p.lease {
		if err := p.persistHorizonLocked(now + leaseWindow); err != nil && now > p.lease {
			// Never assert silence beyond the persisted lease: a
			// crash-restart could stamp events inside the range.
			now = p.lease
		}
	}
	if now <= p.emitted {
		return nil, p.emitted
	}
	// Pin the clock so no later publish lands inside the drained range.
	p.clock.Restore(now)
	know := &message.Knowledge{Pubend: p.id}
	filled := p.fillKnowledgeLocked(know, p.emitted, now, p.ready)
	if filled == p.emitted {
		return nil, p.emitted
	}
	p.emitted = filled
	// Everything at or below the horizon has been handed over.
	n := sort.Search(len(p.ready), func(i int) bool { return p.ready[i].Timestamp > filled })
	rest := copy(p.ready, p.ready[n:])
	clear(p.ready[rest:])
	p.ready = p.ready[:rest]
	if len(know.Events) > 0 {
		tDrainEvents.Observe(int64(len(know.Events)))
	}
	return know, filled
}

// ServeNack builds the knowledge response for the requested spans,
// clamping to what this pubend has ever emitted. Spans at or below the
// loss horizon come back as L ranges.
func (p *Pubend) ServeNack(spans []tick.Span) (*message.Knowledge, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	know := &message.Knowledge{Pubend: p.id}
	for _, sp := range spans {
		if sp.Empty() {
			continue
		}
		end := vtime.MinTS(sp.End, p.emitted)
		if end < sp.Start {
			continue
		}
		p.fillKnowledgeLocked(know, sp.Start-1, end, nil)
	}
	return know, nil
}

// fillKnowledgeLocked appends ranges/events covering (from, to] to know and
// returns the timestamp it covered up to: to, or the tick before an event
// it could not read. mem holds, in ascending order, events of the interval
// that are still in memory (Drain's ready queue); the rest are read from
// the log (nack service). Caller holds p.mu.
func (p *Pubend) fillKnowledgeLocked(know *message.Knowledge, from, to vtime.Timestamp, mem []*message.Event) vtime.Timestamp {
	cur := from
	if p.loss > cur {
		lend := vtime.MinTS(p.loss, to)
		know.Ranges = append(know.Ranges, tick.Range{Start: cur + 1, End: lend, Kind: tick.L})
		cur = lend
	}
	// Locate events in (cur, to].
	i := sort.Search(len(p.index), func(i int) bool { return p.index[i].ts > cur })
	for cur < to {
		if i >= len(p.index) || p.index[i].ts > to {
			know.Ranges = append(know.Ranges, tick.Range{Start: cur + 1, End: to, Kind: tick.S})
			return to
		}
		e := p.index[i]
		if e.ts > cur+1 {
			know.Ranges = append(know.Ranges, tick.Range{Start: cur + 1, End: e.ts - 1, Kind: tick.S})
		}
		if len(mem) > 0 && mem[0].Timestamp == e.ts {
			know.Events = append(know.Events, mem[0])
			mem = mem[1:]
		} else if ev, err := p.readEventLocked(e); err == nil {
			know.Events = append(know.Events, ev)
		} else if errors.Is(err, logvol.ErrChopped) {
			// Released and chopped: the tick is lost for good.
			know.Ranges = append(know.Ranges, tick.Range{Start: e.ts, End: e.ts, Kind: tick.L})
		} else {
			// Any other failure says nothing about release. Withhold
			// the tick: downstream keeps it Q and nacks again.
			tReadErrors.Inc()
			return e.ts - 1
		}
		cur = e.ts
		i++
	}
	return cur
}

func (p *Pubend) readEventLocked(e entry) (*message.Event, error) {
	payload, err := p.stream.Read(e.idx)
	if err != nil {
		return nil, err
	}
	ev, _, err := message.DecodeEvent(payload)
	if err != nil {
		return nil, err
	}
	return ev, nil
}

// ReadEvent returns the logged event at the exact timestamp, if present.
func (p *Pubend) ReadEvent(ts vtime.Timestamp) (*message.Event, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := sort.Search(len(p.index), func(i int) bool { return p.index[i].ts >= ts })
	if i >= len(p.index) || p.index[i].ts != ts {
		return nil, fmt.Errorf("pubend: no event at %d: %w", ts, logvol.ErrNotFound)
	}
	return p.readEventLocked(p.index[i])
}

// UpdateRelease feeds the release protocol's aggregated minima (from the
// root of the knowledge tree) into the pubend and applies the early-release
// policy, converting a prefix of the stream to L and reclaiming log
// storage. It returns the new loss horizon.
func (p *Pubend) UpdateRelease(released, latestDelivered vtime.Timestamp) (vtime.Timestamp, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if released > p.released {
		p.released = released
	}
	if latestDelivered > p.latestDelivered {
		p.latestDelivered = latestDelivered
	}
	horizon := p.policy.LossHorizon(p.released, p.latestDelivered, p.clock.Now())
	// Invariant guards: never lose beyond what non-catchup subscribers
	// were delivered, never rewind.
	if horizon > p.latestDelivered {
		horizon = p.latestDelivered
	}
	if horizon <= p.loss {
		return p.loss, nil
	}
	p.loss = horizon
	// Persist the new loss horizon before chopping: recovery must never
	// see a chopped log with a stale loss floor, or a fully released
	// (hence fully chopped) pubend would restart with a zero clock.
	if err := p.persistHorizonLocked(p.lease); err != nil {
		return p.loss, err
	}
	// Chop the log below the horizon.
	cut := sort.Search(len(p.index), func(i int) bool { return p.index[i].ts > horizon })
	if cut > 0 {
		chopIdx := p.index[cut-1].idx
		if err := p.stream.Chop(chopIdx); err != nil {
			return p.loss, fmt.Errorf("pubend chop: %w", err)
		}
		p.index = append(p.index[:0], p.index[cut:]...)
	}
	return p.loss, nil
}

// LossHorizon reports the end of the L prefix.
func (p *Pubend) LossHorizon() vtime.Timestamp {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.loss
}

// Released reports the aggregated released timestamp Tr(p).
func (p *Pubend) Released() vtime.Timestamp {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.released
}

// Emitted reports the horizon up to which knowledge has been drained.
func (p *Pubend) Emitted() vtime.Timestamp {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.emitted
}

// EventCount reports the number of retained (unreleased) events.
func (p *Pubend) EventCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.index)
}
