package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/message"
)

// The load generator: one publisher connection and one subscriber
// connection, each served by one goroutine (publishLoop, consumeLoop), plus
// an ack reader that is blocked except when an ack arrives. The timeline —
// steady phase, then reconnect cycles — is run by the caller's goroutine,
// which sleeps between its few actions.

const (
	// Publishes due at the very end of a segment get this long to arrive
	// before the loop changes or S goes down.
	segmentGrace    = 100 * time.Millisecond
	ackDeadline     = 10 * time.Second // a publish unacked for this long has failed
	drainDeadline   = 15 * time.Second // S must have everything this long after the last publish
	connectDeadline = 12 * time.Second // above the client's own 10 s subscribe timeout
	catchupDeadline = 15 * time.Second // a reconnect that has not caught up by then has failed
)

// sent is the generator's record of one publish, indexed by seq.
type sent struct {
	due       int64 // ns since t0 the publish was due (closed loop: when the window admitted it)
	at        int64 // ns since t0 it was handed to the connection
	scheduled bool  // due came from an open-loop schedule
}

// acked is the ack reader's record of one publish, indexed by seq.
type acked struct {
	at int64 // ns since t0; 0 when the publish failed or was never acked
	ts repro.Timestamp
}

// cycle is one outage of S.
type cycle struct {
	downAt       int64 // Disconnect returned
	connectAt    int64 // Connect called
	connectedAt  int64 // Connect returned
	connectError error
}

// runLog is everything one run observed, filled by the three goroutines and
// read only after they have all been joined.
type runLog struct {
	t0     time.Time
	events []genEvent // the generator's publish log, indexed by seq
	sent   []sent
	acked  []acked
	recv   []received
	cycles []cycle
	// deep is the traced run's extra outage, several caches long; events
	// from seq deepFrom on belong to it and are judged apart.
	deep     *cycle
	deepFrom int

	// paced is the segment the latency metrics sample: open loop, S up.
	// steady is the segment throughput is taken over: the workload's own
	// loop, S up. On an open-loop workload they are the same segment.
	paced, steady span
	drained       bool  // S received every expected event before drainDeadline
	violations    int64 // the client library's own ordering-violation counter
}

func (l *runLog) since() int64 { return int64(time.Since(l.t0)) }

// rule says how the window token a publish took comes back.
type rule uint8

const (
	ruleNone     rule = iota // open loop: publishes are paced by the clock and take no token
	ruleDelivery             // closed loop, S up: the token returns when the event reaches S
	ruleAck                  // closed loop, S down: the token returns when the PHB acks
)

// mode is how the publisher decides when the next publish goes out.
type mode struct {
	rule     rule
	interval int64 // ruleNone: ns between due times
}

// window meters the publisher. Under a token rule at most cap(tokens)
// publishes are outstanding; under ruleNone one is due every interval. It
// remembers which rule each seq was published under, so a token is returned
// exactly once.
type window struct {
	tokens chan struct{}

	mu     sync.Mutex
	paused chan struct{} // non-nil while publishing is paused; closed on resume
	cur    mode
	gen    int // bumped on every set
	// The run of seqs published under the current mode: where it began, and
	// for ruleNone the origin of its schedule.
	runGen  int
	origin  int64
	seq0    int
	from    []int // seqs from[i].. were published under rules[i]
	rules   []rule
	nowFunc func() int64
}

func newWindow(size int, now func() int64) *window {
	return &window{tokens: make(chan struct{}, max(size, 1)), nowFunc: now, runGen: -1}
}

// set changes the mode for publishes admitted from now on, and resumes a
// paused publisher.
func (w *window) set(m mode) {
	w.mu.Lock()
	w.cur = m
	w.gen++
	if w.paused != nil {
		close(w.paused)
		w.paused = nil
	}
	w.mu.Unlock()
}

// pause holds the publisher before its next publish until set is called.
func (w *window) pause() {
	w.mu.Lock()
	if w.paused == nil {
		w.paused = make(chan struct{})
	}
	w.mu.Unlock()
}

// admit blocks until seq may be published and returns the time it was due
// and whether that time came from a schedule; ok is false on stop.
func (w *window) admit(seq int, stop <-chan struct{}) (due int64, scheduled, ok bool) {
	for {
		w.mu.Lock()
		paused := w.paused
		w.mu.Unlock()
		if paused == nil {
			break
		}
		select {
		case <-paused:
		case <-stop:
			return 0, false, false
		}
	}
	w.mu.Lock()
	m := w.cur
	if w.runGen != w.gen {
		w.runGen, w.origin, w.seq0 = w.gen, w.nowFunc(), seq
		w.from = append(w.from, seq)
		w.rules = append(w.rules, m.rule)
	}
	origin, seq0 := w.origin, w.seq0
	w.mu.Unlock()
	if m.rule == ruleNone {
		due = origin + int64(seq-seq0)*m.interval
		if wait := due - w.nowFunc(); wait > 0 {
			pace(wait)
		}
		return due, true, true
	}
	select {
	case w.tokens <- struct{}{}:
	case <-stop:
		return 0, false, false
	}
	return w.nowFunc(), false, true
}

// ruleOf reports the rule seq was published under.
func (w *window) ruleOf(seq int) rule {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := len(w.from) - 1; i >= 0; i-- {
		if seq >= w.from[i] {
			return w.rules[i]
		}
	}
	return ruleNone
}

// release returns one token. It never blocks: a delivery the window did not
// admit (a duplicate, say) is the checker's business, not the window's.
func (w *window) release() {
	select {
	case <-w.tokens:
	default:
	}
}

// driver runs one workload against a started cluster.
type driver struct {
	in  *inputs
	c   *cluster
	pub *repro.Publisher
	sub *repro.DurableSubscriber
	log *runLog

	win *window
	// deepBacklog, when positive, adds one outage this many events long
	// after the reconnect cycles. Its failure does not fail the run.
	deepBacklog int
	stop        chan struct{}
	published   atomic.Int64 // publishes handed to the connection
	delivered   atomic.Int64 // event deliveries S has consumed
	lastSeq     atomic.Int64 // highest seq S has consumed
}

// pending is one publish waiting for its ack.
type pending struct {
	seq int
	ch  <-chan *message.PublishAck
}

func newDriver(ctx context.Context, in *inputs, c *cluster) (*driver, error) {
	d := &driver{in: in, c: c, log: &runLog{}, stop: make(chan struct{})}
	d.win = newWindow(in.w.window, d.log.since)
	var err error
	d.sub, err = repro.NewDurableSubscriber(repro.SubscriberOptions{ID: sID, Filter: in.sFilter})
	if err != nil {
		return nil, err
	}
	if err := d.sub.Connect(ctx, c.transport, c.shb.BoundAddr()); err != nil {
		return nil, fmt.Errorf("connect S: %w", err)
	}
	d.pub, err = repro.NewPublisher(ctx, c.transport, c.phb.BoundAddr(), "bench")
	if err != nil {
		d.sub.Disconnect() //nolint:errcheck // already failing
		return nil, fmt.Errorf("connect publisher: %w", err)
	}
	return d, nil
}

// run plays the timeline and returns the log once every goroutine it
// started has ended.
func (d *driver) run(ctx context.Context, tl phases) *runLog {
	l := d.log
	l.t0 = time.Now()
	d.win.set(d.in.w.mainMode())
	// In flight between publisher and ack reader; the publisher blocks
	// beyond this, which on an open loop would show as generator lateness.
	ackQ := make(chan pending, 1<<16)
	consumerStop := make(chan struct{})
	acksDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); d.publishLoop(ackQ) }()
	go func() { defer wg.Done(); defer close(acksDone); d.ackLoop(ackQ) }()
	go func() { defer wg.Done(); d.consumeLoop(consumerStop) }()

	time.Sleep(tl.warmup)
	began := l.since()
	if tl.paced > 0 {
		d.win.set(mode{rule: ruleNone, interval: int64(time.Second) / int64(d.in.w.pacedRate)})
		l.paced.from = l.since()
		time.Sleep(tl.paced)
		l.paced.to = l.since()
		time.Sleep(segmentGrace)
		d.win.set(d.in.w.mainMode())
	}
	l.steady.from = l.since()
	time.Sleep(tl.steady)
	l.steady.to = l.since()
	time.Sleep(segmentGrace)
	if tl.paced == 0 {
		l.paced = l.steady
	}
	// Another cycle starts only if one as long as the last would still end
	// inside the window.
	for end, last := began+int64(tl.window), int64(0); len(l.cycles) == 0 || l.since()+last <= end; {
		cycleBegan := l.since()
		l.cycles = append(l.cycles, d.cycle(ctx, d.in.w.backlog))
		last = l.since() - cycleBegan
	}
	if d.deepBacklog > 0 {
		l.deepFrom = int(d.published.Load())
		deep := d.cycle(ctx, d.deepBacklog)
		l.deep = &deep
	}
	close(d.stop)

	// The publisher closes ackQ on its way out, so once the ack reader is
	// done the publish log is final; then S drains what it is owed.
	<-acksDone
	judged := len(l.events)
	if l.deep != nil {
		judged = l.deepFrom
	}
	owed := int64(d.expectedUpTo(judged))
	l.drained = waitFor(drainDeadline, func() bool { return d.delivered.Load() >= owed })
	close(consumerStop)
	wg.Wait()
	_, _, _, l.violations = d.sub.Stats()
	return l
}

// close disconnects the clients and stops the cluster.
func (d *driver) close() {
	d.sub.Disconnect() //nolint:errcheck // teardown
	d.pub.Close()      //nolint:errcheck // teardown
	d.c.close()
}

// waitFor polls cond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(500 * time.Microsecond)
	}
	return true
}

// expectedUpTo counts the events among the first n that S must receive.
// Only called once the publisher has stopped appending.
func (d *driver) expectedUpTo(n int) int {
	if d.in.w.sGroups >= d.in.w.groups {
		return n
	}
	m := 0
	for i := range d.log.events[:n] {
		if d.in.sMatches(&d.log.events[i]) {
			m++
		}
	}
	return m
}

// cycle takes S down until backlog events have been published, brings it
// back, waits for it to catch up, and stays up for the workload's up time.
func (d *driver) cycle(ctx context.Context, backlog int) cycle {
	var cy cycle
	closed := d.in.w.closed()
	if closed {
		// Let the window drain so no token waits on a delivery that cannot
		// happen while S is down.
		d.win.pause()
		waitFor(ackDeadline, func() bool { return d.delivered.Load() >= d.published.Load() })
	}
	d.sub.Disconnect() //nolint:errcheck // a failed disconnect shows as a failed connect below
	cy.downAt = d.log.since()
	if closed {
		d.win.set(mode{rule: ruleAck})
	}
	target := d.published.Load() + int64(backlog)
	waitFor(time.Minute, func() bool { return d.published.Load() >= target })
	cctx, cancel := context.WithTimeout(ctx, connectDeadline)
	cy.connectAt = d.log.since()
	firstAfter := d.published.Load()
	cy.connectError = d.sub.Connect(cctx, d.c.transport, d.c.shb.BoundAddr())
	cy.connectedAt = d.log.since()
	cancel()
	if closed {
		d.win.set(mode{rule: ruleDelivery})
	}
	// S has caught up once it holds an event published after Connect was
	// called; then it stays up for the workload's up time.
	if cy.connectError == nil {
		waitFor(catchupDeadline, func() bool { return d.lastSeq.Load() >= firstAfter })
	}
	time.Sleep(time.Duration(d.in.w.upSeconds * float64(time.Second)))
	return cy
}

func (d *driver) publishLoop(ackQ chan<- pending) {
	defer close(ackQ)
	l := d.log
	for seq := 0; ; seq++ {
		select {
		case <-d.stop:
			return
		default:
		}
		due, scheduled, ok := d.win.admit(seq, d.stop)
		if !ok {
			return
		}
		ev := d.in.next(seq)
		at := l.since()
		ch, err := d.pub.PublishAsync(d.in.event(&ev), ev.pubend)
		l.events = append(l.events, ev)
		l.sent = append(l.sent, sent{due: due, at: at, scheduled: scheduled})
		if err != nil {
			ch = nil // never acked: counted with the unacked publishes
		}
		ackQ <- pending{seq: seq, ch: ch}
		d.published.Store(int64(seq + 1))
	}
}

// pace sleeps for ns nanoseconds in the kernel. time.Sleep rounds a
// sub-millisecond wait up to a millisecond whenever the runtime parks in its
// network poller, which at 2 000 ev/s would make the generator late for half
// its publishes; a plain nanosleep holds the schedule without spinning.
func pace(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up is re-checked against the schedule by the caller's lateness record
}

// ackLoop reads acks in publish order. With two pubends an ack can wait
// behind the other pubend's slightly later one; that overstates ack latency
// by at most the skew between two group commits, and only on those workloads.
func (d *driver) ackLoop(ackQ <-chan pending) {
	timer := time.NewTimer(ackDeadline)
	defer timer.Stop()
	for p := range ackQ {
		var rec acked
		if p.ch != nil {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(ackDeadline)
			select {
			case ack, ok := <-p.ch:
				if ok && ack.Timestamp != 0 {
					rec = acked{at: d.log.since(), ts: ack.Timestamp}
				}
			case <-timer.C:
			}
		}
		d.log.acked = append(d.log.acked, rec)
		if d.win.ruleOf(p.seq) == ruleAck {
			d.win.release()
		}
	}
}

func (d *driver) consumeLoop(stop <-chan struct{}) {
	l := d.log
	for {
		select {
		case dv := <-d.sub.Deliveries():
			r := received{at: l.since(), kind: dv.Kind, pubend: dv.Pubend, ts: dv.Timestamp, seq: -1}
			if dv.Kind == repro.DeliverEvent {
				if v, ok := dv.Event.Attrs["seq"]; ok {
					r.seq = int(v.IntVal())
					r.intact = bytes.Equal(dv.Event.Payload, d.in.payload(r.seq))
				}
				d.delivered.Add(1)
				if int64(r.seq) > d.lastSeq.Load() {
					d.lastSeq.Store(int64(r.seq))
				}
				if d.win.ruleOf(r.seq) == ruleDelivery {
					d.win.release()
				}
			}
			l.recv = append(l.recv, r)
		case <-stop:
			return
		}
	}
}
