package pubend

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/message"
	"repro/internal/telemetry"
	"repro/internal/tick"
	"repro/internal/vtime"
)

// checkDrains verifies a sequence of Drain results against the stamps that
// were acked: consecutive drains tile the timeline with no tick covered
// twice, events come out in ascending order, and every acked stamp is
// emitted as D exactly once — so no drain ran past a publish that was still
// being logged (its tick would have gone out as S and the event never).
func checkDrains(t *testing.T, drains []*message.Knowledge, horizons []vtime.Timestamp, acked []vtime.Timestamp) {
	t.Helper()
	from, last := vtime.ZeroTS, vtime.ZeroTS
	emitted := map[vtime.Timestamp]bool{}
	for i, know := range drains {
		if horizons[i] <= from {
			t.Fatalf("drain %d horizon %d did not advance past %d", i, horizons[i], from)
		}
		knowledgeCovers(t, know, from, horizons[i])
		for _, r := range know.Ranges {
			if r.Start <= from || r.End > horizons[i] {
				t.Fatalf("drain %d range %v outside (%d, %d]", i, r, from, horizons[i])
			}
		}
		for _, ev := range know.Events {
			if ev.Timestamp <= last || ev.Timestamp <= from || ev.Timestamp > horizons[i] {
				t.Fatalf("drain %d event %d out of order (previous %d, window (%d, %d])",
					i, ev.Timestamp, last, from, horizons[i])
			}
			last = ev.Timestamp
			emitted[ev.Timestamp] = true
		}
		from = horizons[i]
	}
	for _, ts := range acked {
		if !emitted[ts] {
			t.Errorf("acked event %d was never emitted as D", ts)
		}
	}
	if len(emitted) != len(acked) {
		t.Errorf("emitted %d events, acked %d", len(emitted), len(acked))
	}
}

// TestCommitDrivenDrainConcurrent: 8 publishers pipeline publishes through a
// group-commit volume while every completion callback triggers a drain, the
// way the broker's kick does (one drainer at a time, as on a shard). The
// emitted knowledge must be contiguous, ordered and complete.
func TestCommitDrivenDrainConcurrent(t *testing.T) {
	p, _, _ := newGroupPubend(t, Options{})

	const publishers, perPublisher = 8, 50
	var (
		mu       sync.Mutex // the shard: one Drain at a time
		drains   []*message.Knowledge
		horizons []vtime.Timestamp
		acked    []vtime.Timestamp
		wg, cbs  sync.WaitGroup
	)
	drain := func() {
		mu.Lock()
		defer mu.Unlock()
		if know, upTo := p.Drain(); know != nil {
			drains = append(drains, know)
			horizons = append(horizons, upTo)
		}
	}
	for w := 0; w < publishers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				done := make(chan struct{})
				cbs.Add(1)
				p.PublishAsync(testEvent(fmt.Sprintf("p%d-%d", w, i))).OnDone(func(ev *message.Event, err error) {
					defer cbs.Done()
					defer close(done)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					acked = append(acked, ev.Timestamp)
					mu.Unlock()
					drain()
				})
				if i%4 == 3 {
					<-done // a window of 4 per publisher keeps commit groups mixed
				}
			}
		}(w)
	}
	wg.Wait()
	cbs.Wait()
	if len(acked) != publishers*perPublisher {
		t.Fatalf("acked %d publishes, want %d", len(acked), publishers*perPublisher)
	}
	checkDrains(t, drains, horizons, acked)
}

// TestDrainWaitsForEarlierPendingPublish forces the completion order the
// group path allows but rarely produces: the later timestamp finishes
// logging first. A drain triggered by that completion must stop below the
// earlier, still-pending tick and emit neither event; once the earlier one
// finishes, both come out, in timestamp order, from memory.
func TestDrainWaitsForEarlierPendingPublish(t *testing.T) {
	p, vol, _ := newTestPubend(t, Options{})

	// Stamp two publishes the way PublishAsync does, without finishing them.
	stamp := func(payload string) *message.Event {
		in := testEvent(payload)
		p.mu.Lock()
		defer p.mu.Unlock()
		ev := &message.Event{Pubend: p.id, Timestamp: p.clock.Next(), Attrs: in.Attrs, Payload: in.Payload}
		if p.pending == nil {
			p.pending = make(map[vtime.Timestamp]struct{})
		}
		p.pending[ev.Timestamp] = struct{}{}
		return ev
	}
	finish := func(ev *message.Event) {
		idx, err := p.stream.Append(message.AppendEvent(nil, ev))
		if err != nil {
			t.Fatal(err)
		}
		p.finishPublish(&PublishResult{done: make(chan struct{})}, ev, idx, nil)
	}
	first, second := stamp("first"), stamp("second")

	finish(second)
	know, upTo := p.Drain()
	if upTo >= first.Timestamp {
		t.Fatalf("drain horizon %d passed the pending publish at %d", upTo, first.Timestamp)
	}
	if know != nil && len(know.Events) != 0 {
		t.Fatalf("drain emitted %d events past a pending publish", len(know.Events))
	}

	finish(first)
	readsBefore := vol.Reads()
	know2, upTo2 := p.Drain()
	if know2 == nil || len(know2.Events) != 2 ||
		know2.Events[0] != first || know2.Events[1] != second {
		t.Fatalf("drain after both finished = %+v, want [first second] handed over from memory", know2)
	}
	if got := vol.Reads() - readsBefore; got != 0 {
		t.Errorf("live drain issued %d log reads, want 0", got)
	}
	knowledgeCovers(t, know2, upTo, upTo2)
	if len(p.ready) != 0 {
		t.Errorf("%d events still queued after they were emitted", len(p.ready))
	}
	// The emitted events are still served to a nack — from the log.
	nack, err := p.ServeNack([]tick.Span{{Start: first.Timestamp, End: second.Timestamp}})
	if err != nil {
		t.Fatal(err)
	}
	if len(nack.Events) != 2 || vol.Reads() == readsBefore {
		t.Errorf("nack after emission returned %d events, log reads %d", len(nack.Events), vol.Reads()-readsBefore)
	}
}

// TestFailedReadIsNotLoss: a log read that fails for any reason other than
// "chopped" must not turn a D tick into L (that would silently lose the
// event at every subscriber). The fill stops before the tick, so it stays
// unknown downstream and is nacked again, and the failure is counted.
func TestFailedReadIsNotLoss(t *testing.T) {
	p, vol, _ := newTestPubend(t, Options{})
	var tss []vtime.Timestamp
	for i := 0; i < 3; i++ {
		ev, err := p.Publish(testEvent("e"))
		if err != nil {
			t.Fatal(err)
		}
		tss = append(tss, ev.Timestamp)
	}
	if know, _ := p.Drain(); know == nil || len(know.Events) != 3 {
		t.Fatalf("drain = %+v, want 3 events", know)
	}
	errs := telemetry.Default().Counter("gryphon_pubend_read_errors_total", "")
	errsBefore := errs.Load()
	vol.Close() //nolint:errcheck // every read fails from here on, with ErrClosed

	know, err := p.ServeNack([]tick.Span{{Start: 1, End: tss[2]}})
	if err != nil {
		t.Fatal(err)
	}
	if len(know.Events) != 0 {
		t.Errorf("nack served %d events from a closed log", len(know.Events))
	}
	for _, r := range know.Ranges {
		if r.Kind == tick.L {
			t.Errorf("unreadable tick emitted as lost: %v", r)
		}
		if r.End >= tss[0] {
			t.Errorf("range %v reaches the unreadable tick %d", r, tss[0])
		}
	}
	if got := errs.Load() - errsBefore; got != 1 {
		t.Errorf("read_errors_total moved by %d, want 1", got)
	}
}
