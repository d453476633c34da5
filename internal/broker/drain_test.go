package broker

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/overlay"
	"repro/internal/vtime"
)

// TestLiveDeliveryDoesNotWaitForTick: with a one-second tick on every broker
// of a PHB → relay → SHB chain, an event published on the idle chain still
// reaches the subscriber in well under 100 ms, because the PHB emits it when
// its log commit completes and relays and the SHB forward on arrival. Only
// the first event may wait for a tick (it opens the subscriber's stream).
func TestLiveDeliveryDoesNotWaitForTick(t *testing.T) {
	netw := overlay.NewInprocNetwork(0)
	dir := t.TempDir()
	startBroker(t, netw, Config{
		Name: "phb", DataDir: filepath.Join(dir, "phb"), ListenAddr: "phb",
		TickInterval: time.Second,
	}, 1, nil)
	startBroker(t, netw, Config{
		Name: "relay", ListenAddr: "relay", UpstreamAddr: "phb",
		TickInterval: time.Second,
	}, 0, nil)
	startBroker(t, netw, Config{
		Name: "shb", DataDir: filepath.Join(dir, "shb"), ListenAddr: "shb",
		UpstreamAddr: "relay", EnableSHB: true, AllPubends: []vtime.PubendID{1},
		TickInterval: time.Second,
	}, 0, nil)

	p, err := client.NewPublisher(context.Background(), netw, "phb", "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck
	sub, err := client.NewSubscriber(client.SubscriberOptions{
		ID: 1, Filter: `topic = "a"`, AckInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Connect(context.Background(), netw, "shb"); err != nil {
		t.Fatal(err)
	}
	defer sub.Disconnect() //nolint:errcheck

	want := pub(t, p, "a", 1)
	got := collectEvents(t, sub, 1)
	for i := 0; i < 5; i++ {
		start := time.Now()
		want = append(want, pub(t, p, "a", 1)...)
		got = append(got, collectEvents(t, sub, 1)...)
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Errorf("event %d took %v from publish to delivery with a 1 s tick; it waited for the timer", i, took)
		}
	}
	assertTimestamps(t, got, want)
}

// TestCommitDrainCoalesces pins the kick's bookkeeping: while the pubend's
// shard is busy, any number of committed publishes leave exactly one drain
// task queued, and that one task emits all of them; over a whole run the
// commit-triggered drains never outnumber the commit callbacks. The tick is
// an hour long, so every drain here is a commit's.
func TestCommitDrainCoalesces(t *testing.T) {
	netw := overlay.NewInprocNetwork(0)
	b := startBroker(t, netw, Config{
		Name: "phb", DataDir: filepath.Join(t.TempDir(), "phb"), ListenAddr: "phb",
		Shards: 2, TickInterval: time.Hour, // pubend 1 on shard 1, control on shard 0
	}, 1, nil)
	h := b.pubends[1]
	sh := b.shardFor(1)
	if sh == b.control() {
		t.Fatal("pubend 1 shares the control shard; the queue-length assertions need it alone")
	}

	const publishers, perPublisher = 8, 16
	publish := func() {
		var wg sync.WaitGroup
		for w := 0; w < publishers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				p, err := client.NewPublisher(context.Background(), netw, "phb", fmt.Sprintf("pub%d", w))
				if err != nil {
					t.Error(err)
					return
				}
				defer p.Close() //nolint:errcheck
				for i := 0; i < perPublisher; i++ {
					if _, _, err := p.Publish(message.Event{
						Attrs:   filter.Attributes{"topic": filter.String("a")},
						Payload: []byte("x"),
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait() // every publish acked, so every commit callback has run
	}

	// Busy shard: hold its loop, commit a burst, look at its queue.
	commitDrains := tDrainsCommit.Load()
	entered, release := make(chan struct{}), make(chan struct{})
	sh.push(func() { close(entered); <-release })
	<-entered
	publish()
	if n := sh.tasks.len(); n != 1 {
		t.Errorf("%d tasks queued behind a busy shard after %d commits, want exactly 1 drain",
			n, publishers*perPublisher)
	}
	if !h.drainQueued.Load() {
		t.Error("drainQueued not set while the drain task waits")
	}
	close(release)
	idle := make(chan struct{})
	sh.push(func() { close(idle) })
	<-idle
	if got := tDrainsCommit.Load() - commitDrains; got != 1 {
		t.Errorf("%d commit drains ran for the burst, want 1", got)
	}
	if got, want := h.Emitted(), h.Now(); h.EventCount() != publishers*perPublisher || got == 0 || got > want {
		t.Errorf("after the drain: emitted=%d now=%d events=%d", got, want, h.EventCount())
	}
	know, _ := h.Drain()
	if know != nil && len(know.Events) != 0 {
		t.Errorf("the one queued drain left %d committed events behind", len(know.Events))
	}

	// Free-running shard: drains ≤ commit callbacks, and at least one.
	commitDrains = tDrainsCommit.Load()
	publish()
	idle = make(chan struct{})
	sh.push(func() { close(idle) })
	<-idle
	if got := tDrainsCommit.Load() - commitDrains; got < 1 || got > publishers*perPublisher {
		t.Errorf("%d commit drains for %d commit callbacks", got, publishers*perPublisher)
	}
	if h.drainQueued.Load() {
		t.Error("drainQueued still set on an idle shard")
	}
}

// TestIdlePubendAdvancesSilenceOnTick: with no publish ever committing,
// the tick alone keeps asserting silence, so downstream cursors keep moving.
func TestIdlePubendAdvancesSilenceOnTick(t *testing.T) {
	netw := overlay.NewInprocNetwork(0)
	phb := startBroker(t, netw, Config{
		Name: "phb", DataDir: filepath.Join(t.TempDir(), "phb"), ListenAddr: "phb",
	}, 1, nil)
	shb := startBroker(t, netw, Config{
		Name: "shb", DataDir: filepath.Join(t.TempDir(), "shb"), ListenAddr: "shb",
		UpstreamAddr: "phb", EnableSHB: true, AllPubends: []vtime.PubendID{1},
	}, 0, nil)
	commitDrains, tickDrains := tDrainsCommit.Load(), tDrainsTick.Load()

	deadline := time.Now().Add(10 * time.Second)
	var seen []vtime.Timestamp
	for len(seen) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("silence horizon stopped advancing at the SHB: %v", seen)
		}
		if ld := shb.LatestDelivered(1); len(seen) == 0 || ld > seen[len(seen)-1] {
			if ld > 0 {
				seen = append(seen, ld)
			}
		}
		time.Sleep(time.Millisecond)
	}
	if got := phb.Pubend(1).Emitted(); got < seen[len(seen)-1] {
		t.Errorf("SHB cursor %d ahead of the pubend's emitted horizon %d", seen[len(seen)-1], got)
	}
	if tDrainsTick.Load() == tickDrains {
		t.Error("no tick-triggered drain counted")
	}
	if got := tDrainsCommit.Load() - commitDrains; got != 0 {
		t.Errorf("%d commit-triggered drains with nothing published", got)
	}
}
