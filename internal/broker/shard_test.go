package broker

import (
	"context"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/overlay"
	"repro/internal/vtime"
)

// TestShardCountConfig: Shards defaults to GOMAXPROCS, is clamped to ≥1,
// and pins every hosted pubend to exactly one shard.
func TestShardCountConfig(t *testing.T) {
	netw := overlay.NewInprocNetwork(0)
	def := startBroker(t, netw, Config{
		Name: "def", DataDir: filepath.Join(t.TempDir(), "def"), ListenAddr: "def",
	}, 1, nil)
	if got := def.Shards(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default Shards() = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}

	four := startBroker(t, netw, Config{
		Name: "four", DataDir: filepath.Join(t.TempDir(), "four"),
		ListenAddr: "four", Shards: 4,
	}, 6, nil)
	if got := four.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	seen := map[vtime.PubendID]int{}
	for _, sh := range four.shards {
		for _, h := range sh.hosted {
			pub := h.ID()
			seen[pub]++
			if four.shardFor(pub) != sh {
				t.Errorf("pubend %d hosted on shard %d but shardFor routes elsewhere", pub, sh.id)
			}
		}
	}
	for i := 1; i <= 6; i++ {
		if seen[vtime.PubendID(i)] != 1 {
			t.Errorf("pubend %d pinned to %d shards, want exactly 1", i, seen[vtime.PubendID(i)])
		}
	}
}

// TestCrossShardSwitchoverAndRelease is the §2.2 exactly-once check under
// shard concurrency: one pubend's subscriber goes through the full
// constream → catchup → switchover cycle and its release aggregation
// drains the PHB, while publishers keep events for three OTHER pubends
// flowing on their own shards the whole time. Cross-shard interleaving
// must not perturb per-pubend order, lose or duplicate an event, or stall
// retention. Run with -race to also exercise the shard-ownership rules.
func TestCrossShardSwitchoverAndRelease(t *testing.T) {
	netw := overlay.NewInprocNetwork(0)
	dir := t.TempDir()
	pubendIDs := []vtime.PubendID{1, 2, 3, 4}
	phb := startBroker(t, netw, Config{
		Name: "phb", DataDir: filepath.Join(dir, "phb"),
		ListenAddr: "phb", Shards: 4,
	}, 4, nil)
	shb := startBroker(t, netw, Config{
		Name: "shb", DataDir: filepath.Join(dir, "shb"),
		ListenAddr: "shb", UpstreamAddr: "phb",
		EnableSHB: true, AllPubends: pubendIDs, Shards: 4,
	}, 0, nil)

	p, err := client.NewPublisher(context.Background(), netw, "phb", "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck

	// Background load: pubends 2-4 (distinct shards from pubend 1) carry
	// continuous traffic for a second durable subscriber for the entire
	// switchover cycle.
	bgSub, err := client.NewSubscriber(client.SubscriberOptions{
		ID: 2, Filter: `topic = "bg"`, AckInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := bgSub.Connect(context.Background(), netw, "shb"); err != nil {
		t.Fatal(err)
	}
	defer bgSub.Disconnect() //nolint:errcheck
	go func() {
		for range bgSub.Deliveries() {
		}
	}()

	stopBG := make(chan struct{})
	var bgWG sync.WaitGroup
	var bgMu sync.Mutex
	bgPublished := 0
	for _, target := range pubendIDs[1:] {
		target := target
		bgWG.Add(1)
		go func() {
			defer bgWG.Done()
			bp, err := client.NewPublisher(context.Background(), netw, "phb", "bgpub")
			if err != nil {
				t.Error(err)
				return
			}
			defer bp.Close() //nolint:errcheck
			for {
				select {
				case <-stopBG:
					return
				default:
				}
				if _, err := bp.PublishTo(target, message.Event{
					Attrs:   filter.Attributes{"topic": filter.String("bg")},
					Payload: []byte("x"),
				}); err != nil {
					return
				}
				bgMu.Lock()
				bgPublished++
				bgMu.Unlock()
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}
	defer func() {
		close(stopBG)
		bgWG.Wait()
	}()

	// Foreground subscriber on pubend 1.
	sub, err := client.NewSubscriber(client.SubscriberOptions{
		ID: 1, Filter: `topic = "a"`, AckInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Connect(context.Background(), netw, "shb"); err != nil {
		t.Fatal(err)
	}

	pubTo := func(n int) []stamp {
		t.Helper()
		var out []stamp
		for i := 0; i < n; i++ {
			ts, err := p.PublishTo(1, message.Event{
				Attrs:   filter.Attributes{"topic": filter.String("a")},
				Payload: []byte("a"),
			})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, stamp{pub: 1, ts: ts})
		}
		return out
	}

	// Phase 1: live constream delivery.
	phase1 := pubTo(15)
	assertTimestamps(t, collectEvents(t, sub, 15), phase1)
	if err := sub.Ack(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(4 * testTick)

	// Phase 2: disconnect, publish a backlog, resume → the engine serves
	// a catchup stream and switches over to the constream, while the
	// other shards keep streaming background events.
	if err := sub.Disconnect(); err != nil {
		t.Fatal(err)
	}
	phase2 := pubTo(40)
	if err := sub.Connect(context.Background(), netw, "shb"); err != nil {
		t.Fatal(err)
	}
	defer sub.Disconnect() //nolint:errcheck
	assertTimestamps(t, collectEvents(t, sub, 40), phase2)
	if err := sub.Ack(); err != nil {
		t.Fatal(err)
	}

	if _, _, gaps, violations := sub.Stats(); gaps != 0 || violations != 0 {
		t.Errorf("pubend-1 subscriber: gaps=%d violations=%d with cross-shard traffic", gaps, violations)
	}
	if got := shb.SHBStats().Switchovers; got < 1 {
		t.Errorf("switchovers = %d, want ≥ 1 (catchup stream never handed over)", got)
	}

	// Release aggregation on pubend 1's shard must drain the PHB while
	// the other shards stay busy.
	pe := phb.Pubend(1)
	deadline := time.Now().Add(10 * time.Second)
	for pe.EventCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pubend 1 retains %d events after full ack", pe.EventCount())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The background pubends actually carried concurrent traffic.
	bgMu.Lock()
	bg := bgPublished
	bgMu.Unlock()
	if bg == 0 {
		t.Error("background publishers made no progress")
	}
}
