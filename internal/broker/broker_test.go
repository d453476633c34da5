package broker

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/overlay"
	"repro/internal/pubend"
	"repro/internal/vtime"
)

const testTick = 2 * time.Millisecond

// net1 builds a single-broker topology (PHB+SHB in one), the paper's
// "1 broker" configuration.
func net1(t *testing.T, pubs int) (*overlay.InprocNetwork, *Broker) {
	t.Helper()
	netw := overlay.NewInprocNetwork(0)
	b := startBroker(t, netw, Config{
		Name:       "b1",
		DataDir:    filepath.Join(t.TempDir(), "b1"),
		ListenAddr: "b1",
		EnableSHB:  true,
	}, pubs, nil)
	return netw, b
}

// startBroker fills in common fields and starts a broker hosting `pubs`
// pubends when pubs > 0.
func startBroker(t *testing.T, netw *overlay.InprocNetwork, cfg Config, pubs int, pol pubend.Policy) *Broker {
	t.Helper()
	cfg.Transport = netw
	if cfg.TickInterval == 0 {
		cfg.TickInterval = testTick
	}
	var all []vtime.PubendID
	for i := 1; i <= maxInt(pubs, 1); i++ {
		all = append(all, vtime.PubendID(i))
	}
	if pubs > 0 {
		for i := 1; i <= pubs; i++ {
			cfg.HostedPubends = append(cfg.HostedPubends, PubendConfig{
				ID:     vtime.PubendID(i),
				Policy: pol,
			})
		}
	}
	if cfg.EnableSHB && cfg.AllPubends == nil {
		cfg.AllPubends = all
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() }) //nolint:errcheck
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// stamp is a published event's identity.
type stamp struct {
	pub vtime.PubendID
	ts  vtime.Timestamp
}

// pub publishes n events with the given topic, returning their stamps in
// publish order.
func pub(t *testing.T, p *client.Publisher, topic string, n int) []stamp {
	t.Helper()
	var out []stamp
	for i := 0; i < n; i++ {
		pe, ts, err := p.Publish(message.Event{
			Attrs:   filter.Attributes{"topic": filter.String(topic)},
			Payload: []byte(fmt.Sprintf("%s-%d", topic, i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, stamp{pub: pe, ts: ts})
	}
	return out
}

// collectEvents drains n event deliveries from a subscriber with a
// deadline.
func collectEvents(t *testing.T, s *client.Subscriber, n int) []*message.Event {
	t.Helper()
	var out []*message.Event
	deadline := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case d := <-s.Deliveries():
			if d.Kind == message.DeliverEvent {
				out = append(out, d.Event)
			}
		case <-deadline:
			t.Fatalf("timeout: collected %d of %d events", len(out), n)
		}
	}
	return out
}

// assertTimestamps checks that, per pubend, the delivered events are
// exactly the published ones in timestamp order — the delivery contract.
// Global interleaving across pubends is unordered by design.
func assertTimestamps(t *testing.T, evs []*message.Event, want []stamp) {
	t.Helper()
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d", len(evs), len(want))
	}
	wantByPub := map[vtime.PubendID][]vtime.Timestamp{}
	for _, st := range want {
		wantByPub[st.pub] = append(wantByPub[st.pub], st.ts)
	}
	gotByPub := map[vtime.PubendID][]vtime.Timestamp{}
	for _, ev := range evs {
		gotByPub[ev.Pubend] = append(gotByPub[ev.Pubend], ev.Timestamp)
	}
	for pe, wantTS := range wantByPub {
		gotTS := gotByPub[pe]
		if len(gotTS) != len(wantTS) {
			t.Fatalf("pubend %v: got %d events, want %d", pe, len(gotTS), len(wantTS))
		}
		for i := range wantTS {
			if gotTS[i] != wantTS[i] {
				t.Fatalf("pubend %v event %d: ts %d, want %d", pe, i, gotTS[i], wantTS[i])
			}
		}
	}
}

func TestSingleBrokerPubSub(t *testing.T) {
	netw, _ := net1(t, 1)
	p, err := client.NewPublisher(context.Background(), netw, "b1", "pub")
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
	if err := sub.Connect(context.Background(), netw, "b1"); err != nil {
		t.Fatal(err)
	}
	defer sub.Disconnect() //nolint:errcheck

	want := pub(t, p, "a", 25)
	pub(t, p, "b", 10) // non-matching
	got := collectEvents(t, sub, 25)
	assertTimestamps(t, got, want)
	if _, _, _, violations := sub.Stats(); violations != 0 {
		t.Errorf("ordering violations: %d", violations)
	}
}

func TestTwoBrokerDisconnectReconnect(t *testing.T) {
	netw := overlay.NewInprocNetwork(0)
	startBroker(t, netw, Config{
		Name: "phb", DataDir: filepath.Join(t.TempDir(), "phb"), ListenAddr: "phb",
	}, 2, nil)
	startBroker(t, netw, Config{
		Name: "shb", DataDir: filepath.Join(t.TempDir(), "shb"), ListenAddr: "shb",
		UpstreamAddr: "phb", EnableSHB: true,
		AllPubends: []vtime.PubendID{1, 2},
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

	phase1 := pub(t, p, "a", 10)
	got := collectEvents(t, sub, 10)
	assertTimestamps(t, got, phase1)

	if err := sub.Disconnect(); err != nil {
		t.Fatal(err)
	}
	phase2 := pub(t, p, "a", 20)
	time.Sleep(20 * time.Millisecond) // let the SHB consume while sub is away

	if err := sub.Connect(context.Background(), netw, "shb"); err != nil {
		t.Fatal(err)
	}
	defer sub.Disconnect() //nolint:errcheck
	got = collectEvents(t, sub, 20)
	assertTimestamps(t, got, phase2)
	events, _, gaps, violations := sub.Stats()
	if events != 30 || gaps != 0 || violations != 0 {
		t.Errorf("stats: events=%d gaps=%d violations=%d", events, gaps, violations)
	}
}

func TestFiveBrokerChainLatencyPath(t *testing.T) {
	// PHB -> i1 -> i2 -> i3 -> SHB: the paper's 5-hop latency topology.
	netw := overlay.NewInprocNetwork(0)
	dir := t.TempDir()
	startBroker(t, netw, Config{
		Name: "phb", DataDir: filepath.Join(dir, "phb"), ListenAddr: "phb",
	}, 1, nil)
	for i, name := range []string{"i1", "i2", "i3"} {
		up := "phb"
		if i > 0 {
			up = fmt.Sprintf("i%d", i)
		}
		startBroker(t, netw, Config{
			Name: name, ListenAddr: name, UpstreamAddr: up,
		}, 0, nil)
	}
	startBroker(t, netw, Config{
		Name: "shb", DataDir: filepath.Join(dir, "shb"), ListenAddr: "shb",
		UpstreamAddr: "i3", EnableSHB: true, AllPubends: []vtime.PubendID{1},
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

	want := pub(t, p, "a", 15)
	got := collectEvents(t, sub, 15)
	assertTimestamps(t, got, want)

	// Disconnect/reconnect across the chain: nacks must be served from
	// the intermediate relay caches or the pubend.
	sub.Disconnect() //nolint:errcheck
	missed := pub(t, p, "a", 25)
	time.Sleep(20 * time.Millisecond)
	if err := sub.Connect(context.Background(), netw, "shb"); err != nil {
		t.Fatal(err)
	}
	got = collectEvents(t, sub, 25)
	assertTimestamps(t, got, missed)
}

func TestFanoutTwoSHBs(t *testing.T) {
	// phb -> mid -> {shb1, shb2}: the paper's 2-SHB scalability shape.
	netw := overlay.NewInprocNetwork(0)
	dir := t.TempDir()
	startBroker(t, netw, Config{
		Name: "phb", DataDir: filepath.Join(dir, "phb"), ListenAddr: "phb",
	}, 1, nil)
	startBroker(t, netw, Config{Name: "mid", ListenAddr: "mid", UpstreamAddr: "phb"}, 0, nil)
	for _, name := range []string{"shb1", "shb2"} {
		startBroker(t, netw, Config{
			Name: name, DataDir: filepath.Join(dir, name), ListenAddr: name,
			UpstreamAddr: "mid", EnableSHB: true, AllPubends: []vtime.PubendID{1},
		}, 0, nil)
	}
	p, err := client.NewPublisher(context.Background(), netw, "phb", "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck

	var subs []*client.Subscriber
	for i, shb := range []string{"shb1", "shb1", "shb2", "shb2"} {
		topic := []string{"a", "b"}[i%2]
		s, err := client.NewSubscriber(client.SubscriberOptions{
			ID:     vtime.SubscriberID(i + 1),
			Filter: `topic = "` + topic + `"`, AckInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Connect(context.Background(), netw, shb); err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	defer func() {
		for _, s := range subs {
			s.Disconnect() //nolint:errcheck
		}
	}()

	wantA := pub(t, p, "a", 12)
	wantB := pub(t, p, "b", 12)
	assertTimestamps(t, collectEvents(t, subs[0], 12), wantA)
	assertTimestamps(t, collectEvents(t, subs[2], 12), wantA)
	assertTimestamps(t, collectEvents(t, subs[1], 12), wantB)
	assertTimestamps(t, collectEvents(t, subs[3], 12), wantB)
}

func TestSHBCrashRecoveryEndToEnd(t *testing.T) {
	netw := overlay.NewInprocNetwork(0)
	dir := t.TempDir()
	shbDir := filepath.Join(dir, "shb")
	startBroker(t, netw, Config{
		Name: "phb", DataDir: filepath.Join(dir, "phb"), ListenAddr: "phb",
	}, 1, nil)
	shbCfg := Config{
		Name: "shb", DataDir: shbDir, ListenAddr: "shb",
		UpstreamAddr: "phb", EnableSHB: true, AllPubends: []vtime.PubendID{1},
		Transport: netw, TickInterval: testTick,
	}
	shb, err := New(shbCfg)
	if err != nil {
		t.Fatal(err)
	}

	p, err := client.NewPublisher(context.Background(), netw, "phb", "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck
	sub, err := client.NewSubscriber(client.SubscriberOptions{
		ID: 1, Filter: `topic = "a"`, AckInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Connect(context.Background(), netw, "shb"); err != nil {
		t.Fatal(err)
	}

	phase1 := pub(t, p, "a", 10)
	assertTimestamps(t, collectEvents(t, sub, 10), phase1)
	if err := sub.Ack(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(4 * testTick) // let the ack land and persist

	// Crash the SHB: the subscriber's connection dies with it.
	shb.Crash()
	phase2 := pub(t, p, "a", 20)

	// Restart from the same data directory and reconnect the subscriber.
	shb2, err := New(shbCfg)
	if err != nil {
		t.Fatalf("SHB restart: %v", err)
	}
	defer shb2.Close() //nolint:errcheck
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := sub.Connect(context.Background(), netw, "shb"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("could not reconnect after SHB restart")
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer sub.Disconnect() //nolint:errcheck

	got := collectEvents(t, sub, 20)
	gotSet := map[stamp]bool{}
	for _, ev := range got {
		gotSet[stamp{pub: ev.Pubend, ts: ev.Timestamp}] = true
	}
	for _, st := range phase2 {
		if !gotSet[st] {
			t.Errorf("event %v lost across SHB crash", st)
		}
	}
	if _, _, gaps, violations := sub.Stats(); gaps != 0 || violations != 0 {
		t.Errorf("gaps=%d violations=%d after crash recovery", gaps, violations)
	}
}

func TestReleaseReachesPubend(t *testing.T) {
	netw, b := net1(t, 1)
	p, err := client.NewPublisher(context.Background(), netw, "b1", "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck
	sub, err := client.NewSubscriber(client.SubscriberOptions{
		ID: 1, Filter: `topic = "a"`, AckInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Connect(context.Background(), netw, "b1"); err != nil {
		t.Fatal(err)
	}
	defer sub.Disconnect() //nolint:errcheck

	pub(t, p, "a", 30)
	collectEvents(t, sub, 30)
	if err := sub.Ack(); err != nil {
		t.Fatal(err)
	}
	pe := b.Pubend(1)
	deadline := time.Now().Add(5 * time.Second)
	for pe.EventCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pubend retains %d events after full ack", pe.EventCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if b.Released(1) == 0 {
		t.Error("SHB released(p) never advanced")
	}
}

func TestEarlyReleaseGapEndToEnd(t *testing.T) {
	netw := overlay.NewInprocNetwork(0)
	dir := t.TempDir()
	// 30ms virtual retention. The tiny SHB event cache forces the
	// lagging subscriber's catchup to fetch from the pubend, which has
	// already early-released the backlog and answers with L — without
	// it the SHB's own cache would (correctly) serve the events and no
	// gap would be needed.
	pol := pubend.MaxRetain{Retain: 30 * vtime.TicksPerMilli}
	startBroker(t, netw, Config{
		Name: "b1", DataDir: filepath.Join(dir, "b1"), ListenAddr: "b1", EnableSHB: true,
		EventCacheSize: 4,
	}, 1, pol)

	p, err := client.NewPublisher(context.Background(), netw, "b1", "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck

	// Keep one live subscriber so latestDelivered advances.
	live, err := client.NewSubscriber(client.SubscriberOptions{
		ID: 2, Filter: `topic = "a"`, AckInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Connect(context.Background(), netw, "b1"); err != nil {
		t.Fatal(err)
	}
	defer live.Disconnect() //nolint:errcheck

	lagging, err := client.NewSubscriber(client.SubscriberOptions{
		ID: 1, Filter: `topic = "a"`, AckInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := lagging.Connect(context.Background(), netw, "b1"); err != nil {
		t.Fatal(err)
	}
	if err := lagging.Disconnect(); err != nil {
		t.Fatal(err)
	}

	pub(t, p, "a", 20)
	collectEvents(t, live, 20)
	if err := live.Ack(); err != nil {
		t.Fatal(err)
	}
	// Wait past the retention window so the lagging subscriber's backlog
	// is early-released.
	time.Sleep(80 * time.Millisecond)
	pub(t, p, "a", 1) // advance T(p) and trigger policy evaluation
	time.Sleep(20 * time.Millisecond)

	if err := lagging.Connect(context.Background(), netw, "b1"); err != nil {
		t.Fatal(err)
	}
	defer lagging.Disconnect() //nolint:errcheck
	deadline := time.After(5 * time.Second)
	sawGap := false
	for !sawGap {
		select {
		case d := <-lagging.Deliveries():
			if d.Kind == message.DeliverGap {
				sawGap = true
			}
		case <-deadline:
			_, _, gaps, _ := lagging.Stats()
			t.Fatalf("no gap delivered to lagging subscriber (gaps=%d)", gaps)
		}
	}
	if _, _, _, violations := lagging.Stats(); violations != 0 {
		t.Errorf("violations: %d", violations)
	}
}

func TestPublishToNonPHBRejected(t *testing.T) {
	netw := overlay.NewInprocNetwork(0)
	startBroker(t, netw, Config{
		Name: "shb-only", DataDir: filepath.Join(t.TempDir(), "s"), ListenAddr: "s",
		EnableSHB: true, AllPubends: []vtime.PubendID{1},
	}, 0, nil)
	p, err := client.NewPublisher(context.Background(), netw, "s", "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck
	if _, _, err := p.Publish(message.Event{Attrs: filter.Attributes{"x": filter.Int(1)}}); err == nil {
		t.Error("publish to non-PHB succeeded")
	}
}

func TestSubscribeToNonSHBRejected(t *testing.T) {
	netw := overlay.NewInprocNetwork(0)
	startBroker(t, netw, Config{
		Name: "phb-only", DataDir: filepath.Join(t.TempDir(), "p"), ListenAddr: "p",
	}, 1, nil)
	sub, err := client.NewSubscriber(client.SubscriberOptions{ID: 1, Filter: `true`})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Connect(context.Background(), netw, "p"); err == nil {
		t.Error("subscribe to non-SHB succeeded")
		sub.Disconnect() //nolint:errcheck
	}
}

func TestBrokerConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without transport succeeded")
	}
	netw := overlay.NewInprocNetwork(0)
	if _, err := New(Config{Transport: netw, EnableSHB: true, ListenAddr: "x"}); err == nil {
		t.Error("SHB without DataDir succeeded")
	}
	if _, err := New(Config{
		Transport: netw, EnableSHB: true, DataDir: t.TempDir(), ListenAddr: "y",
	}); err == nil {
		t.Error("SHB without AllPubends succeeded")
	}
}

func TestBrokerDoubleCloseAndCrash(t *testing.T) {
	netw := overlay.NewInprocNetwork(0)
	b := startBroker(t, netw, Config{
		Name: "b", DataDir: filepath.Join(t.TempDir(), "b"), ListenAddr: "b", EnableSHB: true,
	}, 1, nil)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	b.Crash() // after close: no-op
}

func TestClientCTPersistence(t *testing.T) {
	netw, _ := net1(t, 1)
	ctPath := filepath.Join(t.TempDir(), "sub.ct")
	p, err := client.NewPublisher(context.Background(), netw, "b1", "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck

	sub, err := client.NewSubscriber(client.SubscriberOptions{
		ID: 1, Filter: `topic = "a"`, CTPath: ctPath, AckInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Connect(context.Background(), netw, "b1"); err != nil {
		t.Fatal(err)
	}
	want := pub(t, p, "a", 10)
	collectEvents(t, sub, 10)
	if err := sub.Disconnect(); err != nil { // persists the CT
		t.Fatal(err)
	}

	missed := pub(t, p, "a", 5)
	_ = want

	// A brand-new Subscriber object (simulating a client process
	// restart) resumes from the persisted token: no duplicates.
	sub2, err := client.NewSubscriber(client.SubscriberOptions{
		ID: 1, Filter: `topic = "a"`, CTPath: ctPath, AckInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub2.Connect(context.Background(), netw, "b1"); err != nil {
		t.Fatal(err)
	}
	defer sub2.Disconnect() //nolint:errcheck
	got := collectEvents(t, sub2, 5)
	assertTimestamps(t, got, missed)
}

func TestReconnectAnywhere(t *testing.T) {
	// The paper's section 1, feature 5: a durable subscriber reconnects
	// to a DIFFERENT SHB. The new SHB has no PFS history for it, so the
	// missed interval is recovered by retrieving events from the
	// caches/PHB and refiltering them.
	netw := overlay.NewInprocNetwork(0)
	dir := t.TempDir()
	startBroker(t, netw, Config{
		Name: "phb", DataDir: filepath.Join(dir, "phb"), ListenAddr: "phb",
	}, 1, nil)
	for _, name := range []string{"shbA", "shbB"} {
		startBroker(t, netw, Config{
			Name: name, DataDir: filepath.Join(dir, name), ListenAddr: name,
			UpstreamAddr: "phb", EnableSHB: true, AllPubends: []vtime.PubendID{1},
		}, 0, nil)
	}
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
	if err := sub.Connect(context.Background(), netw, "shbA"); err != nil {
		t.Fatal(err)
	}
	phase1 := pub(t, p, "a", 10)
	assertTimestamps(t, collectEvents(t, sub, 10), phase1)
	if err := sub.Disconnect(); err != nil {
		t.Fatal(err)
	}

	// Published while away; non-matching events interleaved so the
	// refiltering path is exercised (the new SHB must NOT deliver them).
	var missed []stamp
	for i := 0; i < 15; i++ {
		missed = append(missed, pub(t, p, "a", 1)...)
		pub(t, p, "zzz", 1)
	}
	time.Sleep(30 * time.Millisecond)

	// Reconnect at shbB, which has never seen this subscriber.
	if err := sub.Connect(context.Background(), netw, "shbB"); err != nil {
		t.Fatal(err)
	}
	defer sub.Disconnect() //nolint:errcheck
	got := collectEvents(t, sub, 15)
	assertTimestamps(t, got, missed)
	events, _, gaps, violations := sub.Stats()
	if events != 25 || gaps != 0 || violations != 0 {
		t.Errorf("stats: events=%d gaps=%d violations=%d", events, gaps, violations)
	}
	// Live delivery continues at the new SHB.
	live := pub(t, p, "a", 3)
	assertTimestamps(t, collectEvents(t, sub, 3), live)
}

func TestUnsubscribeEndToEnd(t *testing.T) {
	netw, b := net1(t, 1)
	p, err := client.NewPublisher(context.Background(), netw, "b1", "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck

	// A consumer that acks, and a hoarder that unsubscribes.
	consumer, err := client.NewSubscriber(client.SubscriberOptions{
		ID: 1, Filter: `topic = "a"`, AckInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := consumer.Connect(context.Background(), netw, "b1"); err != nil {
		t.Fatal(err)
	}
	defer consumer.Disconnect() //nolint:errcheck
	hoarder, err := client.NewSubscriber(client.SubscriberOptions{
		ID: 2, Filter: `topic = "a"`, AckInterval: time.Hour, // never acks
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := hoarder.Connect(context.Background(), netw, "b1"); err != nil {
		t.Fatal(err)
	}
	go func() {
		for range hoarder.Deliveries() { //nolint:revive // drain
		}
	}()

	pub(t, p, "a", 20)
	collectEvents(t, consumer, 20)
	if err := consumer.Ack(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	pe := b.Pubend(1)
	if pe.EventCount() == 0 {
		t.Fatal("hoarder did not hold the backlog")
	}
	// Unsubscribing the hoarder releases everything.
	if err := hoarder.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pe.EventCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pubend retains %d events after unsubscribe", pe.EventCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
