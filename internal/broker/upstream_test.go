package broker

import (
	"context"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faultnet"
	"repro/internal/overlay"
	"repro/internal/vtime"
)

// startSHBThrough starts an SHB whose upstream link dials through the
// given (typically fault-injecting) transport. Clients keep using the
// inner network: faultnet listens pass through, so the SHB stays
// reachable even while its upstream is partitioned.
func startSHBThrough(t *testing.T, tr overlay.Transport, name, upstream, adminAddr string) *Broker {
	t.Helper()
	b, err := New(Config{
		Name:         name,
		DataDir:      filepath.Join(t.TempDir(), name),
		Transport:    tr,
		ListenAddr:   name,
		UpstreamAddr: upstream,
		DialTimeout:  500 * time.Millisecond,
		EnableSHB:    true,
		AllPubends:   []vtime.PubendID{1},
		TickInterval: testTick,
		AdminAddr:    adminAddr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() }) //nolint:errcheck
	return b
}

// waitLink polls a broker's (single) supervised link until cond holds.
func waitLink(t *testing.T, b *Broker, what string, cond func(overlay.LinkStatus) bool) overlay.LinkStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		hs := b.Health()
		if len(hs) == 1 && cond(hs[0]) {
			return hs[0]
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s: %+v", what, b.Health())
	return overlay.LinkStatus{}
}

func TestUpstreamSeverHealsAndReplaysGap(t *testing.T) {
	netw := overlay.NewInprocNetwork(0)
	fn := faultnet.New(netw, 7)
	startBroker(t, netw, Config{
		Name:       "uphb",
		DataDir:    filepath.Join(t.TempDir(), "uphb"),
		ListenAddr: "uphb",
	}, 1, nil)
	shb := startSHBThrough(t, fn, "ushb", "uphb", "")

	if st := waitLink(t, shb, "initial link up", func(s overlay.LinkStatus) bool {
		return s.State == overlay.LinkUp
	}); st.Reconnects != 0 {
		t.Fatalf("fresh link already counts reconnects: %+v", st)
	}

	p, err := client.NewPublisher(context.Background(), netw, "uphb", "upub")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck
	sub, err := client.NewSubscriber(client.SubscriberOptions{
		ID: 901, Filter: `topic = "u"`, AckInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Connect(context.Background(), netw, "ushb"); err != nil {
		t.Fatal(err)
	}
	defer sub.Disconnect() //nolint:errcheck

	want := pub(t, p, "u", 10)
	got := collectEvents(t, sub, 10)

	// Cut the SHB→PHB link and publish into the outage: the PHB logs the
	// events, the SHB cannot hear about them yet.
	fn.Partition("uphb")
	waitLink(t, shb, "link down after partition", func(s overlay.LinkStatus) bool {
		return s.State != overlay.LinkUp
	})
	want = append(want, pub(t, p, "u", 15)...)

	// Heal: the supervisor redials, the broker resyncs (subscription
	// re-announce + pending-curiosity re-nacks), and the knowledge/NACK
	// path replays the gap from the PHB's log.
	fn.Heal()
	st := waitLink(t, shb, "link healed", func(s overlay.LinkStatus) bool {
		return s.State == overlay.LinkUp
	})
	if st.Reconnects != 1 {
		t.Fatalf("Reconnects = %d, want 1: %+v", st.Reconnects, st)
	}
	got = append(got, collectEvents(t, sub, 15)...)
	assertTimestamps(t, got, want)
	if _, _, gaps, violations := sub.Stats(); gaps != 0 || violations != 0 {
		t.Fatalf("delivery contract broken across sever: gaps=%d violations=%d", gaps, violations)
	}
	if fn.Kills() == 0 {
		t.Fatal("fault injector recorded no kills")
	}
}

// waitState expects the next OnConnChange transition within a deadline.
func waitState(t *testing.T, who string, ch <-chan client.ConnState, want client.ConnState) {
	t.Helper()
	select {
	case got := <-ch:
		if got != want {
			t.Fatalf("%s: conn state = %v, want %v", who, got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: timeout waiting for conn state %v", who, want)
	}
}

func TestClientsAutoReconnectAcrossBrokerRestart(t *testing.T) {
	netw := overlay.NewInprocNetwork(0)
	dir := filepath.Join(t.TempDir(), "rb")
	cfg := Config{
		Name:          "rb",
		DataDir:       dir,
		Transport:     netw,
		ListenAddr:    "rb",
		EnableSHB:     true,
		HostedPubends: []PubendConfig{{ID: 1}},
		AllPubends:    []vtime.PubendID{1},
		TickInterval:  testTick,
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	pubStates := make(chan client.ConnState, 16)
	p, err := client.NewPublisher(context.Background(), netw, "rb", "rpub",
		client.WithDialTimeout(500*time.Millisecond),
		client.WithAutoReconnect(),
		client.WithConnChange(func(st client.ConnState) { pubStates <- st }))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck
	waitState(t, "publisher", pubStates, client.ConnUp)

	subStates := make(chan client.ConnState, 16)
	sub, err := client.NewSubscriber(client.SubscriberOptions{
		ID:            902,
		Filter:        `topic = "r"`,
		AckInterval:   10 * time.Millisecond,
		DialTimeout:   500 * time.Millisecond,
		AutoReconnect: true,
		OnConnChange:  func(st client.ConnState) { subStates <- st },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Connect(context.Background(), netw, "rb"); err != nil {
		t.Fatal(err)
	}
	defer sub.Disconnect() //nolint:errcheck
	waitState(t, "subscriber", subStates, client.ConnUp)

	want := pub(t, p, "r", 10)
	got := collectEvents(t, sub, 10)

	// Hard-crash the broker: both client links die involuntarily and the
	// supervisors start redialing a dead address.
	b.Crash()
	waitState(t, "publisher", pubStates, client.ConnDown)
	waitState(t, "subscriber", subStates, client.ConnDown)

	// Restart from the same persistent state: the clients re-attach on
	// their own — the subscriber resumes from its checkpoint token.
	b2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b2.Close() }) //nolint:errcheck
	waitState(t, "publisher", pubStates, client.ConnUp)
	waitState(t, "subscriber", subStates, client.ConnUp)
	if !sub.Connected() {
		t.Fatal("subscriber not connected after reconnect")
	}

	want = append(want, pub(t, p, "r", 15)...)
	got = append(got, collectEvents(t, sub, 15)...)
	assertTimestamps(t, got, want)
	if _, _, gaps, violations := sub.Stats(); gaps != 0 || violations != 0 {
		t.Fatalf("delivery contract broken across restart: gaps=%d violations=%d", gaps, violations)
	}
}

// The steady state of a healthy system: every event acknowledged, the
// pubend log fully released and chopped. Restarting the PHB from that
// state must not lose subsequent events — its virtual clock has to
// recover above the silence horizon it asserted before the crash, or the
// SHB's exactly-once cursor silently drops everything it publishes next.
func TestPHBRestartAfterFullReleaseKeepsDelivering(t *testing.T) {
	netw := overlay.NewInprocNetwork(0)
	phbCfg := Config{
		Name:          "frphb",
		DataDir:       filepath.Join(t.TempDir(), "frphb"),
		Transport:     netw,
		ListenAddr:    "frphb",
		HostedPubends: []PubendConfig{{ID: 1}},
		TickInterval:  testTick,
	}
	phb, err := New(phbCfg)
	if err != nil {
		t.Fatal(err)
	}
	shb := startSHBThrough(t, netw, "frshb", "frphb", "")

	p, err := client.NewPublisher(context.Background(), netw, "frphb", "frpub")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := client.NewSubscriber(client.SubscriberOptions{
		ID: 905, Filter: `topic = "fr"`, AckInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Connect(context.Background(), netw, "frshb"); err != nil {
		t.Fatal(err)
	}
	defer sub.Disconnect() //nolint:errcheck

	want := pub(t, p, "fr", 10)
	got := collectEvents(t, sub, 10)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Wait for the release protocol to reclaim the whole log: acks raise
	// released(s,p) at the SHB, the release vector reaches the PHB, and
	// the chop drops every logged event.
	deadline := time.Now().Add(10 * time.Second)
	for phb.Pubend(1).EventCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pubend log never fully released: %d events retained", phb.Pubend(1).EventCount())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Let silence ticks advance the SHB's exactly-once cursor well past
	// the wall time a restart + supervised redial takes. Without this the
	// test cannot catch a clock regression: a pubend reborn at virtual
	// time zero would overtake a small cursor during the reconnect
	// backoff, and the stale stamps would never be exercised.
	time.Sleep(1500 * time.Millisecond)

	if err := phb.Close(); err != nil {
		t.Fatal(err)
	}
	waitLink(t, shb, "link down after phb stop", func(s overlay.LinkStatus) bool {
		return s.State != overlay.LinkUp
	})
	phb2, err := New(phbCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { phb2.Close() }) //nolint:errcheck
	waitLink(t, shb, "link healed after phb restart", func(s overlay.LinkStatus) bool {
		return s.State == overlay.LinkUp
	})

	p2, err := client.NewPublisher(context.Background(), netw, "frphb", "frpub2")
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close() //nolint:errcheck
	want = append(want, pub(t, p2, "fr", 15)...)
	got = append(got, collectEvents(t, sub, 15)...)
	assertTimestamps(t, got, want)
	if _, _, gaps, violations := sub.Stats(); gaps != 0 || violations != 0 {
		t.Fatalf("delivery contract broken across PHB restart: gaps=%d violations=%d", gaps, violations)
	}
}

func TestHealthzReflectsUpstreamLink(t *testing.T) {
	netw := overlay.NewInprocNetwork(0)
	fn := faultnet.New(netw, 3)
	startBroker(t, netw, Config{
		Name:       "hphb",
		DataDir:    filepath.Join(t.TempDir(), "hphb"),
		ListenAddr: "hphb",
	}, 1, nil)
	shb := startSHBThrough(t, fn, "hshb", "hphb", "127.0.0.1:0")

	if code, body := adminGet(t, shb, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz with live upstream = %d %q, want 200", code, body)
	}

	fn.Partition("hphb")
	waitLink(t, shb, "link down", func(s overlay.LinkStatus) bool {
		return s.State != overlay.LinkUp
	})
	code, body := adminGet(t, shb, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with severed upstream = %d %q, want 503", code, body)
	}
	if !strings.Contains(body, "upstream") {
		t.Fatalf("/healthz body %q does not name the upstream link", body)
	}

	fn.Heal()
	waitLink(t, shb, "link healed", func(s overlay.LinkStatus) bool {
		return s.State == overlay.LinkUp
	})
	if code, body := adminGet(t, shb, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after heal = %d %q, want 200", code, body)
	}
}
