package broker

import (
	"context"
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

// TestConnectWaitsForAnnouncement: Connect for a filter new to the brokers
// above returns only once the PHB filters with it. The PHB's control shard is
// held while a second topic subscribes two hops below, so the announcement
// sits unprocessed there: Connect must not return, and once it does, events
// published at once are delivered — the PHB's link matcher already holds the
// first topic, so it would downgrade them to silence if it had not learned
// the second. The tick is a second long: no timer slack hides the order.
func TestConnectWaitsForAnnouncement(t *testing.T) {
	netw := overlay.NewInprocNetwork(0)
	dir := t.TempDir()
	phb := startBroker(t, netw, Config{
		Name: "phb", DataDir: filepath.Join(dir, "phb"), ListenAddr: "phb",
		TickInterval: time.Second,
	}, 1, nil)
	startBroker(t, netw, Config{
		Name: "mid", ListenAddr: "mid", UpstreamAddr: "phb", TickInterval: time.Second,
	}, 0, nil)
	startBroker(t, netw, Config{
		Name: "shb", DataDir: filepath.Join(dir, "shb"), ListenAddr: "shb",
		UpstreamAddr: "mid", EnableSHB: true, AllPubends: []vtime.PubendID{1},
		TickInterval: time.Second,
	}, 0, nil)
	p, err := client.NewPublisher(context.Background(), netw, "phb", "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck
	newSub := func(id vtime.SubscriberID, topic string) *client.Subscriber {
		s, err := client.NewSubscriber(client.SubscriberOptions{
			ID: id, Filter: `topic = "` + topic + `"`, AckInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Disconnect() }) //nolint:errcheck
		return s
	}

	subA := newSub(1, "a")
	if err := subA.Connect(context.Background(), netw, "shb"); err != nil {
		t.Fatal(err)
	}
	want := pub(t, p, "a", 3)
	assertTimestamps(t, collectEvents(t, subA, 3), want)

	// holdControl parks the PHB's control shard until the returned function
	// (or the end of the test) lets it go.
	holdControl := func() (release func()) {
		entered, released := make(chan struct{}), make(chan struct{})
		phb.control().push(func() { close(entered); <-released })
		<-entered
		release = sync.OnceFunc(func() { close(released) })
		t.Cleanup(release)
		return release
	}

	release := holdControl()
	subB := newSub(2, "b")
	connected := make(chan error, 1)
	go func() { connected <- subB.Connect(context.Background(), netw, "shb") }()
	select {
	case err := <-connected:
		t.Fatalf("Connect returned (%v) before the PHB had seen the announcement", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-connected; err != nil {
		t.Fatal(err)
	}
	want = pub(t, p, "b", 12)
	assertTimestamps(t, collectEvents(t, subB, 12), want)

	// A filter the announced ones already cover confirms nothing new: its
	// Connect does not go upstream at all.
	holdControl()
	if err := newSub(3, "b").Connect(context.Background(), netw, "shb"); err != nil {
		t.Fatal(err)
	}
}

// TestLinkFiltersOnlyAfterSubSync drives the parent's side of the barrier
// over a raw broker link: until the child's first SubSync its matcher may
// hold only part of what the child subscribes to, so events pass
// unfiltered; the SubSync is echoed with its token; from then on events the
// announced filters do not match are downgraded to silence.
func TestLinkFiltersOnlyAfterSubSync(t *testing.T) {
	netw, phb := net1(t, 1)
	p, err := client.NewPublisher(context.Background(), netw, "b1", "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck
	conn, err := netw.Dial("b1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck
	// open starts a raw link's dispatch into a channel (Hello replies aside).
	open := func(c overlay.Conn) <-chan message.Message {
		got := make(chan message.Message, 1024)
		c.Start(func(m message.Message) {
			if _, hello := m.(*message.Hello); !hello {
				got <- m
			}
		})
		return got
	}
	got := open(conn)
	send := func(m message.Message) {
		t.Helper()
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	// eventOrSilence reports how the link saw ts: as an event or inside an
	// S range.
	eventOrSilence := func(got <-chan message.Message, ts vtime.Timestamp) (event bool) {
		t.Helper()
		deadline := time.After(10 * time.Second)
		for {
			select {
			case m := <-got:
				know, ok := m.(*message.Knowledge)
				if !ok {
					t.Fatalf("unexpected %T on the link", m)
				}
				for _, ev := range know.Events {
					if ev.Timestamp == ts {
						return true
					}
				}
				for _, r := range know.Ranges {
					if r.Start <= ts && ts <= r.End {
						return false
					}
				}
			case <-deadline:
				t.Fatalf("tick %d never reached the link", ts)
			}
		}
	}
	publish := func(topic string) vtime.Timestamp {
		t.Helper()
		_, ts, err := p.Publish(message.Event{Attrs: filter.Attributes{"topic": filter.String(topic)}})
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}

	send(&message.Hello{Role: message.RoleBroker, Name: "child"})
	send(&message.SubUpdate{Subscriber: 1, Filter: `topic = "a"`})
	send(&message.SubSync{Token: 7}) // registers the link and the filter …
	for echoed := false; !echoed; {
		select {
		case m := <-got:
			if s, ok := m.(*message.SubSync); ok {
				if s.Token != 7 {
					t.Fatalf("echo carries token %d, want 7", s.Token)
				}
				echoed = true
			}
		case <-time.After(10 * time.Second):
			t.Fatal("SubSync was not echoed")
		}
	}
	if !eventOrSilence(got, publish("a")) {
		t.Error("matching event downgraded to silence")
	}
	if eventOrSilence(got, publish("b")) {
		t.Error("event matching no announced filter passed a synced link")
	}

	// … and a fresh link with the same announcement but no SubSync yet
	// passes everything.
	conn2, err := netw.Dial("b1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close() //nolint:errcheck
	got2 := open(conn2)
	if err := conn2.Send(&message.Hello{Role: message.RoleBroker, Name: "child2"}); err != nil {
		t.Fatal(err)
	}
	if err := conn2.Send(&message.SubUpdate{Subscriber: 2, Filter: `topic = "a"`}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if lens := downMatcherLens(t, phb); len(lens) == 2 && lens[0] == 1 && lens[1] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second link never registered its announcement")
		}
	}
	if !eventOrSilence(got2, publish("b")) {
		t.Error("unsynced link filtered an event: its matcher may hold only part of a resync")
	}
}
