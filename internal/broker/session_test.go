package broker

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/message"
	"repro/internal/overlay"
	"repro/internal/vtime"
)

// A subscriber that disconnects and connects again at once must never be
// told it is "already connected": the new connection's Subscribe can reach
// the broker before the old connection's Detach, and it takes the session
// over. 1 000 such cycles with publishes in between deliver every event
// exactly once, in order.
func TestReconnectLoopExactlyOnce(t *testing.T) {
	const cycles = 1000
	for _, tc := range []struct {
		name   string
		tr     overlay.Transport
		listen string
	}{
		{"inproc", overlay.NewInprocNetwork(0), "rl"},
		{"tcp", overlay.TCPTransport{}, "127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := New(Config{
				Name:          "rl",
				DataDir:       filepath.Join(t.TempDir(), "rl"),
				Transport:     tc.tr,
				ListenAddr:    tc.listen,
				HostedPubends: []PubendConfig{{ID: 1}},
				EnableSHB:     true,
				AllPubends:    []vtime.PubendID{1},
				TickInterval:  testTick,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { b.Close() }) //nolint:errcheck
			addr := b.BoundAddr()

			p, err := client.NewPublisher(context.Background(), tc.tr, addr, "rlpub")
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close() //nolint:errcheck
			sub, err := client.NewSubscriber(client.SubscriberOptions{
				ID: 1, Filter: `topic = "rl"`, AckInterval: time.Millisecond,
				Buffer: 4 * cycles,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sub.Connect(context.Background(), tc.tr, addr); err != nil {
				t.Fatal(err)
			}
			defer sub.Disconnect() //nolint:errcheck

			var want []stamp
			for i := 0; i < cycles; i++ {
				want = append(want, pub(t, p, "rl", 1)...)
				if err := sub.Disconnect(); err != nil {
					t.Fatalf("cycle %d: disconnect: %v", i, err)
				}
				want = append(want, pub(t, p, "rl", 1)...)
				if err := sub.Connect(context.Background(), tc.tr, addr); err != nil {
					t.Fatalf("cycle %d: connect: %v", i, err)
				}
			}
			assertTimestamps(t, collectEvents(t, sub, len(want)), want)
			if _, _, gaps, violations := sub.Stats(); gaps != 0 || violations != 0 {
				t.Fatalf("gaps=%d violations=%d, want 0", gaps, violations)
			}
		})
	}
}

// rawSub is a subscriber connection driven message by message, so a test
// can hold two live connections for one subscriber ID.
type rawSub struct {
	conn  overlay.Conn
	acks  chan *message.SubscribeAck
	stamp chan vtime.Timestamp
}

func dialRawSub(t *testing.T, tr overlay.Transport, addr, filter string) *rawSub {
	t.Helper()
	conn, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() }) //nolint:errcheck
	r := &rawSub{
		conn:  conn,
		acks:  make(chan *message.SubscribeAck, 16),
		stamp: make(chan vtime.Timestamp, 1024),
	}
	conn.Start(func(m message.Message) {
		switch v := m.(type) {
		case *message.SubscribeAck:
			r.acks <- v
		case *message.Deliver:
			for _, d := range v.Deliveries {
				if d.Kind == message.DeliverEvent {
					r.stamp <- d.Timestamp
				}
			}
		}
	})
	if err := conn.Send(&message.Hello{Role: message.RoleSubscriber, Name: filter}); err != nil {
		t.Fatal(err)
	}
	return r
}

// subscribe sends a Subscribe and returns the broker's verdict.
func (r *rawSub) subscribe(t *testing.T, req *message.Subscribe) *message.SubscribeAck {
	t.Helper()
	if err := r.conn.Send(req); err != nil {
		t.Fatal(err)
	}
	select {
	case ack := <-r.acks:
		return ack
	case <-time.After(10 * time.Second):
		t.Fatal("no SubscribeAck")
		return nil
	}
}

// events receives n event timestamps.
func (r *rawSub) events(t *testing.T, n int) []vtime.Timestamp {
	t.Helper()
	var out []vtime.Timestamp
	for len(out) < n {
		select {
		case ts := <-r.stamp:
			out = append(out, ts)
		case <-time.After(10 * time.Second):
			t.Fatalf("received %d of %d events", len(out), n)
		}
	}
	return out
}

// Two live connections contend for one subscriber ID, taking the session
// from each other in turn. Each Subscribe wins; the connection that lost
// receives nothing further, and its late Detach and Ack do not disturb the
// winner. Over all rounds every event is delivered exactly once.
func TestSessionTakeoverLastConnWins(t *testing.T) {
	netw, _ := net1(t, 1)
	p, err := client.NewPublisher(context.Background(), netw, "b1", "tpub")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck
	const filter = `topic = "to"`
	conns := []*rawSub{dialRawSub(t, netw, "b1", filter), dialRawSub(t, netw, "b1", filter)}

	ct := vtime.NewCheckpointToken()
	var published, received []vtime.Timestamp
	for round := 0; round < 6; round++ {
		win, lose := conns[round%2], conns[(round+1)%2]
		ack := win.subscribe(t, &message.Subscribe{
			Subscriber: 5, Filter: filter, CT: ct.Clone(), Resume: round > 0,
		})
		if ack.Err != "" {
			t.Fatalf("round %d: takeover rejected: %s", round, ack.Err)
		}
		if round > 0 {
			// The loser's goodbye arrives after the takeover.
			lose.conn.Send(&message.Ack{Subscriber: 5, CT: vtime.NewCheckpointToken()}) //nolint:errcheck,gosec
			lose.conn.Send(&message.Detach{Subscriber: 5})                              //nolint:errcheck,gosec
		}
		for _, s := range pub(t, p, "to", 3) {
			published = append(published, s.ts)
		}
		got := win.events(t, 3)
		received = append(received, got...)
		ct.Set(1, got[len(got)-1])
	}
	for i, c := range conns {
		select {
		case ts := <-c.stamp:
			t.Fatalf("conn %d received @%d after its session was taken over", i, ts)
		default:
		}
	}
	if len(received) != len(published) {
		t.Fatalf("received %d events, published %d", len(received), len(published))
	}
	for i := range published {
		if received[i] != published[i] {
			t.Fatalf("delivery %d = @%d, want @%d (received %v)", i, received[i], published[i], received)
		}
	}
}

// A second Subscribe on the connection that already holds the session is
// rejected, and the session keeps being served.
func TestDuplicateSubscribeKeepsSession(t *testing.T) {
	netw, _ := net1(t, 1)
	p, err := client.NewPublisher(context.Background(), netw, "b1", "dpub")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck
	const filter = `topic = "dup"`
	r := dialRawSub(t, netw, "b1", filter)
	req := &message.Subscribe{Subscriber: 6, Filter: filter, CT: vtime.NewCheckpointToken()}
	if ack := r.subscribe(t, req); ack.Err != "" {
		t.Fatalf("subscribe: %s", ack.Err)
	}
	pub(t, p, "dup", 2)
	r.events(t, 2)

	dup := &message.Subscribe{Subscriber: 6, Filter: filter, CT: vtime.NewCheckpointToken(), Resume: true}
	if ack := r.subscribe(t, dup); ack.Err == "" {
		t.Fatal("duplicate Subscribe on the same connection accepted")
	}
	want := pub(t, p, "dup", 3)
	got := r.events(t, 3)
	for i := range want {
		if got[i] != want[i].ts {
			t.Fatalf("delivery %d = @%d, want @%d", i, got[i], want[i].ts)
		}
	}
}
