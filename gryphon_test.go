package repro

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

// TestPublicAPIQuickstart exercises the whole public facade: start a
// combined broker, publish, subscribe durably, disconnect, miss events,
// reconnect, and receive them exactly once.
func TestPublicAPIQuickstart(t *testing.T) {
	net := NewInprocNetwork(0)
	b, err := StartBroker(context.Background(), BrokerConfig{
		Name:          "node1",
		DataDir:       filepath.Join(t.TempDir(), "node1"),
		Transport:     net,
		ListenAddr:    "node1",
		HostedPubends: []PubendConfig{{ID: 1}},
		EnableSHB:     true,
		AllPubends:    []PubendID{1},
		TickInterval:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close() //nolint:errcheck

	pub, err := NewPublisher(context.Background(), net, "node1", "quickstart")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close() //nolint:errcheck

	sub, err := NewDurableSubscriber(SubscriberOptions{
		ID:          1,
		Filter:      `topic = "orders" and qty > 100`,
		AckInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Connect(context.Background(), net, "node1"); err != nil {
		t.Fatal(err)
	}

	publish := func(qty int64) Timestamp {
		t.Helper()
		_, ts, err := pub.Publish(Event{
			Attrs: Attributes{
				"topic": String("orders"),
				"qty":   Int(qty),
			},
			Payload: []byte(fmt.Sprintf("BUY %d XYZ", qty)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}

	want := publish(500)
	publish(50) // filtered: qty too small
	d := <-sub.Deliveries()
	if d.Kind != DeliverEvent || d.Timestamp != want {
		t.Fatalf("delivery = %+v, want event @%d", d, want)
	}

	// Disconnect; events published while away are recovered exactly once
	// on reconnection.
	if err := sub.Disconnect(); err != nil {
		t.Fatal(err)
	}
	missed := []Timestamp{publish(200), publish(300)}
	publish(10) // filtered
	if err := sub.Connect(context.Background(), net, "node1"); err != nil {
		t.Fatal(err)
	}
	defer sub.Disconnect() //nolint:errcheck
	for _, want := range missed {
		d := <-sub.Deliveries()
		if d.Kind != DeliverEvent || d.Timestamp != want {
			t.Fatalf("catchup delivery = %+v, want event @%d", d, want)
		}
	}
	events, _, gaps, violations := sub.Stats()
	if events != 3 || gaps != 0 || violations != 0 {
		t.Errorf("stats: events=%d gaps=%d violations=%d", events, gaps, violations)
	}
	if sub.CT().Get(1) < missed[1] {
		t.Error("checkpoint token did not advance")
	}
}

// TestPublicAPIFilterParsing verifies the re-exported filter surface.
func TestPublicAPIFilterParsing(t *testing.T) {
	sub, err := ParseFilter(`prefix(topic, "trades.") and price >= 10 and active = true`)
	if err != nil {
		t.Fatal(err)
	}
	match := Attributes{
		"topic":  String("trades.NYSE"),
		"price":  Float(10),
		"active": Bool(true),
	}
	if !sub.Matches(match) {
		t.Error("filter should match")
	}
	match["price"] = Float(9.99)
	if sub.Matches(match) {
		t.Error("filter should reject low price")
	}
	if _, err := ParseFilter(`topic = `); err == nil {
		t.Error("bad filter parsed")
	}
}

// TestPublicAPITCPDeployment runs the quickstart over real TCP sockets.
func TestPublicAPITCPDeployment(t *testing.T) {
	var transport TCPTransport
	b, err := StartBroker(context.Background(), BrokerConfig{
		Name:          "tcp-node",
		DataDir:       filepath.Join(t.TempDir(), "node"),
		Transport:     transport,
		ListenAddr:    "127.0.0.1:0", // note: broker needs a fixed port to be dialed
		HostedPubends: []PubendConfig{{ID: 1}},
		EnableSHB:     true,
		AllPubends:    []PubendID{1},
		TickInterval:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 127.0.0.1:0 binds an ephemeral port we cannot discover through the
	// facade; re-start on a likely-free fixed port instead.
	b.Close() //nolint:errcheck
	addr := "127.0.0.1:39417"
	b, err = StartBroker(context.Background(), BrokerConfig{
		Name:          "tcp-node",
		DataDir:       filepath.Join(t.TempDir(), "node2"),
		Transport:     transport,
		ListenAddr:    addr,
		HostedPubends: []PubendConfig{{ID: 1}},
		EnableSHB:     true,
		AllPubends:    []PubendID{1},
		TickInterval:  2 * time.Millisecond,
	})
	if err != nil {
		t.Skipf("fixed TCP port unavailable: %v", err)
	}
	defer b.Close() //nolint:errcheck

	pub, err := NewPublisher(context.Background(), transport, addr, "tcp-pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close() //nolint:errcheck
	sub, err := NewDurableSubscriber(SubscriberOptions{
		ID: 1, Filter: `true`, AckInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Connect(context.Background(), transport, addr); err != nil {
		t.Fatal(err)
	}
	defer sub.Disconnect() //nolint:errcheck

	if _, _, err := pub.Publish(Event{
		Attrs:   Attributes{"k": Int(1)},
		Payload: []byte("over tcp"),
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-sub.Deliveries():
		if d.Kind != DeliverEvent || string(d.Event.Payload) != "over tcp" {
			t.Fatalf("delivery = %+v", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery over TCP")
	}
}
