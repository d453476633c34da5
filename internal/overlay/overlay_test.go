package overlay

import (
	"sync"
	"testing"
	"time"

	"repro/internal/message"
	"repro/internal/vtime"
)

// collect gathers messages with a wait helper.
type collect struct {
	mu   sync.Mutex
	msgs []message.Message
}

func (c *collect) handler(m message.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, m)
}

func (c *collect) waitFor(t *testing.T, n int) []message.Message {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		if len(c.msgs) >= n {
			out := make([]message.Message, len(c.msgs))
			copy(out, c.msgs)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t.Fatalf("timeout: got %d messages, want %d", len(c.msgs), n)
	return nil
}

func ack(sub vtime.SubscriberID) *message.Ack {
	ct := vtime.NewCheckpointToken()
	ct.Set(1, vtime.Timestamp(sub))
	return &message.Ack{Subscriber: sub, CT: ct}
}

func testBidirectional(t *testing.T, dial func(accept func(Conn)) Conn) {
	t.Helper()
	var serverConn Conn
	var serverMsgs collect
	ready := make(chan struct{})
	client := dial(func(c Conn) {
		serverConn = c
		c.Start(serverMsgs.handler)
		close(ready)
	})
	var clientMsgs collect
	client.Start(clientMsgs.handler)

	const n = 200
	for i := 0; i < n; i++ {
		if err := client.Send(ack(vtime.SubscriberID(i))); err != nil {
			t.Fatalf("client send %d: %v", i, err)
		}
	}
	<-ready
	got := serverMsgs.waitFor(t, n)
	for i, m := range got {
		a, ok := m.(*message.Ack)
		if !ok || a.Subscriber != vtime.SubscriberID(i) {
			t.Fatalf("FIFO violated at %d: %+v", i, m)
		}
	}
	// Server → client direction.
	for i := 0; i < n; i++ {
		if err := serverConn.Send(ack(vtime.SubscriberID(1000 + i))); err != nil {
			t.Fatalf("server send %d: %v", i, err)
		}
	}
	back := clientMsgs.waitFor(t, n)
	for i, m := range back {
		a, ok := m.(*message.Ack)
		if !ok || a.Subscriber != vtime.SubscriberID(1000+i) {
			t.Fatalf("server→client FIFO violated at %d: %+v", i, m)
		}
	}
	if client.RemoteAddr() == "" || serverConn.RemoteAddr() == "" {
		t.Error("empty remote addresses")
	}
	client.Close()     //nolint:errcheck
	serverConn.Close() //nolint:errcheck
}

func TestInprocBidirectionalFIFO(t *testing.T) {
	net := NewInprocNetwork(0)
	closer, err := net.Listen("broker-a", nil)
	if err == nil {
		closer.Close() //nolint:errcheck
	}
	testBidirectional(t, func(accept func(Conn)) Conn {
		if _, err := net.Listen("b1", accept); err != nil {
			t.Fatal(err)
		}
		c, err := net.Dial("b1")
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

func TestTCPBidirectionalFIFO(t *testing.T) {
	testBidirectional(t, func(accept func(Conn)) Conn {
		closer, addr, err := ListenAny(accept)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { closer.Close() }) //nolint:errcheck
		c, err := TCPTransport{}.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

func TestInprocDialErrors(t *testing.T) {
	net := NewInprocNetwork(0)
	if _, err := net.Dial("nowhere"); err == nil {
		t.Error("dial to unbound address succeeded")
	}
	if _, err := net.Listen("x", func(Conn) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Listen("x", func(Conn) {}); err == nil {
		t.Error("double bind succeeded")
	}
}

func TestInprocListenerClose(t *testing.T) {
	net := NewInprocNetwork(0)
	closer, err := net.Listen("x", func(Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Dial("x"); err == nil {
		t.Error("dial after listener close succeeded")
	}
}

func TestInprocLatency(t *testing.T) {
	net := NewInprocNetwork(5 * time.Millisecond)
	var msgs collect
	if _, err := net.Listen("lat", func(c Conn) { c.Start(msgs.handler) }); err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("lat")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	c.Start(func(message.Message) {})
	start := time.Now()
	c.Send(ack(1)) //nolint:errcheck
	msgs.waitFor(t, 1)
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Errorf("latency injection too fast: %v", elapsed)
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	net := NewInprocNetwork(0)
	if _, err := net.Listen("c", func(c Conn) { c.Start(func(message.Message) {}) }); err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("c")
	if err != nil {
		t.Fatal(err)
	}
	c.Start(func(message.Message) {})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(ack(1)); err == nil {
		t.Error("send after close succeeded")
	}
	// Double close is safe.
	if err := c.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestOnCloseFiresOnPeerClose(t *testing.T) {
	net := NewInprocNetwork(0)
	var serverConn Conn
	if _, err := net.Listen("oc", func(c Conn) {
		serverConn = c
		c.Start(func(message.Message) {})
	}); err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("oc")
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	c.OnClose(func(error) { close(closed) })
	c.Start(func(message.Message) {})
	serverConn.Close() //nolint:errcheck
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("OnClose did not fire on peer close")
	}
	c.Close() //nolint:errcheck
}

func TestTCPOnCloseFiresOnPeerClose(t *testing.T) {
	var serverConn Conn
	accepted := make(chan struct{})
	closer, addr, err := ListenAny(func(c Conn) {
		serverConn = c
		c.Start(func(message.Message) {})
		close(accepted)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close() //nolint:errcheck
	c, err := TCPTransport{}.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	c.OnClose(func(error) { close(closed) })
	c.Start(func(message.Message) {})
	<-accepted
	serverConn.Close() //nolint:errcheck
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("OnClose did not fire on TCP peer close")
	}
	c.Close() //nolint:errcheck
}

func TestTCPLargeMessage(t *testing.T) {
	var msgs collect
	closer, addr, err := ListenAny(func(c Conn) { c.Start(msgs.handler) })
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close() //nolint:errcheck
	c, err := TCPTransport{}.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	c.Start(func(message.Message) {})

	big := &message.Publish{Payload: make([]byte, 1<<20), Token: 9}
	if err := c.Send(big); err != nil {
		t.Fatal(err)
	}
	got := msgs.waitFor(t, 1)
	p, ok := got[0].(*message.Publish)
	if !ok || len(p.Payload) != 1<<20 || p.Token != 9 {
		t.Fatalf("large message mangled: %T", got[0])
	}
}

func TestQueueSemantics(t *testing.T) {
	q := newQueue()
	if err := q.push(ack(1)); err != nil {
		t.Fatal(err)
	}
	m, ok := q.pop()
	if !ok || m.(*message.Ack).Subscriber != 1 {
		t.Fatalf("pop = %v/%v", m, ok)
	}
	// pop on closed empty queue returns immediately.
	done := make(chan struct{})
	go func() {
		_, ok := q.pop()
		if ok {
			t.Error("pop on closed returned ok")
		}
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	q.close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("pop did not unblock on close")
	}
	if err := q.push(ack(2)); err == nil {
		t.Error("push after close succeeded")
	}
}
