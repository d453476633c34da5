package overlay_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/message"
	"repro/internal/overlay"
)

// closeCase is one transport under the Conn.Close contract. link connects
// a sender to a listening peer, hands the accepted end to accept before
// returning it, and returns how that transport's users close the sender.
type closeCase struct {
	name string
	link func(t *testing.T, accept func(overlay.Conn)) (sender, peer overlay.Conn, closeSender func())
}

var closeCases = []closeCase{
	{"tcp", func(t *testing.T, accept func(overlay.Conn)) (overlay.Conn, overlay.Conn, func()) {
		peers, addr := listenTCP(t, accept)
		sender, err := overlay.TCPTransport{}.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		return sender, <-peers, func() { sender.Close() } //nolint:errcheck
	}},
	{"inproc", func(t *testing.T, accept func(overlay.Conn)) (overlay.Conn, overlay.Conn, func()) {
		net := overlay.NewInprocNetwork(0)
		peers := make(chan overlay.Conn, 1)
		if _, err := net.Listen("peer", func(c overlay.Conn) { accept(c); peers <- c }); err != nil {
			t.Fatal(err)
		}
		sender, err := net.Dial("peer")
		if err != nil {
			t.Fatal(err)
		}
		return sender, <-peers, func() { sender.Close() } //nolint:errcheck
	}},
	// A kill with duplicate close on runs the sender's Close from two
	// goroutines at once.
	{"faultnet", func(t *testing.T, accept func(overlay.Conn)) (overlay.Conn, overlay.Conn, func()) {
		fn := faultnet.New(overlay.TCPTransport{}, 1)
		fn.SetDuplicateClose(true)
		peers, addr := listenTCP(t, accept)
		sender, err := fn.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		return sender, <-peers, func() { fn.Sever(addr) }
	}},
}

// listenTCP listens on loopback and delivers each accepted conn on the
// returned channel after accept has seen it.
func listenTCP(t *testing.T, accept func(overlay.Conn)) (<-chan overlay.Conn, string) {
	t.Helper()
	peers := make(chan overlay.Conn, 1)
	closer, addr, err := overlay.ListenAny(func(c overlay.Conn) { accept(c); peers <- c })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closer.Close() }) //nolint:errcheck
	return peers, addr
}

// TestConnCloseFlushesAccepted: every message Send accepted before Close
// reaches the peer, in order, before the peer observes the close.
func TestConnCloseFlushesAccepted(t *testing.T) {
	const n = 2000
	payload := make([]byte, 4<<10)
	for _, tc := range closeCases {
		t.Run(tc.name, func(t *testing.T) {
			var tokens []uint64 // appended on the peer's dispatch goroutine only
			closed := make(chan error, 1)
			sender, peer, closeSender := tc.link(t, func(peer overlay.Conn) {
				peer.OnClose(func(reason error) { closed <- reason })
				peer.Start(func(m message.Message) {
					if p, ok := m.(*message.Publish); ok {
						tokens = append(tokens, p.Token)
					}
				})
			})
			t.Cleanup(func() { peer.Close() }) //nolint:errcheck
			sender.Start(func(message.Message) {})
			for i := range n {
				if err := sender.Send(&message.Publish{Payload: payload, Token: uint64(i)}); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			closeSender()
			if err := sender.Send(&message.Publish{Token: n}); !errors.Is(err, overlay.ErrClosed) {
				t.Errorf("send after close = %v, want ErrClosed", err)
			}
			select {
			case reason := <-closed:
				if !errors.Is(reason, overlay.ErrPeerClosed) {
					t.Errorf("peer close reason = %v, want ErrPeerClosed", reason)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("peer never observed the close")
			}
			if len(tokens) != n {
				t.Fatalf("peer received %d of %d accepted messages", len(tokens), n)
			}
			for i, tok := range tokens {
				if tok != uint64(i) {
					t.Fatalf("message %d has token %d: order lost", i, tok)
				}
			}
		})
	}
}

// TestConnCloseBoundedOnStalledPeer: Close returns promptly even when the
// peer never reads, so the flush cannot complete.
func TestConnCloseBoundedOnStalledPeer(t *testing.T) {
	const n = 8192 // 32 MiB: more than loopback socket buffers hold
	payload := make([]byte, 4<<10)
	for _, tc := range closeCases {
		t.Run(tc.name, func(t *testing.T) {
			// The peer is never started, so nothing reads its end.
			sender, peer, closeSender := tc.link(t, func(overlay.Conn) {})
			t.Cleanup(func() { peer.Close() }) //nolint:errcheck
			sender.Start(func(message.Message) {})
			for i := range n {
				if err := sender.Send(&message.Publish{Payload: payload, Token: uint64(i)}); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			start := time.Now()
			closeSender()
			if d := time.Since(start); d >= time.Second {
				t.Errorf("Close took %v against a stalled peer, want < 1s", d)
			}
		})
	}
}
