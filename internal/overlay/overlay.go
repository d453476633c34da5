// Package overlay implements the broker overlay network's links: ordered,
// reliable, bidirectional message connections between brokers, and between
// clients and brokers.
//
// Two transports are provided. The in-process transport connects brokers
// living in one OS process through queues (with optional injected latency
// to model network hops); the TCP transport frames the message codec over
// real sockets, matching the paper's deployment ("connections between
// brokers in the overlay network are implemented using TCP").
//
// The last hop from an SHB to a subscriber is a FIFO link, and delivery of
// a message is complete as soon as it is enqueued (paper, section 4.1);
// Conn.Send has exactly those semantics.
package overlay

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/message"
	"repro/internal/ringq"
	"repro/internal/telemetry"
)

// ErrClosed is returned by operations on a closed connection or transport.
var ErrClosed = errors.New("overlay: closed")

// Close reasons reported to OnClose callbacks. A link dies for one of
// three broad causes; supervisors and brokers use the reason to decide
// whether a reconnect is warranted (peer/transport failure) or the
// shutdown was deliberate (local close).
var (
	// ErrLocalClosed: this side called Close.
	ErrLocalClosed = errors.New("overlay: closed locally")
	// ErrPeerClosed: the remote end closed the link (orderly close or
	// vanished peer observed as EOF).
	ErrPeerClosed = errors.New("overlay: closed by peer")
	// ErrProtocol: the link tore down because the peer violated the wire
	// protocol (e.g. an oversized frame header).
	ErrProtocol = errors.New("overlay: protocol violation")
)

// Link instruments (process-wide; see internal/telemetry).
var (
	tMsgsSent = telemetry.Default().Counter("gryphon_overlay_sent_total",
		"Messages enqueued on overlay links.")
	tMsgsRecv = telemetry.Default().Counter("gryphon_overlay_received_total",
		"Messages dispatched to overlay link handlers.")
	tQueueDepth = telemetry.Default().Gauge("gryphon_overlay_queue_depth",
		"Messages currently buffered in overlay link queues.")
	tTCPBytes = telemetry.Default().Counter("gryphon_overlay_tcp_bytes_total",
		"Frame bytes written to TCP overlay sockets.")
	tSendErrors = telemetry.Default().Counter("gryphon_overlay_send_errors_total",
		"Sends rejected because the link was closed.")
	tWriteBatch = telemetry.Default().Histogram("gryphon_overlay_write_batch_size",
		"Messages coalesced into one TCP write.", telemetry.SizeBuckets)
)

// Handler consumes inbound messages from a connection. Handlers run on the
// connection's single dispatch goroutine, so messages from one peer are
// processed in FIFO order.
type Handler func(m message.Message)

// Conn is one end of a bidirectional FIFO link.
type Conn interface {
	// Send enqueues a message; delivery is complete at enqueue time.
	// Send never blocks on the network.
	Send(m message.Message) error
	// Start begins dispatching inbound messages to h. It must be called
	// exactly once; messages received before Start are buffered.
	Start(h Handler)
	// Close tears down the link and waits for its goroutines to exit.
	// Every message Send accepted before Close is written before the link
	// goes down, bounded by the flush deadline (a peer that stops reading
	// loses the rest, reported as a write error); a later Send fails with
	// ErrClosed. The peer observes the close via OnClose, after the flush.
	Close() error
	// OnClose registers a callback invoked once when the connection
	// shuts down (either side), with the reason: ErrLocalClosed for a
	// deliberate local Close, ErrPeerClosed when the remote end went
	// away, or a transport error (write failure, protocol violation).
	// Must be called before Start.
	OnClose(func(reason error))
	// RemoteAddr describes the peer (diagnostic).
	RemoteAddr() string
}

// Transport creates and accepts connections.
type Transport interface {
	// Listen binds addr and invokes accept for every inbound
	// connection. The returned closer stops listening.
	Listen(addr string, accept func(Conn)) (io.Closer, error)
	// Dial connects to addr with no deadline (DialContext with a
	// background context).
	Dial(addr string) (Conn, error)
	// DialContext connects to addr, honoring ctx cancellation and
	// deadline for the connection attempt itself.
	DialContext(ctx context.Context, addr string) (Conn, error)
}

// queue is an unbounded FIFO of messages with blocking pop, backed by a
// ring buffer so drained slots are released and a burst's backing array
// shrinks back once it drains (the old slice-shift queue pinned its
// high-water mark for the life of the link).
//
// Its occupancy is mirrored into the process-wide queue-depth gauge
// through the `gauged` count: the queue's exact live contribution to the
// gauge, mutated only under mu. Every decrement is bounded by `gauged`,
// so the close-time bulk removal and a concurrent drain can never
// double-decrement — once close zeroes the contribution, later pops see
// gauged == 0 and leave the gauge alone (the remaining items may still
// drain, but they no longer count as queued).
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  ringq.Ring[message.Message]
	closed bool
	gauged int // this queue's live contribution to tQueueDepth
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) push(m message.Message) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	q.items.Push(m)
	q.gauged++
	tQueueDepth.Inc()
	q.cond.Signal()
	return nil
}

// pop blocks until an item is available or the queue closes (nil, false).
func (q *queue) pop() (message.Message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.items.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	m, ok := q.items.Pop()
	if !ok {
		return nil, false
	}
	if q.gauged > 0 {
		q.gauged--
		tQueueDepth.Dec()
	}
	return m, true
}

// popAll blocks until at least one item is queued or the queue closes,
// then drains everything currently queued into dst (reusing its capacity)
// in one shot. It returns (dst, false) only when the queue is closed and
// empty; a closed queue with residue still drains, so no accepted message
// is silently dropped by the writer.
func (q *queue) popAll(dst []message.Message) ([]message.Message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.items.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.items.Len() == 0 {
		return dst, false
	}
	before := len(dst)
	dst = q.items.PopAll(dst)
	if n := len(dst) - before; q.gauged > 0 {
		dec := min(n, q.gauged)
		q.gauged -= dec
		tQueueDepth.Add(int64(-dec))
	}
	return dst, true
}

func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	if q.gauged > 0 {
		tQueueDepth.Add(int64(-q.gauged))
		q.gauged = 0
	}
	q.cond.Broadcast()
}

// closeHook manages the one-shot OnClose callback shared by both conn
// implementations. The first fire wins: its reason is the one reported.
type closeHook struct {
	mu     sync.Mutex
	fn     func(error)
	done   bool
	reason error
}

func (c *closeHook) set(fn func(error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fn = fn
}

func (c *closeHook) fire(reason error) {
	c.mu.Lock()
	fn := c.fn
	fired := c.done
	c.done = true
	if !fired {
		c.reason = reason
	}
	c.mu.Unlock()
	if !fired && fn != nil {
		fn(reason)
	}
}

// --- In-process transport ---

// InprocNetwork is a registry of in-process listeners. A single
// InprocNetwork models one connected overlay; distinct networks are
// isolated.
type InprocNetwork struct {
	mu        sync.Mutex
	listeners map[string]func(Conn)
	latency   time.Duration
}

// NewInprocNetwork returns an empty in-process network. latency, if
// positive, is added to every message delivery (one way), modelling a
// network hop: a message is handed to the receiver latency after it was
// sent, however many others are in flight on the link (propagation delay,
// not a rate limit).
func NewInprocNetwork(latency time.Duration) *InprocNetwork {
	return &InprocNetwork{
		listeners: make(map[string]func(Conn)),
		latency:   latency,
	}
}

var _ Transport = (*InprocNetwork)(nil)

// Listen implements Transport.
func (n *InprocNetwork) Listen(addr string, accept func(Conn)) (io.Closer, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[addr]; exists {
		return nil, fmt.Errorf("overlay: inproc address %q already bound", addr)
	}
	n.listeners[addr] = accept
	return closerFunc(func() error {
		n.mu.Lock()
		defer n.mu.Unlock()
		delete(n.listeners, addr)
		return nil
	}), nil
}

type closerFunc func() error

func (f closerFunc) Close() error { return f() }

// DialContext implements Transport. The in-process dial completes
// immediately, so the context only gates an attempt that is already
// cancelled.
func (n *InprocNetwork) DialContext(ctx context.Context, addr string) (Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("overlay: inproc dial %q: %w", addr, err)
	}
	return n.Dial(addr)
}

// Dial implements Transport.
func (n *InprocNetwork) Dial(addr string) (Conn, error) {
	n.mu.Lock()
	accept := n.listeners[addr]
	latency := n.latency
	n.mu.Unlock()
	if accept == nil {
		return nil, fmt.Errorf("overlay: no inproc listener at %q", addr)
	}
	ab, ba := newQueue(), newQueue()
	client := &inprocConn{out: ab, in: ba, latency: latency, addr: addr}
	server := &inprocConn{out: ba, in: ab, latency: latency, addr: "client->" + addr}
	client.peer, server.peer = server, client
	accept(server)
	return client, nil
}

// inprocConn is one side of an in-process link.
type inprocConn struct {
	out     *queue
	in      *queue
	peer    *inprocConn
	latency time.Duration
	addr    string
	hook    closeHook

	startOnce sync.Once
	closeOnce sync.Once
	done      chan struct{}
}

var _ Conn = (*inprocConn)(nil)

// delayed carries a message over a link with latency, with the instant it
// becomes deliverable.
type delayed struct {
	message.Message
	due time.Time
}

func (c *inprocConn) Send(m message.Message) error {
	if c.latency > 0 {
		m = &delayed{Message: m, due: time.Now().Add(c.latency)}
	}
	if err := c.out.push(m); err != nil {
		tSendErrors.Inc()
		return err
	}
	tMsgsSent.Inc()
	return nil
}

func (c *inprocConn) Start(h Handler) {
	c.startOnce.Do(func() {
		c.done = make(chan struct{})
		go func() {
			defer close(c.done)
			for {
				m, ok := c.in.pop()
				if !ok {
					c.hook.fire(ErrPeerClosed)
					return
				}
				if d, ok := m.(*delayed); ok {
					time.Sleep(time.Until(d.due))
					m = d.Message
				}
				tMsgsRecv.Inc()
				h(m)
			}
		}()
	})
}

func (c *inprocConn) Close() error {
	c.closeOnce.Do(func() {
		c.out.close()
		c.in.close()
		c.hook.fire(ErrLocalClosed)
	})
	if c.done != nil {
		<-c.done
	}
	return nil
}

func (c *inprocConn) OnClose(fn func(error)) { c.hook.set(fn) }

func (c *inprocConn) RemoteAddr() string { return c.addr }

// --- TCP transport ---

// TCPTransport frames the message codec over TCP sockets.
type TCPTransport struct{}

var _ Transport = TCPTransport{}

// Listen implements Transport.
func (TCPTransport) Listen(addr string, accept func(Conn)) (io.Closer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("overlay listen: %w", err)
	}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			accept(newTCPConn(nc))
		}
	}()
	return ln, nil
}

// Dial implements Transport (no deadline; prefer DialContext with a
// timeout for anything that must not hang on an unresponsive network).
func (t TCPTransport) Dial(addr string) (Conn, error) {
	return t.DialContext(context.Background(), addr)
}

// DialContext implements Transport: the connection attempt aborts when ctx
// is cancelled or its deadline passes (net.Dialer.DialContext semantics),
// instead of blocking for the kernel's connect timeout.
func (TCPTransport) DialContext(ctx context.Context, addr string) (Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("overlay dial: %w", err)
	}
	return newTCPConn(nc), nil
}

// ListenAny binds an ephemeral local TCP port and reports the bound
// address; the experiment harness uses it to build multi-process-like
// topologies on loopback.
func ListenAny(accept func(Conn)) (io.Closer, string, error) {
	ln, err := TCPTransport{}.Listen("127.0.0.1:0", accept)
	if err != nil {
		return nil, "", err
	}
	return ln, ln.(net.Listener).Addr().String(), nil
}

// tcpConn pairs an outbound queue + writer goroutine with a reader
// goroutine over one socket.
type tcpConn struct {
	nc   net.Conn
	out  *queue
	hook closeHook

	startOnce  sync.Once
	closeOnce  sync.Once
	closing    atomic.Bool // Close is flushing: writes run under the flush deadline
	writerDone chan struct{}
	readerDone chan struct{}
}

var _ Conn = (*tcpConn)(nil)

func newTCPConn(nc net.Conn) *tcpConn {
	c := &tcpConn{
		nc:         nc,
		out:        newQueue(),
		writerDone: make(chan struct{}),
	}
	go c.writer()
	return c
}

// writer coalesces the send queue onto the socket: each iteration drains
// every message queued at that moment, encodes them back-to-back as
// length-prefixed frames into one pooled buffer, and hands the whole batch
// to the kernel in a single Write. Under load the syscall and encode-buffer
// cost is amortized over the batch; an idle link still flushes each message
// immediately (popAll blocks until something is queued).
func (c *tcpConn) writer() {
	defer close(c.writerDone)
	bufp := message.GetEncodeBuffer()
	defer message.PutEncodeBuffer(bufp)
	var batch []message.Message
	for {
		var ok bool
		batch, ok = c.out.popAll(batch[:0])
		if !ok {
			return
		}
		buf := (*bufp)[:0]
		framed := 0
		for i, m := range batch {
			var err error
			if buf, err = message.AppendFramed(buf, m); err == nil {
				framed++
			}
			// The frame bytes are in buf; the message's pooled buffer
			// references (and pooled envelopes) can be recycled now. An
			// encode failure consumes ownership the same way — the sender
			// retained per enqueue, so the release must be unconditional.
			if rel, ok := m.(message.Releasable); ok {
				rel.ReleaseRefs()
			}
			batch[i] = nil // release the message once framed
		}
		*bufp = buf
		if framed == 0 {
			continue
		}
		tWriteBatch.Observe(int64(framed))
		if c.closing.Load() { // Close's residue gets a flush window of its own
			c.nc.SetWriteDeadline(time.Now().Add(closeFlushTimeout)) //nolint:errcheck,gosec // a failed write reports it
		}
		if _, err := c.nc.Write(buf); err != nil {
			c.teardown(fmt.Errorf("overlay write: %w", err))
			return
		}
		tTCPBytes.Add(int64(len(buf)))
	}
}

func (c *tcpConn) Send(m message.Message) error {
	if err := c.out.push(m); err != nil {
		tSendErrors.Inc()
		return err
	}
	tMsgsSent.Inc()
	return nil
}

func (c *tcpConn) Start(h Handler) {
	c.startOnce.Do(func() {
		c.readerDone = make(chan struct{})
		go func() {
			defer close(c.readerDone)
			hdr := make([]byte, 4)
			for {
				if _, err := io.ReadFull(c.nc, hdr); err != nil {
					c.teardown(readReason(err))
					return
				}
				n := binary.BigEndian.Uint32(hdr)
				if n > 64<<20 {
					c.teardown(fmt.Errorf("%w: %d-byte frame header", ErrProtocol, n))
					return
				}
				// Read the body into a pooled, ref-counted buffer and decode
				// once; knowledge frames alias the buffer (DecodeShared).
				// The reader owns the base reference: handlers that keep an
				// event past the h(m) call retain it, and the base is
				// dropped as soon as dispatch returns. With no retainers the
				// buffer is back in the pool before the next frame is read.
				ref := message.AcquireRef(int(n))
				if _, err := io.ReadFull(c.nc, ref.Bytes()); err != nil {
					ref.Release()
					c.teardown(readReason(err))
					return
				}
				m, err := message.DecodeShared(ref)
				if err != nil {
					ref.Release()
					continue // skip unknown/corrupt frames
				}
				tMsgsRecv.Inc()
				h(m)
				ref.Release()
			}
		}()
	})
}

// readReason maps a reader error onto a close reason: a clean EOF is the
// peer closing; anything else is a transport failure (which includes the
// ECONNRESET of a crashed peer).
func readReason(err error) error {
	if errors.Is(err, io.EOF) {
		return ErrPeerClosed
	}
	return fmt.Errorf("overlay read: %w", err)
}

// teardown closes the socket and queue from a goroutine that noticed
// failure, recording why.
func (c *tcpConn) teardown(reason error) {
	c.closeOnce.Do(func() {
		c.out.close()
		c.nc.Close() //nolint:errcheck,gosec // teardown path
		c.hook.fire(reason)
	})
}

// closeFlushTimeout is the flush deadline: during Close, each write gets
// this long to reach a peer that may have stopped reading.
const closeFlushTimeout = 100 * time.Millisecond

// Close refuses further sends, lets the writer drain the closed queue's
// residue (popAll hands it out before reporting closed), and only then
// closes the socket.
func (c *tcpConn) Close() error {
	c.closing.Store(true)
	c.out.close()
	c.nc.SetWriteDeadline(time.Now().Add(closeFlushTimeout)) //nolint:errcheck,gosec // bounds a write already blocked on the peer
	<-c.writerDone
	c.teardown(ErrLocalClosed)
	if c.readerDone != nil {
		<-c.readerDone
	}
	return nil
}

func (c *tcpConn) OnClose(fn func(error)) { c.hook.set(fn) }

func (c *tcpConn) RemoteAddr() string { return c.nc.RemoteAddr().String() }
