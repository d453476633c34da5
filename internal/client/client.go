// Package client implements the application-facing libraries: publishers
// and durable subscribers (the subscriber model of section 2).
//
// A durable subscriber owns its checkpoint token (CT): the client library
// updates it as messages are consumed, acknowledges it to the SHB
// periodically, optionally persists it to a file, and presents it on
// reconnection as the resumption point. Keeping the CT at the subscriber —
// rather than inside the messaging system — is the paper's recommended
// model; the jms package provides the server-side-CT alternative.
//
// Both clients can ride a supervised link (AutoReconnect): the connection
// is redialed with capped exponential backoff after involuntary loss, and
// a reconnecting subscriber re-subscribes from its checkpoint token, so
// the SHB's catchup stream resumes exactly-once delivery across the gap.
package client

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/message"
	"repro/internal/overlay"
	"repro/internal/vtime"
)

// ErrClosed is returned by operations on closed clients.
var ErrClosed = errors.New("client: closed")

// ErrLinkDown is returned by operations attempted while an auto-reconnect
// client's link is down; the supervisor is redialing and the operation can
// be retried.
var ErrLinkDown = errors.New("client: link down (reconnecting)")

// debugViolations prints delivery-contract violations for debugging.
var debugViolations = os.Getenv("CLIENT_DEBUG_VIOLATIONS") == "1"

// ConnState is a client link transition reported through OnConnChange.
type ConnState int

// Connection states reported to OnConnChange callbacks.
const (
	// ConnDown: the link was lost involuntarily (an auto-reconnect client
	// is now redialing in the background).
	ConnDown ConnState = iota
	// ConnUp: the link is established — for subscribers, subscribed and
	// delivering.
	ConnUp
)

// String renders the state for logs.
func (c ConnState) String() string {
	if c == ConnUp {
		return "up"
	}
	return "down"
}

// dialCtx dials addr under ctx, additionally bounding the attempt when
// timeout > 0 (whichever is tighter; zero keeps ctx alone).
func dialCtx(ctx context.Context, t overlay.Transport, addr string, timeout time.Duration) (overlay.Conn, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return t.DialContext(ctx, addr)
}

// PublisherOptions configures optional publisher behavior. The zero value
// reproduces the original client: unbounded dial, no reconnect.
type PublisherOptions struct {
	// DialTimeout bounds the connection attempt (and each supervised
	// reconnect). Zero means no timeout.
	DialTimeout time.Duration
	// AutoReconnect keeps the publisher alive through link failures:
	// publishes in flight when the link dies fail (their ack channels
	// close), but the handle reconnects with backoff and accepts new
	// publishes instead of becoming permanently closed.
	AutoReconnect bool
	// OnConnChange, when set, is called on every link transition.
	OnConnChange func(ConnState)
}

// PublisherOption is one functional option for NewPublisher.
type PublisherOption func(*PublisherOptions)

// WithOptions overlays a whole PublisherOptions struct (the bridge from
// the deprecated struct-options constructors).
func WithOptions(o PublisherOptions) PublisherOption {
	return func(dst *PublisherOptions) { *dst = o }
}

// WithDialTimeout bounds the connection attempt (and each supervised
// reconnect).
func WithDialTimeout(d time.Duration) PublisherOption {
	return func(o *PublisherOptions) { o.DialTimeout = d }
}

// WithAutoReconnect keeps the publisher alive through link failures,
// redialing with capped exponential backoff.
func WithAutoReconnect() PublisherOption {
	return func(o *PublisherOptions) { o.AutoReconnect = true }
}

// WithConnChange observes every link transition.
func WithConnChange(fn func(ConnState)) PublisherOption {
	return func(o *PublisherOptions) { o.OnConnChange = fn }
}

// Publisher publishes events to a publisher hosting broker.
type Publisher struct {
	opts PublisherOptions
	sup  *overlay.Supervisor // non-nil iff AutoReconnect

	mu      sync.Mutex
	conn    overlay.Conn
	next    uint64
	pending map[uint64]chan *message.PublishAck
	closed  bool
}

// NewPublisher connects a publisher to the broker at addr. The initial
// dial is bounded by ctx (in addition to WithDialTimeout, whichever is
// tighter); the first connection attempt is synchronous even with
// WithAutoReconnect, so a dead broker fails here rather than on the first
// publish. With auto-reconnect, attempts after the first are governed by
// the dial timeout alone.
func NewPublisher(ctx context.Context, t overlay.Transport, addr, name string, options ...PublisherOption) (*Publisher, error) {
	var opts PublisherOptions
	for _, apply := range options {
		apply(&opts)
	}
	return newPublisher(ctx, t, addr, name, opts)
}

// NewPublisherOpts connects with struct options and no context.
//
// Deprecated: use NewPublisher with WithOptions (or the individual
// With... options).
func NewPublisherOpts(t overlay.Transport, addr, name string, opts PublisherOptions) (*Publisher, error) {
	return newPublisher(context.Background(), t, addr, name, opts)
}

// NewPublisherContext is NewPublisherOpts with the initial dial bounded
// by ctx.
//
// Deprecated: use NewPublisher with WithOptions.
func NewPublisherContext(ctx context.Context, t overlay.Transport, addr, name string, opts PublisherOptions) (*Publisher, error) {
	return newPublisher(ctx, t, addr, name, opts)
}

func newPublisher(ctx context.Context, t overlay.Transport, addr, name string, opts PublisherOptions) (*Publisher, error) {
	p := &Publisher{opts: opts, pending: make(map[uint64]chan *message.PublishAck)}
	if opts.AutoReconnect {
		sup := overlay.NewSupervisor(overlay.SupervisorConfig{
			Name:        "publisher/" + name,
			Transport:   t,
			Addr:        addr,
			DialTimeout: opts.DialTimeout,
			OnUp: func(conn overlay.Conn) error {
				if err := conn.Send(&message.Hello{Role: message.RolePublisher, Name: name}); err != nil {
					return err
				}
				conn.Start(p.onMessage)
				p.mu.Lock()
				p.conn = conn
				p.mu.Unlock()
				p.notify(ConnUp)
				return nil
			},
			OnDown: func(error) {
				p.dropLink(false)
				p.notify(ConnDown)
			},
		})
		if err := sup.StartContext(ctx); err != nil {
			return nil, fmt.Errorf("publisher dial: %w", err)
		}
		p.sup = sup
		return p, nil
	}
	conn, err := dialCtx(ctx, t, addr, opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("publisher dial: %w", err)
	}
	if err := conn.Send(&message.Hello{Role: message.RolePublisher, Name: name}); err != nil {
		return nil, err
	}
	p.conn = conn
	conn.OnClose(func(error) {
		p.dropLink(true)
		p.notify(ConnDown)
	})
	conn.Start(p.onMessage)
	return p, nil
}

func (p *Publisher) notify(st ConnState) {
	if p.opts.OnConnChange != nil {
		p.opts.OnConnChange(st)
	}
}

func (p *Publisher) onMessage(m message.Message) {
	ack, ok := m.(*message.PublishAck)
	if !ok {
		return
	}
	p.mu.Lock()
	ch := p.pending[ack.Token]
	delete(p.pending, ack.Token)
	p.mu.Unlock()
	if ch != nil {
		ch <- ack
	}
}

// dropLink handles a lost connection: publishes in flight fail (their ack
// channels close — the PHB may or may not have logged them, exactly the
// ambiguity a real crash leaves). terminal additionally closes the handle
// (the non-reconnecting client's old behavior).
func (p *Publisher) dropLink(terminal bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conn = nil
	if terminal {
		p.closed = true
	}
	for tok, ch := range p.pending {
		close(ch)
		delete(p.pending, tok)
	}
}

// Publish sends one event and waits until the PHB has logged it (the
// paper's persistent publish). It returns the assigned pubend and
// timestamp.
func (p *Publisher) Publish(attrs message.Event) (vtime.PubendID, vtime.Timestamp, error) {
	ch, err := p.publishAsync(attrs, 0)
	if err != nil {
		return 0, 0, err
	}
	ack, ok := <-ch
	if !ok {
		return 0, 0, ErrClosed
	}
	if ack.Timestamp == 0 {
		return 0, 0, errors.New("client: broker rejected publish (not a PHB?)")
	}
	return ack.Pubend, ack.Timestamp, nil
}

// PublishTo is Publish with an explicit pubend.
func (p *Publisher) PublishTo(pub vtime.PubendID, attrs message.Event) (vtime.Timestamp, error) {
	ch, err := p.publishAsync(attrs, pub)
	if err != nil {
		return 0, err
	}
	ack, ok := <-ch
	if !ok {
		return 0, ErrClosed
	}
	if ack.Timestamp == 0 {
		return 0, errors.New("client: broker rejected publish")
	}
	return ack.Timestamp, nil
}

// PublishAsync sends one event without waiting; the returned channel
// yields the ack (or closes on connection loss). Throughput harnesses use
// it with a window of outstanding publishes.
func (p *Publisher) PublishAsync(attrs message.Event, pub vtime.PubendID) (<-chan *message.PublishAck, error) {
	return p.publishAsync(attrs, pub)
}

func (p *Publisher) publishAsync(attrs message.Event, pub vtime.PubendID) (chan *message.PublishAck, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	conn := p.conn
	if conn == nil {
		p.mu.Unlock()
		return nil, ErrLinkDown
	}
	p.next++
	tok := p.next
	ch := make(chan *message.PublishAck, 1)
	p.pending[tok] = ch
	p.mu.Unlock()

	err := conn.Send(&message.Publish{
		PubendHint: pub,
		Token:      tok,
		Attrs:      attrs.Attrs,
		Payload:    attrs.Payload,
	})
	if err != nil {
		p.mu.Lock()
		delete(p.pending, tok)
		p.mu.Unlock()
		return nil, err
	}
	return ch, nil
}

// Close disconnects the publisher (and stops its supervisor).
func (p *Publisher) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conn := p.conn
	p.mu.Unlock()
	if p.sup != nil {
		p.sup.Stop()
		return nil
	}
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// SubscriberOptions configures a durable subscriber.
type SubscriberOptions struct {
	// ID is the durable subscription's system-wide identity (required).
	ID vtime.SubscriberID
	// Filter is the subscription in filter.Parse syntax (required).
	Filter string
	// CTPath, when set, persists the checkpoint token to this file so
	// the subscriber survives its own crashes without gaps.
	CTPath string
	// AckInterval is the checkpoint acknowledgment cadence; zero means
	// 250ms (the paper's released(s) update period).
	AckInterval time.Duration
	// Credits enables flow control: the SHB may have at most this many
	// undelivered catchup events outstanding. Zero disables flow
	// control.
	Credits uint32
	// Buffer is the delivery channel capacity; zero means 8192.
	Buffer int
	// DialTimeout bounds Connect's dial (and each supervised reconnect).
	// Zero means no timeout.
	DialTimeout time.Duration
	// AutoReconnect keeps the subscription attached through link
	// failures: Connect installs a supervisor that redials with capped
	// exponential backoff and re-subscribes from the current checkpoint
	// token, so deliveries resume exactly-once across the outage.
	AutoReconnect bool
	// OnConnChange, when set, is called on every link transition: ConnUp
	// after each successful (re)subscribe, ConnDown on involuntary loss.
	OnConnChange func(ConnState)
}

// Subscriber is a durable subscriber client. Create one with
// NewSubscriber, then Connect/Disconnect it any number of times; the
// checkpoint token carries across connections (and across process
// restarts when CTPath is set).
type Subscriber struct {
	opts SubscriberOptions

	mu        sync.Mutex
	ct        *vtime.CheckpointToken
	everConn  bool
	conn      overlay.Conn
	connected bool
	sup       *overlay.Supervisor // non-nil while AutoReconnect-connected
	consumed  uint32              // deliveries since last credit grant

	deliveries chan message.Delivery
	ackStop    chan struct{}
	ackDone    chan struct{}

	// Stats.
	events    int64
	silences  int64
	gaps      int64
	regressed int64 // protocol violations observed (must stay 0)
}

// NewSubscriber creates a subscriber handle (not yet connected), loading a
// persisted checkpoint token if one exists.
func NewSubscriber(opts SubscriberOptions) (*Subscriber, error) {
	if opts.Filter == "" {
		return nil, errors.New("client: Filter is required")
	}
	if opts.AckInterval == 0 {
		opts.AckInterval = 250 * time.Millisecond
	}
	if opts.Buffer == 0 {
		opts.Buffer = 8192
	}
	s := &Subscriber{
		opts:       opts,
		ct:         vtime.NewCheckpointToken(),
		deliveries: make(chan message.Delivery, opts.Buffer),
	}
	if opts.CTPath != "" {
		if buf, err := os.ReadFile(opts.CTPath); err == nil {
			ct, _, err := vtime.DecodeCheckpointToken(buf)
			if err != nil {
				return nil, fmt.Errorf("client: corrupt checkpoint file: %w", err)
			}
			s.ct = ct
			s.everConn = true
		}
	}
	return s, nil
}

// Connect attaches the subscriber to the SHB at addr, resuming from its
// checkpoint token when it has one. The initial dial is bounded by ctx
// (in addition to DialTimeout, whichever is tighter). With AutoReconnect
// the first attempt is synchronous (a dead broker fails here); after that
// the link is supervised — reconnects governed by DialTimeout alone — and
// re-subscribes itself until Disconnect.
func (s *Subscriber) Connect(ctx context.Context, t overlay.Transport, addr string) error {
	return s.connect(ctx, t, addr)
}

// ConnectContext is Connect.
//
// Deprecated: Connect is context-first now; call it directly.
func (s *Subscriber) ConnectContext(ctx context.Context, t overlay.Transport, addr string) error {
	return s.connect(ctx, t, addr)
}

func (s *Subscriber) connect(ctx context.Context, t overlay.Transport, addr string) error {
	if s.opts.AutoReconnect {
		s.mu.Lock()
		if s.sup != nil {
			s.mu.Unlock()
			return errors.New("client: already connected")
		}
		s.mu.Unlock()
		sup := overlay.NewSupervisor(overlay.SupervisorConfig{
			Name:        fmt.Sprintf("subscriber/%d", s.opts.ID),
			Transport:   t,
			Addr:        addr,
			DialTimeout: s.opts.DialTimeout,
			OnUp:        func(conn overlay.Conn) error { return s.attach(conn, true) },
			OnDown:      func(error) { s.handleDown() },
		})
		if err := sup.StartContext(ctx); err != nil {
			return err
		}
		s.mu.Lock()
		s.sup = sup
		s.mu.Unlock()
		return nil
	}
	conn, err := dialCtx(ctx, t, addr, s.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("subscriber dial: %w", err)
	}
	if err := s.attach(conn, false); err != nil {
		conn.Close() //nolint:errcheck,gosec // failed handshake
		return err
	}
	return nil
}

// attach performs the subscribe handshake on a fresh connection and, on
// success, makes it the current link. When managed, the supervisor owns
// the close hook and the connection's lifecycle; otherwise attach wires
// OnClose itself and the caller closes the conn on error.
func (s *Subscriber) attach(conn overlay.Conn, managed bool) error {
	if err := conn.Send(&message.Hello{Role: message.RoleSubscriber, Name: s.opts.Filter}); err != nil {
		return err
	}
	// Adopt the connection before any traffic flows, and snapshot the
	// checkpoint token in the same critical section: consume() only
	// accepts deliveries from the current connection, so from here on
	// leftovers of a dead link cannot advance the token past the
	// resumption point we present (they would make the server's catchup
	// look like duplicate delivery).
	s.mu.Lock()
	if s.connected {
		s.mu.Unlock()
		return errors.New("client: already connected")
	}
	s.conn = conn
	resume := s.everConn
	ct := s.ct.Clone()
	s.mu.Unlock()
	ackCh := make(chan *message.SubscribeAck, 1)
	if !managed {
		conn.OnClose(func(error) { s.onDisconnected(conn) })
	}
	conn.Start(func(m message.Message) { s.onMessage(conn, m, ackCh) })
	if err := conn.Send(&message.Subscribe{
		Subscriber: s.opts.ID,
		Filter:     s.opts.Filter,
		CT:         ct,
		Resume:     resume,
		Credits:    s.opts.Credits,
	}); err != nil {
		s.disown(conn)
		return err
	}
	select {
	case ack := <-ackCh:
		if ack.Err != "" {
			s.disown(conn)
			return fmt.Errorf("client: subscribe rejected: %s", ack.Err)
		}
		s.mu.Lock()
		if !resume {
			// Live deliveries may precede the ack (the SHB holds it until
			// the publish path knows the filter): keep what they advanced.
			ct := ack.CT.Clone()
			ct.Merge(s.ct)
			s.ct = ct
		}
		s.everConn = true
		s.conn = conn
		s.connected = true
		s.ackStop = make(chan struct{})
		s.ackDone = make(chan struct{})
		go s.ackLoop(conn, s.ackStop, s.ackDone)
		s.mu.Unlock()
		s.notify(ConnUp)
		return nil
	case <-time.After(10 * time.Second):
		s.disown(conn)
		return errors.New("client: subscribe timed out")
	}
}

func (s *Subscriber) notify(st ConnState) {
	if s.opts.OnConnChange != nil {
		s.opts.OnConnChange(st)
	}
}

// disown clears the adopted connection after a failed handshake.
func (s *Subscriber) disown(conn overlay.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == conn {
		s.conn = nil
	}
}

// onMessage handles SHB traffic on the subscriber link.
func (s *Subscriber) onMessage(conn overlay.Conn, m message.Message, ackCh chan *message.SubscribeAck) {
	switch v := m.(type) {
	case *message.SubscribeAck:
		select {
		case ackCh <- v:
		default:
		}
	case *message.Deliver:
		for _, d := range v.Deliveries {
			s.consume(conn, d)
		}
	}
}

// consume applies one delivery: validates the ordering contract, advances
// the checkpoint token, grants credits, and hands the delivery to the
// application. Deliveries from a connection that is no longer current are
// dropped — they are leftovers of a dead link whose content the new
// connection's catchup re-covers.
func (s *Subscriber) consume(conn overlay.Conn, d message.Delivery) {
	s.mu.Lock()
	if s.conn != conn {
		s.mu.Unlock()
		return
	}
	prev := s.ct.Get(d.Pubend)
	violation := false
	switch d.Kind {
	case message.DeliverEvent:
		if d.Timestamp <= prev {
			violation = true
		} else {
			s.events++
			s.ct.Set(d.Pubend, d.Timestamp)
		}
	case message.DeliverSilence:
		if d.Timestamp < prev {
			violation = true
		} else {
			s.silences++
			s.ct.Set(d.Pubend, d.Timestamp)
		}
	case message.DeliverGap:
		s.gaps++
		s.ct.Set(d.Pubend, d.Timestamp)
	}
	if violation {
		s.regressed++
		if debugViolations {
			fmt.Printf("VIOLATION sub=%v kind=%v pub=%v ts=%v prev=%v\n",
				s.opts.ID, d.Kind, d.Pubend, d.Timestamp, prev)
		}
		s.mu.Unlock()
		return
	}
	grantCredits := uint32(0)
	if s.opts.Credits > 0 && d.Kind == message.DeliverEvent {
		s.consumed++
		if s.consumed >= s.opts.Credits/2+1 {
			grantCredits = s.consumed
			s.consumed = 0
		}
	}
	s.mu.Unlock()
	if grantCredits > 0 {
		//nolint:errcheck,gosec // link death handled via OnClose
		conn.Send(&message.Credit{Subscriber: s.opts.ID, Credits: grantCredits})
	}
	if d.Kind == message.DeliverEvent || d.Kind == message.DeliverGap {
		s.deliveries <- d
	}
}

// ackLoop periodically acknowledges the checkpoint token.
func (s *Subscriber) ackLoop(conn overlay.Conn, stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(s.opts.AckInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.Ack() //nolint:errcheck,gosec // transient; retried next tick
		case <-stop:
			return
		}
		_ = conn
	}
}

// Ack immediately acknowledges the current checkpoint token to the SHB and
// persists it when CTPath is configured.
func (s *Subscriber) Ack() error {
	s.mu.Lock()
	conn := s.conn
	connected := s.connected
	ct := s.ct.Clone()
	s.mu.Unlock()
	if s.opts.CTPath != "" {
		if err := atomicWrite(s.opts.CTPath, ct.Encode(nil)); err != nil {
			return err
		}
	}
	if !connected {
		return nil
	}
	return conn.Send(&message.Ack{Subscriber: s.opts.ID, CT: ct})
}

func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Deliveries is the application's consumption channel: event and gap
// deliveries in per-pubend timestamp order.
func (s *Subscriber) Deliveries() <-chan message.Delivery { return s.deliveries }

// ID reports the durable subscription's identity.
func (s *Subscriber) ID() vtime.SubscriberID { return s.opts.ID }

// CT returns a snapshot of the current checkpoint token.
func (s *Subscriber) CT() *vtime.CheckpointToken {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ct.Clone()
}

// Connected reports whether the subscriber currently has a live,
// subscribed link.
func (s *Subscriber) Connected() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.connected
}

// Stats reports consumption counters: events, silences, gaps, and observed
// ordering violations (always zero when the system is correct).
func (s *Subscriber) Stats() (events, silences, gaps, violations int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events, s.silences, s.gaps, s.regressed
}

// Disconnect detaches from the SHB (orderly), acknowledging first. The
// subscription remains durable; Connect resumes it. An auto-reconnect
// subscriber's supervisor stops redialing.
func (s *Subscriber) Disconnect() error {
	s.Ack() //nolint:errcheck,gosec // best effort before detach
	s.mu.Lock()
	sup := s.sup
	s.sup = nil
	if !s.connected {
		s.mu.Unlock()
		if sup != nil {
			sup.Stop()
			s.detach()
		}
		return nil
	}
	conn := s.conn
	s.connected = false
	s.conn = nil
	stop, done := s.ackStop, s.ackDone
	s.mu.Unlock()
	close(stop)
	<-done
	conn.Send(&message.Detach{Subscriber: s.opts.ID}) //nolint:errcheck,gosec // about to close
	if sup != nil {
		sup.Stop() // closes the conn
		s.detach() // a racing reconnect may have re-attached; clean it up
		return nil
	}
	return conn.Close()
}

// Unsubscribe permanently ends the durable subscription at the SHB: its
// unconsumed backlog is released and any persisted checkpoint file is
// removed. The subscriber must be connected.
func (s *Subscriber) Unsubscribe() error {
	s.mu.Lock()
	if !s.connected {
		s.mu.Unlock()
		return errors.New("client: not connected")
	}
	sup := s.sup
	s.sup = nil
	conn := s.conn
	s.connected = false
	s.conn = nil
	stop, done := s.ackStop, s.ackDone
	s.mu.Unlock()
	close(stop)
	<-done
	if err := conn.Send(&message.Unsubscribe{Subscriber: s.opts.ID}); err != nil {
		if sup != nil {
			sup.Stop()
		} else {
			conn.Close() //nolint:errcheck,gosec // already failing
		}
		return err
	}
	if s.opts.CTPath != "" {
		os.Remove(s.opts.CTPath) //nolint:errcheck,gosec // best-effort cleanup
	}
	s.mu.Lock()
	s.everConn = false
	s.ct = vtime.NewCheckpointToken()
	s.mu.Unlock()
	if sup != nil {
		sup.Stop()
		s.detach()
		return nil
	}
	return conn.Close()
}

// detach tears down the connected state (ack loop, current conn),
// reporting whether it transitioned from connected. Safe when already
// detached.
func (s *Subscriber) detach() bool {
	s.mu.Lock()
	if !s.connected {
		s.mu.Unlock()
		return false
	}
	s.connected = false
	s.conn = nil
	stop, done := s.ackStop, s.ackDone
	s.mu.Unlock()
	close(stop)
	<-done
	return true
}

// handleDown is the supervisor's OnDown: the managed link died.
func (s *Subscriber) handleDown() {
	if s.detach() {
		s.notify(ConnDown)
	}
}

// onDisconnected handles an involuntary connection loss on an unmanaged
// link.
func (s *Subscriber) onDisconnected(conn overlay.Conn) {
	s.mu.Lock()
	stale := s.conn != conn
	s.mu.Unlock()
	if stale {
		return
	}
	if s.detach() {
		s.notify(ConnDown)
	}
}
