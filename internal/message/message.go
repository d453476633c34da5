// Package message defines the events and control messages exchanged inside
// the broker overlay and between brokers and clients, together with a
// compact binary wire codec.
//
// Terminology follows the paper: "events" are messages published by
// applications; everything else is a control message internal to the
// overlay (knowledge, nacks, release vectors) or the client protocol
// (subscribe, ack, deliver).
package message

import (
	"fmt"
	"sync"

	"repro/internal/filter"
	"repro/internal/tick"
	"repro/internal/vtime"
)

// Event is an application-published message, stamped by its pubend.
//
// When the event was decoded zero-copy from a pooled wire frame
// (DecodeShared), ref points at the frame's buffer and Payload aliases
// it. Consumers that store the event past the handler call must Retain
// it and Release when done; see the ownership contract on Ref. Events
// built any other way (publish path, Clone, tests) have a nil ref and
// Retain/Release are no-ops.
type Event struct {
	Pubend    vtime.PubendID
	Timestamp vtime.Timestamp
	Attrs     filter.Attributes
	Payload   []byte

	ref *Ref
}

// Retain pins the event's backing frame buffer (no-op for events that
// own their payload). Call before storing the event past the scope in
// which it was received.
func (e *Event) Retain() {
	if e != nil {
		e.ref.Retain()
	}
}

// Release unpins the event's backing frame buffer (no-op for events
// that own their payload). The Payload must not be touched afterwards.
func (e *Event) Release() {
	if e != nil {
		e.ref.Release()
	}
}

// Clone returns a deep copy of the event. The copy owns its payload —
// this is the escape hatch for callers that must outlive the wire frame
// without participating in retain/release.
func (e *Event) Clone() *Event {
	cp := &Event{
		Pubend:    e.Pubend,
		Timestamp: e.Timestamp,
		Attrs:     e.Attrs.Clone(),
		Payload:   make([]byte, len(e.Payload)),
	}
	copy(cp.Payload, e.Payload)
	return cp
}

// String implements fmt.Stringer.
func (e *Event) String() string {
	return fmt.Sprintf("event{%s@%d, %d attrs, %dB}", e.Pubend, e.Timestamp, len(e.Attrs), len(e.Payload))
}

// Type discriminates wire messages.
type Type uint8

// Wire message types.
const (
	TypeKnowledge    Type = iota + 1 // broker→broker: tick ranges + events
	TypeNack                         // broker→broker: missing tick spans
	TypeRelease                      // broker→broker: aggregated release vector
	TypePublish                      // client→PHB
	TypePublishAck                   // PHB→client
	TypeSubscribe                    // client→SHB
	TypeSubscribeAck                 // SHB→client
	TypeDeliver                      // SHB→client: event/silence/gap batch
	TypeAck                          // client→SHB: checkpoint token
	TypeCredit                       // client→SHB: flow-control credits
	TypeDetach                       // client→SHB: orderly disconnect
	TypeHello                        // link role handshake
	TypeSubUpdate                    // subscription propagation toward the PHBs
	TypeUnsubscribe                  // client→SHB: permanently end a durable subscription
	TypeLeave                        // broker→broker: deliberate departure from the parent
	TypeSubSync                      // broker↔broker: subscription-announcement barrier and its echo
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeKnowledge:
		return "knowledge"
	case TypeNack:
		return "nack"
	case TypeRelease:
		return "release"
	case TypePublish:
		return "publish"
	case TypePublishAck:
		return "publish-ack"
	case TypeSubscribe:
		return "subscribe"
	case TypeSubscribeAck:
		return "subscribe-ack"
	case TypeDeliver:
		return "deliver"
	case TypeAck:
		return "ack"
	case TypeCredit:
		return "credit"
	case TypeDetach:
		return "detach"
	case TypeHello:
		return "hello"
	case TypeSubUpdate:
		return "sub-update"
	case TypeUnsubscribe:
		return "unsubscribe"
	case TypeLeave:
		return "leave"
	case TypeSubSync:
		return "sub-sync"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Message is the interface satisfied by every wire message.
type Message interface {
	// WireType reports the message's wire discriminator.
	WireType() Type
}

// Knowledge carries tick knowledge for one pubend downstream: S/L ranges
// plus the events for D ticks. The receiver accumulates the ranges into its
// knowledge stream and caches the events.
type Knowledge struct {
	Pubend vtime.PubendID
	Ranges []tick.Range // S and L ranges (D ticks implied by Events)
	Events []*Event     // D ticks, in timestamp order
}

// WireType implements Message.
func (*Knowledge) WireType() Type { return TypeKnowledge }

// RetainRefs pins every event's backing frame buffer. A sender that
// enqueues the knowledge onto a wire link calls this first; the link's
// writer balances it with ReleaseRefs once the frame is serialized.
func (k *Knowledge) RetainRefs() {
	for _, ev := range k.Events {
		ev.Retain()
	}
}

// ReleaseRefs implements Releasable: unpins every event's backing frame
// buffer.
func (k *Knowledge) ReleaseRefs() {
	for _, ev := range k.Events {
		ev.Release()
	}
}

// Nack requests knowledge for the given tick spans of one pubend. Nacks
// flow upstream toward the pubend.
type Nack struct {
	Pubend vtime.PubendID
	Spans  []tick.Span
}

// WireType implements Message.
func (*Nack) WireType() Type { return TypeNack }

// Release carries the release protocol's aggregated minima upstream: the
// minimum released timestamp and minimum latestDelivered across every SHB
// in the sender's subtree (paper, section 3).
type Release struct {
	Pubend          vtime.PubendID
	Released        vtime.Timestamp
	LatestDelivered vtime.Timestamp
}

// WireType implements Message.
func (*Release) WireType() Type { return TypeRelease }

// Publish is a client's request to publish one event. The PHB assigns the
// pubend (by PubendHint when valid) and the timestamp.
type Publish struct {
	PubendHint vtime.PubendID // 0 means "broker chooses"
	Attrs      filter.Attributes
	Payload    []byte
	Token      uint64 // echoed in PublishAck
}

// WireType implements Message.
func (*Publish) WireType() Type { return TypePublish }

// PublishAck confirms an event was logged at the PHB.
type PublishAck struct {
	Token     uint64
	Pubend    vtime.PubendID
	Timestamp vtime.Timestamp
}

// WireType implements Message.
func (*PublishAck) WireType() Type { return TypePublishAck }

// Subscribe attaches (or re-attaches) a durable subscriber to an SHB.
type Subscribe struct {
	Subscriber vtime.SubscriberID
	Filter     string // subscription source text (filter.Parse syntax)
	CT         *vtime.CheckpointToken
	Resume     bool   // false: first ever connect (CT ignored)
	Credits    uint32 // initial flow-control credits
}

// WireType implements Message.
func (*Subscribe) WireType() Type { return TypeSubscribe }

// SubscribeAck completes attachment and, for a first connect, tells the
// subscriber its starting checkpoint token.
type SubscribeAck struct {
	Subscriber vtime.SubscriberID
	CT         *vtime.CheckpointToken
	Err        string // non-empty on rejection
}

// WireType implements Message.
func (*SubscribeAck) WireType() Type { return TypeSubscribeAck }

// DeliverKind discriminates the per-pubend delivery messages of the paper's
// subscriber model (section 2).
type DeliverKind uint8

// Delivery kinds.
const (
	DeliverEvent   DeliverKind = iota + 1 // event matching the subscription at Timestamp
	DeliverSilence                        // no matching event in (prev, Timestamp]
	DeliverGap                            // information about (prev, Timestamp] was early-released
)

// String implements fmt.Stringer.
func (k DeliverKind) String() string {
	switch k {
	case DeliverEvent:
		return "event"
	case DeliverSilence:
		return "silence"
	case DeliverGap:
		return "gap"
	default:
		return fmt.Sprintf("DeliverKind(%d)", uint8(k))
	}
}

// Delivery is one message of the subscriber stream for one pubend.
type Delivery struct {
	Kind      DeliverKind
	Pubend    vtime.PubendID
	Timestamp vtime.Timestamp
	Event     *Event // nil unless Kind == DeliverEvent
}

// Deliver batches deliveries on the SHB→client FIFO link.
type Deliver struct {
	Subscriber vtime.SubscriberID
	Deliveries []Delivery

	// pooled marks envelopes from GetDeliver; ReleaseRefs recycles them.
	pooled bool
}

// WireType implements Message.
func (*Deliver) WireType() Type { return TypeDeliver }

// deliverPool recycles the per-delivery SHB→client envelopes. The fan-out
// path sends one Deliver per matched (subscriber, event) pair, so without
// pooling each delivery allocates an envelope plus its one-element slice.
var deliverPool = sync.Pool{
	New: func() any {
		return &Deliver{Deliveries: make([]Delivery, 0, 1), pooled: true}
	},
}

// GetDeliver returns a pooled single-delivery envelope carrying d for sub.
// The event's buffer is retained; the envelope and the reference are both
// given back when a wire writer calls ReleaseRefs after framing. Envelopes
// sent over an in-process transport are never recycled — the receiver owns
// them and the GC reclaims both envelope and buffer reference.
func GetDeliver(sub vtime.SubscriberID, d Delivery) *Deliver {
	m := deliverPool.Get().(*Deliver)
	m.Subscriber = sub
	m.Deliveries = append(m.Deliveries[:0], d)
	d.Event.Retain()
	return m
}

// ReleaseRefs implements Releasable: unpins every delivery's event buffer
// and, for pooled envelopes, recycles the envelope itself. The caller must
// not touch the message afterwards.
func (d *Deliver) ReleaseRefs() {
	for i := range d.Deliveries {
		d.Deliveries[i].Event.Release()
		d.Deliveries[i].Event = nil
	}
	if d.pooled && cap(d.Deliveries) <= 8 {
		d.Deliveries = d.Deliveries[:0]
		deliverPool.Put(d)
	}
}

// Ack acknowledges consumption: all messages with timestamps <= CT[p] for
// every pubend p are consumed and their storage may be released.
type Ack struct {
	Subscriber vtime.SubscriberID
	CT         *vtime.CheckpointToken
}

// WireType implements Message.
func (*Ack) WireType() Type { return TypeAck }

// Credit grants the SHB additional flow-control credits: the SHB may send
// that many more event deliveries to this subscriber.
type Credit struct {
	Subscriber vtime.SubscriberID
	Credits    uint32
}

// WireType implements Message.
func (*Credit) WireType() Type { return TypeCredit }

// Detach is an orderly disconnect of a durable subscriber. The
// subscription itself persists at the SHB.
type Detach struct {
	Subscriber vtime.SubscriberID
}

// WireType implements Message.
func (*Detach) WireType() Type { return TypeDetach }

// LinkRole identifies what the dialing end of a connection is.
type LinkRole uint8

// Link roles.
const (
	RoleBroker     LinkRole = iota + 1 // a downstream broker joining the tree
	RolePublisher                      // a publishing client
	RoleSubscriber                     // a durable subscriber client
	RoleProbe                          // a transient liveness/tree-position probe; never registered as a link
)

// String implements fmt.Stringer.
func (r LinkRole) String() string {
	switch r {
	case RoleBroker:
		return "broker"
	case RolePublisher:
		return "publisher"
	case RoleSubscriber:
		return "subscriber"
	case RoleProbe:
		return "probe"
	default:
		return fmt.Sprintf("LinkRole(%d)", uint8(r))
	}
}

// Hello is the first message on every connection, declaring the dialer's
// role. Brokers use it to classify the link.
//
// Between brokers, Hello doubles as the tree-position advertisement the
// repair policy relies on: a parent replies to a RoleBroker or RoleProbe
// Hello with an Info-carrying Hello stating the root it currently hangs
// from (Root), the epoch that root minted when it last became a root
// (Epoch), and its own depth below that root (Depth). The tuple lets an
// orphaned broker reject candidate parents inside its own orphaned
// subtree — a descendant always advertises the orphan itself as Root, or
// a strictly greater Depth under the same (Root, Epoch) — so automatic
// fail-over can never close a cycle (DESIGN §2.12).
type Hello struct {
	Role LinkRole
	Name string // diagnostic

	// Tree-position advertisement (broker→broker replies only).
	Info  bool   // whether Root/Epoch/Depth below are meaningful
	Root  string // name of the tree root the sender hangs from
	Epoch uint64 // root's incarnation counter (minted on becoming root)
	Depth uint32 // sender's hop distance below Root (root = 0)
}

// WireType implements Message.
func (*Hello) WireType() Type { return TypeHello }

// Unsubscribe permanently removes a durable subscription: its unconsumed
// backlog is released and the persistent storage it was pinning (pubend
// events, PFS records) becomes reclaimable. Contrast with Detach, which
// only disconnects.
type Unsubscribe struct {
	Subscriber vtime.SubscriberID
}

// WireType implements Message.
func (*Unsubscribe) WireType() Type { return TypeUnsubscribe }

// SubUpdate propagates a subscription toward the publisher hosting brokers
// so intermediate brokers can filter events per downstream link (convert
// D ticks that match nothing below the link into S).
type SubUpdate struct {
	Subscriber vtime.SubscriberID
	Filter     string
	Remove     bool
}

// WireType implements Message.
func (*SubUpdate) WireType() Type { return TypeSubUpdate }

// Leave announces a deliberate departure from the parent broker: the child
// is detaching or re-parenting and will not return on this link. The
// parent may purge the link's soft state (announced subscriptions, release
// floors) instead of retaining it for a reconnect — a crashed child never
// sends Leave, so its state is kept until a successor re-announces it.
// Re-parent ordering sends Leave only after the new parent link is up and
// resynced (announce-before-withdraw, see DESIGN §2.11).
type Leave struct {
	Name string // departing broker's name (diagnostic)
}

// WireType implements Message.
func (*Leave) WireType() Type { return TypeLeave }

// SubSync is the barrier behind subscription announcements. A broker sends
// it to its parent after the SubUpdates it wants confirmed; the parent
// forwards one of its own behind whatever those updates made it announce in
// turn, and the root echoes it. The echo travels back down the same links,
// so when a broker receives its token again every announcement it sent
// before the SubSync is installed in the link matchers of the whole publish
// path. An SHB holds a new subscription's SubscribeAck until then (events
// published after Connect returns are never filtered as unwanted), and a
// parent filters a fresh link only once its first SubSync says the child's
// subscriptions are all re-announced.
type SubSync struct {
	Token uint64 // chosen by the sender of the request; echoed unchanged
}

// WireType implements Message.
func (*SubSync) WireType() Type { return TypeSubSync }
