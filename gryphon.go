// Package repro is a from-scratch Go implementation of "Scalably
// Supporting Durable Subscriptions in a Publish/Subscribe System" (Bhola,
// Zhao, Auerbach — DSN 2003): a content-based publish/subscribe broker
// overlay providing exactly-once delivery to durable subscribers while
// logging each event only once system-wide, at the publisher hosting
// broker.
//
// The root package is the public facade. Constructors are context-first
// and options-last. A minimal deployment:
//
//	ctx := context.Background()
//	net := repro.NewInprocNetwork(0)
//	b, _ := repro.StartBroker(ctx, repro.BrokerConfig{
//		Name:       "node1",
//		DataDir:    "/tmp/node1",
//		Transport:  net,
//		ListenAddr: "node1",
//		HostedPubends: []repro.PubendConfig{{ID: 1}},
//		EnableSHB:  true,
//		AllPubends: []repro.PubendID{1},
//	})
//	defer b.Close()
//
//	pub, _ := repro.NewPublisher(ctx, net, "node1", "my-app")
//	sub, _ := repro.NewDurableSubscriber(repro.SubscriberOptions{
//		ID:     1,
//		Filter: `topic = "orders" and qty > 100`,
//	})
//	_ = sub.Connect(ctx, net, "node1")
//
//	_, _, _ = pub.Publish(repro.Event{
//		Attrs:   repro.Attributes{"topic": repro.String("orders"), "qty": repro.Int(500)},
//		Payload: []byte("BUY 500 XYZ"),
//	})
//	d := <-sub.Deliveries() // exactly-once, in timestamp order
//	_ = d
//
// Durable subscribers may Disconnect and Connect again at any time — also
// against a restarted broker — and receive every matching event published
// in between exactly once, resuming from their checkpoint token. See
// DESIGN.md for the architecture and EXPERIMENTS.md for the paper
// reproduction results.
package repro

import (
	"context"
	"io"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/faultnet"
	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/overlay"
	"repro/internal/pubend"
	"repro/internal/repair"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/vtime"
)

// Core identifier and time types.
type (
	// PubendID identifies a publishing endpoint (a persistent, ordered
	// event stream hosted by a publisher hosting broker).
	PubendID = vtime.PubendID
	// SubscriberID identifies a durable subscription system-wide.
	SubscriberID = vtime.SubscriberID
	// Timestamp is a point in a pubend's virtual time stream
	// (microseconds).
	Timestamp = vtime.Timestamp
	// CheckpointToken is the per-pubend vector of consumed timestamps a
	// durable subscriber resumes from.
	CheckpointToken = vtime.CheckpointToken
)

// Event and attribute types.
type (
	// Event is an application message: typed attributes (matched by
	// subscriptions) plus an opaque payload.
	Event = message.Event
	// Attributes is the typed attribute map of an event.
	Attributes = filter.Attributes
	// Value is one typed attribute value.
	Value = filter.Value
	// Delivery is one message on a subscriber's stream: an event, a
	// silence marker, or an explicit gap notification.
	Delivery = message.Delivery
	// Subscription is a parsed content filter.
	Subscription = filter.Subscription
)

// Delivery kinds (see Delivery.Kind).
const (
	// DeliverEvent carries an event matching the subscription; there
	// were no other matching events since the previous delivery.
	DeliverEvent = message.DeliverEvent
	// DeliverSilence guarantees no matching events occurred up to its
	// timestamp; it advances the checkpoint token.
	DeliverSilence = message.DeliverSilence
	// DeliverGap warns that matching events up to its timestamp may
	// have been discarded by an early-release policy.
	DeliverGap = message.DeliverGap
)

// Attribute value constructors.
var (
	// String builds a string attribute value.
	String = filter.String
	// Int builds an integer attribute value.
	Int = filter.Int
	// Float builds a floating-point attribute value.
	Float = filter.Float
	// Bool builds a boolean attribute value.
	Bool = filter.Bool
)

// ParseFilter compiles subscription source text, e.g.
// `topic = "orders" and price > 10.5 and exists(account)`.
func ParseFilter(src string) (*Subscription, error) { return filter.Parse(src) }

// Transport types. A Transport connects brokers and clients.
type (
	// Transport is the overlay connection factory.
	Transport = overlay.Transport
	// InprocNetwork connects components within one process.
	InprocNetwork = overlay.InprocNetwork
	// TCPTransport connects components over TCP.
	TCPTransport = overlay.TCPTransport
)

// NewInprocNetwork returns an in-process transport; latency, if positive,
// is added to every message hop (useful for modeling network links).
func NewInprocNetwork(latency time.Duration) *InprocNetwork {
	return overlay.NewInprocNetwork(latency)
}

// Link supervision and fault injection. Every inter-broker link (and any
// client with AutoReconnect set) rides a supervisor that redials with
// capped exponential backoff after involuntary loss; the recovery
// protocol then replays the outage gap, preserving exactly-once delivery.
type (
	// LinkSupervisor maintains one self-healing overlay link: dial,
	// bring-up, watch, redial with capped exponential backoff + jitter.
	LinkSupervisor = overlay.Supervisor
	// SupervisorConfig configures a LinkSupervisor.
	SupervisorConfig = overlay.SupervisorConfig
	// LinkStatus is a point-in-time snapshot of a supervised link, as
	// returned by Broker.Health.
	LinkStatus = overlay.LinkStatus
	// LinkState is a supervised link's coarse state (up/backoff/down).
	LinkState = overlay.LinkState
	// FaultNetwork is a deterministic, seeded fault-injection decorator
	// around any Transport: it can sever live links on command or on a
	// send-count schedule, partition address sets, and delay traffic.
	// Intended for tests and experiments.
	FaultNetwork = faultnet.Network
)

// Supervised link states (see LinkStatus.State and Broker.Health).
const (
	// LinkDown: not connected, no attempt in flight.
	LinkDown = overlay.LinkDown
	// LinkBackoff: waiting out the backoff delay before redialing.
	LinkBackoff = overlay.LinkBackoff
	// LinkUp: link established and in service.
	LinkUp = overlay.LinkUp
)

// NewLinkSupervisor builds a supervisor for one dial target. Call Start
// (synchronous first attempt, fail-fast) or StartDeferred (background).
func NewLinkSupervisor(cfg SupervisorConfig) *LinkSupervisor {
	return overlay.NewSupervisor(cfg)
}

// NewFaultNetwork wraps a transport with deterministic fault injection;
// all scheduled-kill randomness derives from seed. Brokers and clients
// dialing through the returned network are subject to its faults; Listen
// passes through, so peers on the inner transport remain reachable.
func NewFaultNetwork(inner Transport, seed int64) *FaultNetwork {
	return faultnet.New(inner, seed)
}

// Broker configuration types.
type (
	// BrokerConfig describes one broker node; see the field docs in the
	// broker package.
	BrokerConfig = broker.Config
	// PubendConfig describes one hosted pubend.
	PubendConfig = broker.PubendConfig
	// Broker is a running overlay node.
	Broker = broker.Broker
	// ReleasePolicy decides when a pubend may discard (early-release)
	// unacknowledged events.
	ReleasePolicy = pubend.Policy
	// MaxRetain is the administratively bounded retention policy:
	// events older than Retain (virtual time) may be discarded even if
	// disconnected durable subscribers have not acknowledged them; such
	// subscribers receive explicit gap messages on reconnection.
	MaxRetain = pubend.MaxRetain
)

// StartBroker opens the broker's persistent state, joins the overlay, and
// starts serving; the initial upstream dial (and any admin bring-up) is
// bounded by ctx. Close (clean) or Crash (failure simulation) stop it;
// Broker.Shutdown drains in-flight publishes first.
//
// Setting BrokerConfig.AdminAddr (e.g. "127.0.0.1:9090", or "127.0.0.1:0"
// for an ephemeral port reported by Broker.AdminAddr) additionally serves
// an admin HTTP endpoint with Prometheus /metrics, /healthz, /readyz, and
// /debug/pprof/. Leaving it empty starts no listener.
//
// Dynamic topology: a running broker is not pinned to the tree it started
// in. Broker.SetUpstream re-parents it under a new parent make-before-break
// (the new link is dialed, resynced, and serving before the old parent is
// sent a deliberate Leave), Broker.DetachUpstream turns it into a root, and
// Broker.UpstreamAddr reports the current parent. The exactly-once contract
// holds across any sequence of these calls — the recovery protocol replays
// whatever the move left outstanding through the new path. See DESIGN.md
// §2.11 for the membership state machine.
//
// Self-healing topology: setting BrokerConfig.Parents (candidate parents
// in preference order) together with FailoverAfter arms automatic
// fail-over — when the upstream link stays down past the threshold the
// broker re-parents itself to the best live candidate, loop-free even
// when whole subtrees are orphaned together, and with PreferPrimary
// returns to the original parent when it recovers. Broker.Parents,
// Broker.TreeInfo, and Broker.RepairStats observe it; /healthz notes
// "failed over to X" while the substitute link is in use. See DESIGN.md
// §2.12 for the fail-over state machine.
func StartBroker(ctx context.Context, cfg BrokerConfig) (*Broker, error) {
	return broker.NewContext(ctx, cfg)
}

// Self-healing fail-over types (see BrokerConfig.Parents and DESIGN.md
// §2.12). A broker with candidate parents and FailoverAfter set repairs
// its own position in the tree when its upstream dies: Broker.Parents
// reports the candidate states (also surfaced as pseudo-entries in
// Broker.Health — IsCandidateLink tells them apart from real links),
// Broker.TreeInfo the advertised tree position, and Broker.RepairStats
// the fail-over/fail-back counts and per-repair durations.
type (
	// TreeInfo is a broker's advertised tree position: root name, root
	// epoch, and depth below the root.
	TreeInfo = repair.TreeInfo
	// CandidateStatus is one candidate parent's probe state, as returned
	// by Broker.Parents.
	CandidateStatus = repair.CandidateStatus
	// RepairStats summarizes a broker's automatic repair history.
	RepairStats = repair.Stats
)

// IsCandidateLink reports whether a Broker.Health entry is a candidate
// parent probe (named "<broker>/candidate/<addr>") rather than a real
// overlay link.
func IsCandidateLink(st LinkStatus) bool { return broker.IsCandidateLink(st) }

// Declarative topology types: one spec surface shared by cmd/broker
// (flags), cmd/cluster (JSON file + timed mutations), and the experiment
// harness. TopologySpec.Parse/Marshal round-trip the versioned JSON file
// format; BrokerSpec.BrokerConfig materializes a BrokerConfig.
type (
	// TopologySpec is a whole broker tree: brokers in start order plus
	// optional timed mutations (add, kill, restart, reparent, detach).
	TopologySpec = topology.Spec
	// BrokerSpec declares one broker of a TopologySpec.
	BrokerSpec = topology.BrokerSpec
	// TopologyMutation is one timed change a cluster driver applies to a
	// running tree.
	TopologyMutation = topology.Mutation
	// BrokerTuning is the performance-knob subset of a BrokerSpec.
	BrokerTuning = topology.Tuning
)

// ParseTopology decodes and validates a versioned topology spec (the
// cmd/cluster file format). Unknown fields and versions are errors.
func ParseTopology(raw []byte) (*TopologySpec, error) { return topology.Parse(raw) }

// WriteMetrics writes every instrument in the process-wide telemetry
// registry to w in the Prometheus text exposition format — the same body
// the admin endpoint's /metrics serves. Useful for programs that want to
// snapshot metrics without running the HTTP server.
func WriteMetrics(w io.Writer) error { return telemetry.Default().WritePrometheus(w) }

// Client types.
type (
	// Publisher publishes events to a publisher hosting broker.
	Publisher = client.Publisher
	// DurableSubscriber is a durable subscriber client: it survives
	// disconnections (voluntary or not) with exactly-once delivery.
	DurableSubscriber = client.Subscriber
	// SubscriberOptions configures a durable subscriber. DialTimeout
	// bounds Connect's dial; AutoReconnect supervises the link and
	// re-subscribes from the checkpoint token after involuntary loss;
	// OnConnChange observes link transitions.
	SubscriberOptions = client.SubscriberOptions
	// PublisherOptions configures optional publisher behavior
	// (DialTimeout, AutoReconnect, OnConnChange).
	PublisherOptions = client.PublisherOptions
	// ConnState is a client link transition reported to OnConnChange.
	ConnState = client.ConnState
)

// Client connection states (see PublisherOptions.OnConnChange and
// SubscriberOptions.OnConnChange).
const (
	// ConnDown: the link was lost; an AutoReconnect client is redialing.
	ConnDown = client.ConnDown
	// ConnUp: the link is established (subscribers: subscribed).
	ConnUp = client.ConnUp
)

// PublisherOption is one functional option for NewPublisher.
type PublisherOption = client.PublisherOption

// Publisher options for NewPublisher (options-last surface).
var (
	// WithPublisherOptions overlays a whole PublisherOptions struct.
	WithPublisherOptions = client.WithOptions
	// WithDialTimeout bounds the connection attempt (and each supervised
	// reconnect).
	WithDialTimeout = client.WithDialTimeout
	// WithAutoReconnect keeps the publisher alive through link failures,
	// redialing with capped exponential backoff.
	WithAutoReconnect = client.WithAutoReconnect
	// WithConnChange observes every publisher link transition.
	WithConnChange = client.WithConnChange
)

// NewPublisher connects a publisher to the broker at addr; the initial
// dial is bounded by ctx. Behavior options (dial timeout, supervised
// auto-reconnect, connectivity callbacks) come last.
func NewPublisher(ctx context.Context, t Transport, addr, name string, opts ...PublisherOption) (*Publisher, error) {
	return client.NewPublisher(ctx, t, addr, name, opts...)
}

// NewDurableSubscriber creates a durable subscriber handle. Call Connect
// to attach it to a subscriber hosting broker; the subscription persists
// across Disconnect/Connect cycles and broker restarts.
func NewDurableSubscriber(opts SubscriberOptions) (*DurableSubscriber, error) {
	return client.NewSubscriber(opts)
}
