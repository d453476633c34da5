package broker

import (
	"time"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/vtime"
)

// handlePublish logs one published event at a hosted pubend and
// acknowledges the publisher. It runs on the publisher connection's
// dispatch goroutine — pubends are thread-safe and this keeps the paper's
// "event is logged once, at the PHB, before anything else happens" on the
// shortest path. The publish is pipelined: the ack is sent from the
// completion callback once the event is durably logged, so on a
// group-commit volume the connection goroutine is free to start logging
// the next publish while this one's fsync is in flight. Acks may therefore
// complete out of order; the client matches them by token.
func (b *Broker) handlePublish(link *downLink, pub *message.Publish) {
	pe := b.pickPubend(pub.PubendHint)
	if pe == nil {
		//nolint:errcheck,gosec // reply failure == dead link, handled via OnClose
		link.conn.Send(&message.PublishAck{Token: pub.Token})
		return
	}
	pubStart := time.Now()
	token := pub.Token
	conn := link.conn
	b.pubInflight.Add(1)
	res := pe.PublishAsync(message.Event{Attrs: pub.Attrs, Payload: pub.Payload})
	res.OnDone(func(ev *message.Event, err error) {
		// Runs on the volume committer's dispatcher (group commit) or
		// inline (synchronous policies). conn.Send only enqueues, so the
		// callback never blocks the commit pipeline.
		b.pubInflight.Add(-1)
		ack := &message.PublishAck{Token: token}
		if err == nil {
			// The event is durable: emit it now, not at the next tick.
			b.kickDrain(pe)
			ack.Pubend = ev.Pubend
			ack.Timestamp = ev.Timestamp
			tPublishes.Inc()
			tPublishSeconds.ObserveDuration(time.Since(pubStart))
		}
		conn.Send(ack) //nolint:errcheck,gosec // reply failure == dead link
	})
}

// pickPubend selects the hosted pubend for a publish: the hint when it is
// hosted here, round-robin otherwise (the paper assigns events to pubends
// "based on some criteria such as the identity of the publisher").
func (b *Broker) pickPubend(hint vtime.PubendID) *hostedPubend {
	if pe, ok := b.pubends[hint]; ok {
		return pe
	}
	if len(b.hostedIDs) == 0 {
		return nil
	}
	i := b.pubRR.Add(1) % uint64(len(b.hostedIDs))
	return b.pubends[b.hostedIDs[i]]
}

// handleSubscribe attaches a durable subscriber to the local SHB engine and
// propagates its subscription toward the PHBs for link filtering.
func (b *Broker) handleSubscribe(link *downLink, req *message.Subscribe) {
	if b.shb == nil {
		//nolint:errcheck,gosec // reply failure == dead link
		link.conn.Send(&message.SubscribeAck{
			Subscriber: req.Subscriber,
			CT:         vtime.NewCheckpointToken(),
			Err:        "broker does not host subscribers",
		})
		return
	}
	// Register the delivery route before Subscribe: the engine pumps
	// catchup deliveries synchronously inside it. Those deliveries reach
	// the client ahead of the SubscribeAck, which is safe — on a resume
	// the client's checkpoint token absorbs them either way.
	b.clients.Store(req.Subscriber, link.conn)
	ct, err := b.shb.Subscribe(req)
	if err != nil {
		b.clients.Delete(req.Subscriber)
		//nolint:errcheck,gosec // reply failure == dead link
		link.conn.Send(&message.SubscribeAck{
			Subscriber: req.Subscriber,
			CT:         vtime.NewCheckpointToken(),
			Err:        err.Error(),
		})
		return
	}
	// Propagate toward the PHBs through the covering set: if an announced
	// cover subsumes this filter, nothing travels upstream. Subscribe
	// succeeded, so the filter is known to parse.
	if sub, err := filter.Parse(req.Filter); err == nil {
		b.coverAdd(req.Subscriber, sub, coverSrcLocal)
	} else {
		b.announce(&message.SubUpdate{Subscriber: req.Subscriber, Filter: req.Filter})
	}
	// Knowledge leaves a PHB the moment an event commits, so the subscriber
	// is told it is subscribed only once the publish path filters with what
	// was just announced: nothing published after Connect returns can then
	// be downgraded to silence on the way here.
	b.syncUpstream(func() {
		//nolint:errcheck,gosec // reply failure == dead link
		link.conn.Send(&message.SubscribeAck{Subscriber: req.Subscriber, CT: ct})
	})
}
