package broker

import (
	"time"

	"repro/internal/filter"
	"repro/internal/matchidx"
	"repro/internal/message"
	"repro/internal/overlay"
	"repro/internal/telemetry"
	"repro/internal/tick"
	"repro/internal/vtime"
)

// kickDrain schedules a drain of h on its shard unless one is already
// queued. The publish-completion callback calls it, so knowledge leaves when
// the log commit completes: an idle shard forwards a lone event at once, a
// busy one emits everything that committed while the task waited.
func (b *Broker) kickDrain(h *hostedPubend) {
	if h.drainQueued.CompareAndSwap(false, true) {
		b.shardFor(h.ID()).push(h.drainTask)
	}
}

// drain pushes the knowledge h has accumulated down the tree. Runs on h's
// shard, from either trigger (cause counts which).
func (b *Broker) drain(h *hostedPubend, cause *telemetry.Counter) {
	cause.Inc()
	if know, _ := h.Drain(); know != nil {
		b.spreadKnowledge(know)
	}
}

// tickShard runs one housekeeping round on one shard's loop: assert silence
// on the shard's hosted pubends (events were already emitted when they
// committed), aggregate and propagate its release vectors, and — on the
// control shard — run the SHB engine's housekeeping and occasionally
// reclaim PFS storage.
func (b *Broker) tickShard(sh *shard) {
	sh.tickN++
	for _, h := range sh.hosted {
		b.drain(h, tDrainsTick)
	}
	if sh == b.control() && b.shb != nil {
		//nolint:errcheck,gosec // persistence errors surface in tests
		// via lost state; the engine remains consistent in memory.
		b.shb.Tick(time.Now())
		if sh.tickN%256 == 0 {
			b.shb.ChopPFS() //nolint:errcheck,gosec // storage reclamation is best-effort
		}
	}
	b.propagateReleases(sh)
}

// fromUpstream handles a message arriving on the parent link. It runs on
// the upstream connection's dispatch goroutine and hops onto the
// pubend's shard; same-pubend messages land on one queue in receive
// order, so per-pubend FIFO survives the fan-out. sup is the supervisor
// the link belongs to: a retired link's stragglers must not update
// position state meant for the current parent.
func (b *Broker) fromUpstream(sup *overlay.Supervisor, m message.Message) {
	switch v := m.(type) {
	case *message.Knowledge:
		sh := b.shardFor(v.Pubend)
		// The shard hop outlives this dispatch call, and with it the
		// reader's base reference on the frame buffer the events alias:
		// retain across the hop, release once the shard has routed the
		// batch (every consumer that keeps an event — relay cache, SHB
		// cache, queued downstream writes — takes its own reference
		// inside).
		v.RetainRefs()
		sh.push(func() {
			if cache := b.relay(sh, v.Pubend); cache != nil {
				cache.apply(v)
			}
			b.spreadKnowledge(v)
			v.ReleaseRefs()
		})
	case *message.Hello:
		// The parent's tree-position advertisement (reply to our Hello,
		// or a cascade after the parent's own position changed).
		if b.upSup.Load() == sup || b.pendingSup.Load() == sup {
			b.learnTreeInfo(v)
		}
	case *message.SubSync:
		b.control().push(func() {
			if done := b.syncWait[v.Token]; done != nil {
				delete(b.syncWait, v.Token)
				done()
			}
		})
	default:
		// Upstream sends only knowledge, Hello and SubSync echoes.
	}
}

// fromBelow handles a message from a downstream broker or client. It runs
// on the connection's dispatch goroutine: cheap thread-safe operations
// (publishes, engine acks/credits) are handled inline, per-pubend traffic
// hops onto the pubend's shard, and link/subscription lifecycle hops onto
// the control shard.
func (b *Broker) fromBelow(link *downLink, m message.Message) {
	switch v := m.(type) {
	case *message.Publish:
		// Hot path: pubends are thread-safe; handle on the conn
		// goroutine so publisher throughput is not serialized behind
		// routing work.
		b.handlePublish(link, v)
	case *message.Hello:
		// The aggregation key must be settled before any Release from
		// this link is routed. Both arrive on this dispatch goroutine in
		// FIFO order, so assigning it here (not on the control shard)
		// makes later by-value captures of link.key race-free.
		if v.Role == message.RoleBroker && v.Name != "" {
			// Key release aggregation by broker name so a restarted
			// broker replaces its own stale entry instead of pinning
			// the aggregate forever.
			link.key = "broker:" + v.Name
		}
		if v.Role == message.RoleBroker || v.Role == message.RoleProbe {
			// Reply with our tree position: the repair policy's adoption
			// eligibility rides the handshake. A probe gets the reply and
			// nothing else — it is never registered as a downstream link.
			link.conn.Send(b.treeHello()) //nolint:errcheck,gosec // dead links drop via OnClose
		}
		if v.Role == message.RoleBroker {
			b.control().push(func() { b.registerDown(link) })
			// Fan the release floor out to every shard for its own
			// hosted pubends (shard-local relAgg state).
			key := link.key
			for _, sh := range b.shards {
				sh := sh
				sh.push(func() { b.initLinkFloor(sh, key) })
			}
		}
	case *message.Nack:
		sh := b.shardFor(v.Pubend)
		sh.push(func() { b.routeNack(sh, link, v.Pubend, v.Spans) })
	case *message.Release:
		sh := b.shardFor(v.Pubend)
		key := link.key
		sh.push(func() { b.storeRelease(sh, key, v.Pubend, v.Released, v.LatestDelivered) })
	case *message.Ack:
		// The engine is internally serialized and the route is only
		// read, so stay on the conn goroutine. A conn whose session was
		// taken over no longer speaks for the subscriber.
		if b.shb != nil && b.holdsSession(link.conn, v.Subscriber) {
			b.shb.OnAck(v.Subscriber, v.CT)
		}
	case *message.Credit:
		if b.shb != nil && b.holdsSession(link.conn, v.Subscriber) {
			b.shb.OnCredit(v.Subscriber, v.Credits)
		}
	case *message.Leave:
		b.control().push(func() { b.handleLeave(link) })
	default:
		b.control().push(func() { b.fromBelowControl(link, m) })
	}
}

// registerDown adds a classified broker link to the downstream fan-out
// set. Runs on the control shard.
func (b *Broker) registerDown(link *downLink) {
	link.isDown = true
	b.downs[link.conn] = link
	b.publishDowns()
}

// publishDowns republishes the downstream-link snapshot read by event
// shards in spreadKnowledge. Runs on the control shard.
func (b *Broker) publishDowns() {
	snap := make([]*downLink, 0, len(b.downs))
	for _, link := range b.downs {
		snap = append(snap, link)
	}
	b.downsSnap.Store(&snap)
}

// fromBelowControl is the control-shard portion of fromBelow: link and
// subscription lifecycle.
func (b *Broker) fromBelowControl(link *downLink, m message.Message) {
	switch v := m.(type) {
	case *message.SubUpdate:
		b.handleSubUpdate(link, v)
	case *message.SubSync:
		// Everything the link announced before this is in its matcher and,
		// where it widened our own covers, on its way up: echo once the
		// path above has confirmed those.
		link.synced.Store(true)
		b.syncUpstream(func() {
			link.conn.Send(v) //nolint:errcheck,gosec // dead links drop via OnClose
		})
	case *message.Subscribe:
		b.handleSubscribe(link, v)
	case *message.Detach:
		// A late Detach from a conn whose session was taken over must
		// not tear down the newer session.
		if b.holdsSession(link.conn, v.Subscriber) {
			b.detachSubscriber(v.Subscriber)
		}
	case *message.Unsubscribe:
		b.unsubscribe(v.Subscriber)
	}
}

// unsubscribe permanently removes a durable subscription and withdraws it
// from the upstream filtering matchers (re-expanding any subscriptions it
// was covering). Runs on the control shard.
func (b *Broker) unsubscribe(id vtime.SubscriberID) {
	b.clients.Delete(id)
	if b.shb != nil {
		b.shb.Unsubscribe(id) //nolint:errcheck,gosec // best-effort; engine stays consistent
	}
	b.coverRemoveAll(id)
}

// coverSrcLocal is the announcement source of this broker's own SHB
// durables in coverSrc (downstream announcements use the link key).
const coverSrcLocal = "local"

// coverAdd registers an upstream-facing subscription with the covering set
// under the given announcement source and sends the resulting announcement
// changes. Re-adding from a second source (the same subscription arriving
// via a re-parented path) only extends the source set — CoverSet.Add is a
// no-op for an identical filter. Runs on the control shard.
func (b *Broker) coverAdd(id vtime.SubscriberID, sub *filter.Subscription, source string) {
	set := b.coverSrc[id]
	if set == nil {
		set = make(map[string]struct{})
		b.coverSrc[id] = set
	}
	set[source] = struct{}{}
	for _, op := range b.upCover.Add(id, sub) {
		b.sendCoverOp(op)
	}
}

// announce sends a subscription change upstream. Additions count as
// unconfirmed until a SubSync sent after them is echoed. Runs on the
// control shard.
func (b *Broker) announce(su *message.SubUpdate) {
	if !su.Remove {
		b.annSeq++
	}
	b.upSend(su)
}

// syncUpstream runs done once every announcement sent upstream so far is in
// force on the whole path to the root: at once when none is unconfirmed,
// this is the root, or the link is down (nothing flows over it, and the
// resync on the next link re-announces and confirms); otherwise when the
// parent echoes a SubSync. done runs on the control shard, as the caller
// must.
func (b *Broker) syncUpstream(done func()) {
	if b.annConfirmed == b.annSeq {
		done()
		return
	}
	var conn overlay.Conn
	if sup := b.upSup.Load(); sup != nil {
		conn = sup.Conn()
	}
	b.syncOn(conn, done)
}

// syncOn sends a SubSync on conn and runs done when its echo arrives, which
// confirms every announcement made so far; with no conn, or one that
// refuses the send, done runs now and confirms nothing. Runs on the control
// shard.
func (b *Broker) syncOn(conn overlay.Conn, done func()) {
	b.syncSeq++
	if conn == nil || conn.Send(&message.SubSync{Token: b.syncSeq}) != nil {
		done()
		return
	}
	upTo := b.annSeq
	b.syncWait[b.syncSeq] = func() {
		b.annConfirmed = max(b.annConfirmed, upTo)
		done()
	}
}

// takeSyncs empties syncWait into one function that settles every echo still
// owed: a link that died or was retired will not send them. Runs on the
// control shard, like the function it returns.
func (b *Broker) takeSyncs() func() {
	owed := b.syncWait
	b.syncWait = make(map[uint64]func())
	return func() {
		for _, done := range owed {
			done()
		}
	}
}

// coverRemove drops one announcement source for a subscription, withdrawing
// it from the covering set only when no source is left: during a re-parent
// the departing path's (grace-delayed) withdrawal must not tear down a
// cover the new path has re-announced. Withdrawal ops promote formerly
// covered subscriptions before the removal, so the upstream matcher never
// has an uncovered window. Runs on the control shard.
func (b *Broker) coverRemove(id vtime.SubscriberID, source string) {
	set := b.coverSrc[id]
	if set == nil {
		return
	}
	delete(set, source)
	if len(set) > 0 {
		return
	}
	b.coverRemoveAll(id)
}

// coverRemoveAll withdraws a subscription regardless of remaining sources
// (permanent unsubscribe). Runs on the control shard.
func (b *Broker) coverRemoveAll(id vtime.SubscriberID) {
	delete(b.coverSrc, id)
	for _, op := range b.upCover.Remove(id) {
		b.sendCoverOp(op)
	}
}

func (b *Broker) sendCoverOp(op matchidx.CoverOp) {
	b.announce(&message.SubUpdate{Subscriber: op.ID, Filter: op.Filter, Remove: op.Remove})
}

// spreadKnowledge fans knowledge out to the local SHB and every downstream
// broker link, filtering events per link through its subscription matcher
// (the intermediate-broker filtering of section 1: a D tick that matches
// nothing below a link is sent as S). Runs on event shards; the
// downstream set is the control shard's atomic snapshot, and matchers and
// conn sends are thread-safe.
func (b *Broker) spreadKnowledge(know *message.Knowledge) {
	if b.shb != nil {
		b.shb.OnKnowledge(know)
	}
	for _, link := range *b.downsSnap.Load() {
		filtered := b.filterKnowledge(know, link)
		// One reference per enqueued send (filterKnowledge may hand the
		// same *Knowledge to several links); the link's wire writer
		// releases after framing. In-process links never release — their
		// receiver owns the message and the reference falls to the GC.
		filtered.RetainRefs()
		link.conn.Send(filtered) //nolint:errcheck,gosec // dead links drop via OnClose
	}
}

// filterKnowledge converts events that match nothing in the link's matcher
// into S ranges, preserving complete tick coverage. A link that has not
// finished announcing (no SubSync yet) or announced nothing passes
// everything through: a link whose subscriptions are unknown must not lose
// data.
func (b *Broker) filterKnowledge(know *message.Knowledge, link *downLink) *message.Knowledge {
	m := link.matcher
	if !link.synced.Load() || m.Len() == 0 {
		b.eventsForwarded.Add(int64(len(know.Events)))
		tForwarded.Add(int64(len(know.Events)))
		return know
	}
	out := &message.Knowledge{Pubend: know.Pubend, Ranges: know.Ranges}
	for _, ev := range know.Events {
		if m.MatchesAny(ev.Attrs) {
			out.Events = append(out.Events, ev)
			continue
		}
		out.Ranges = append(out.Ranges, tick.Range{
			Start: ev.Timestamp, End: ev.Timestamp, Kind: tick.S,
		})
	}
	b.eventsForwarded.Add(int64(len(out.Events)))
	b.eventsFiltered.Add(int64(len(know.Events) - len(out.Events)))
	tForwarded.Add(int64(len(out.Events)))
	tFiltered.Add(int64(len(know.Events) - len(out.Events)))
	return out
}

// routeNack answers a nack (from a downstream link, or nil for the local
// SHB) with whatever this broker knows — hosted pubend log, or relay
// cache — and consolidates the remainder upstream. Runs on pub's shard.
func (b *Broker) routeNack(sh *shard, link *downLink, pub vtime.PubendID, spans []tick.Span) {
	tNacksRouted.Inc()
	// Hosted pubend: authoritative answer.
	if pe, ok := b.pubends[pub]; ok {
		know, err := pe.ServeNack(spans)
		if err != nil || know == nil {
			return
		}
		b.replyKnowledge(link, know)
		return
	}
	cache := b.relay(sh, pub)
	reply, missing := cache.serve(pub, spans)
	if reply != nil {
		b.replyKnowledge(link, reply)
	}
	if len(missing) == 0 {
		return
	}
	// Consolidate: only spans not already pending go upstream.
	var fresh []tick.Span
	for _, sp := range missing {
		fresh = append(fresh, cache.cur.Add(sp.Start, sp.End)...)
	}
	if len(fresh) > 0 {
		b.upSend(&message.Nack{Pubend: pub, Spans: fresh})
	}
}

// replyKnowledge sends recovered knowledge to the requester (or the local
// SHB when the request came from it).
func (b *Broker) replyKnowledge(link *downLink, know *message.Knowledge) {
	if link == nil {
		if b.shb != nil {
			b.shb.OnKnowledge(know)
		}
		return
	}
	filtered := b.filterKnowledge(know, link)
	filtered.RetainRefs()
	link.conn.Send(filtered) //nolint:errcheck,gosec // dead links drop via OnClose
}

// initLinkFloor seeds a zero release vector for a newly connected broker
// link on this shard's hosted pubends: until the link reports, nothing
// may be released — otherwise a subtree that crashes before its first
// report would silently lose its subscribers' retention guarantees.
// Runs on sh's loop. Seeding never overwrites an existing entry, so its
// ordering against a concurrent storeRelease for the same link (routed
// independently to this shard) is immaterial.
func (b *Broker) initLinkFloor(sh *shard, key string) {
	for _, h := range sh.hosted {
		pub := h.ID()
		per := sh.relAgg[pub]
		if per == nil {
			per = make(map[string]relState)
			sh.relAgg[pub] = per
		}
		if _, exists := per[key]; !exists {
			per[key] = relState{valid: true} // released=0, latestDelivered=0
		}
	}
}

// storeRelease records one source's release vector; propagation happens on
// the next tick. Runs on pub's shard.
func (b *Broker) storeRelease(sh *shard, source string, pub vtime.PubendID, rel, ld vtime.Timestamp) {
	per := sh.relAgg[pub]
	if per == nil {
		per = make(map[string]relState)
		sh.relAgg[pub] = per
	}
	cur := per[source]
	if rel > cur.released {
		cur.released = rel
	}
	if ld > cur.latestDelivered {
		cur.latestDelivered = ld
	}
	cur.valid = true
	per[source] = cur
}

// aggregateRelease computes the minimum release vector over a pubend's
// valid sources; ok is false when no source has reported.
func aggregateRelease(per map[string]relState) (rel, ld vtime.Timestamp, ok bool) {
	rel, ld = vtime.MaxTS, vtime.MaxTS
	n := 0
	for _, st := range per {
		if !st.valid {
			continue
		}
		n++
		if st.released < rel {
			rel = st.released
		}
		if st.latestDelivered < ld {
			ld = st.latestDelivered
		}
	}
	return rel, ld, n > 0
}

// propagateReleases aggregates this shard's release vectors over all
// reporting sources and feeds them to the hosted pubend (root) or the
// upstream link. Runs on sh's loop.
func (b *Broker) propagateReleases(sh *shard) {
	for pub, per := range sh.relAgg {
		rel, ld, ok := aggregateRelease(per)
		if !ok {
			continue
		}
		if pe, ok := b.pubends[pub]; ok {
			pe.UpdateRelease(rel, ld) //nolint:errcheck,gosec // retention errors do not affect delivery
			// Announce the resulting loss horizon so SHBs can chop
			// their PFS records below it (early-release policies).
			continue
		}
		b.upSend(&message.Release{
			Pubend:          pub,
			Released:        rel,
			LatestDelivered: ld,
		})
		// Advance the relay cache floor: nothing below the aggregate
		// released can be requested again from below.
		if cache := sh.caches[pub]; cache != nil {
			cache.evictUpTo(rel)
		}
	}
}

// handleSubUpdate registers/unregisters a downstream subscription for link
// filtering and propagates it toward the PHBs through the covering set, so
// only subscriptions not already subsumed by an announced cover travel
// upstream. Runs on the control shard.
func (b *Broker) handleSubUpdate(link *downLink, su *message.SubUpdate) {
	if su.Remove {
		link.matcher.Remove(su.Subscriber)
		delete(link.subs, su.Subscriber)
		b.coverRemove(su.Subscriber, link.key)
		return
	}
	sub, err := filter.Parse(su.Filter)
	if err != nil {
		// Unparseable filters can't be indexed or covered; forward
		// verbatim (the old behavior) so upstream at least sees them.
		b.announce(su)
		return
	}
	link.matcher.Add(su.Subscriber, sub)
	link.subs[su.Subscriber] = struct{}{}
	b.coverAdd(su.Subscriber, sub, link.key)
}

// handleLeave processes a child's deliberate departure (detach or
// re-parent). Unlike a crash — where covers and release floors are
// retained so the returning subtree's recovery stays correct — a Leave
// means the child is gone from this link for good, so its soft state is
// purged after LeaveGrace: the covers it announced (by source, so a path
// still announcing the same subscription keeps the cover) and its release
// floors (so a departed subtree stops pinning hosted-pubend retention).
// The grace delay gives the re-parented child's new path time to announce
// replacement covers and report replacement floors at common ancestors;
// resyncUpstream sends both eagerly, so the default grace is generous.
// Runs on the control shard.
func (b *Broker) handleLeave(link *downLink) {
	if _, ok := b.links[link.conn]; !ok {
		return // already dropped (close raced the Leave) or duplicate
	}
	delete(b.links, link.conn)
	if _, wasDown := b.downs[link.conn]; wasDown {
		delete(b.downs, link.conn)
		b.publishDowns()
	}
	subs := make([]vtime.SubscriberID, 0, len(link.subs))
	for id := range link.subs {
		subs = append(subs, id)
	}
	key := link.key
	time.AfterFunc(b.cfg.LeaveGrace, func() {
		b.control().push(func() {
			for _, id := range subs {
				b.coverRemove(id, key)
			}
		})
		for _, sh := range b.shards {
			sh := sh
			sh.push(func() {
				for _, per := range sh.relAgg {
					delete(per, key)
				}
			})
		}
	})
}

// dropLink removes a dead connection: downstream links leave the fanout
// set; subscriber clients are detached. Covers and release floors are
// deliberately retained — a crashed subtree reconnects with the same
// aggregation key and its announced state must still be in force when it
// does (only a Leave purges; see handleLeave). Runs on the control shard.
func (b *Broker) dropLink(link *downLink) {
	if _, ok := b.links[link.conn]; !ok {
		return // already removed by a Leave
	}
	delete(b.links, link.conn)
	if _, wasDown := b.downs[link.conn]; wasDown {
		delete(b.downs, link.conn)
		b.publishDowns()
	}
	var gone []vtime.SubscriberID
	b.clients.Range(func(k, v any) bool {
		if v == link.conn {
			if id, ok := k.(vtime.SubscriberID); ok {
				gone = append(gone, id)
			}
		}
		return true
	})
	for _, id := range gone {
		b.detachSubscriber(id)
	}
}

// holdsSession reports whether conn is the delivery route of the
// subscriber's session.
func (b *Broker) holdsSession(conn overlay.Conn, id vtime.SubscriberID) bool {
	v, ok := b.clients.Load(id)
	return ok && v == conn
}

func (b *Broker) detachSubscriber(id vtime.SubscriberID) {
	b.clients.Delete(id)
	if b.shb != nil {
		b.shb.Detach(id)
	}
}

// relay returns (creating on demand) the shard-local relay cache for a
// non-hosted pubend. Runs on pub's shard.
func (b *Broker) relay(sh *shard, pub vtime.PubendID) *relayCache {
	if _, hosted := b.pubends[pub]; hosted {
		return nil
	}
	cache := sh.caches[pub]
	if cache == nil {
		cache = newRelayCache(b.cfg.RelayCacheSize)
		sh.caches[pub] = cache
	}
	return cache
}
