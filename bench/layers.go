package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/logvol"
	"repro/internal/matchidx"
	"repro/internal/message"
	"repro/internal/metastore"
	"repro/internal/overlay"
	"repro/internal/pfs"
	"repro/internal/pubend"
	"repro/internal/tick"
	"repro/internal/vtime"
)

// Per-layer replays. Each takes the workload's generated inputs — same seed,
// same record sizes, same subscription population, same batch size and
// in-flight window — and plays them against one layer's exported API with
// nothing else running, one span per call. The brokers wire these layers with
// the options repeated here (group-commit log, unsynced metastore, PFS sync
// every 200 writes); if broker.go changes them, change them here.

// replay is the shared state of one workload's layer replays.
type replay struct {
	tr   *tracer
	w    workload
	seed int64
	dir  string
	n    int // events per replay
	out  map[string]float64

	// For the budget table: wall time per operation of the pipelined
	// replays, and the mean time of one OnKnowledge frame.
	pipelinedNs      map[string]float64
	constreamFrameNs float64
}

// inFlight is how many operations the workload keeps outstanding against a
// layer: its window on a closed loop; one on an open loop, where a publish
// completes well inside the gap to the next.
func (r *replay) inFlight() int {
	if r.w.closed() {
		return r.w.window
	}
	return 1
}

// batch is how many events one knowledge frame carries: what a pubend
// accumulates over one 5 ms broker tick at the workload's rate.
func (r *replay) batch() int {
	if r.w.closed() {
		return r.w.window / r.w.pubends
	}
	return max(r.w.rate/200, 1)
}

// events generates the first n events of the workload, stamped with
// synthetic timestamps one tick-millisecond apart where no pubend assigns
// them.
func (r *replay) events(n int) (*inputs, []genEvent, []*message.Event) {
	in := newInputs(r.w, r.seed)
	gen := make([]genEvent, n)
	evs := make([]*message.Event, n)
	for i := range gen {
		gen[i] = in.next(i)
		e := in.event(&gen[i])
		e.Pubend = 1
		e.Timestamp = vtime.Timestamp(1000 + 250*i)
		evs[i] = &e
	}
	return in, gen, evs
}

func us(ns float64) float64 { return ns / 1e3 }

// all runs every layer replay.
func (r *replay) all() error {
	r.pipelinedNs = map[string]float64{}
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"logvol", r.logvol}, {"pubend", r.pubend}, {"message", r.message}, {"overlay", r.overlay},
		{"matchidx", r.matchidx}, {"pfs", r.pfs}, {"metastore", r.metastore}, {"core", r.core},
	} {
		if err := step.run(); err != nil {
			return fmt.Errorf("replay %s: %w", step.name, err)
		}
	}
	return nil
}

// pipeline keeps up to depth asynchronous operations outstanding: issue
// starts one and returns how to wait for it.
func (r *replay) pipeline(span string, parent int32, ops, depth int, issue func(i int) (wait func() error)) error {
	type pending struct {
		id   int32
		wait func() error
	}
	var q []pending
	settle := func() error {
		p := q[0]
		q = q[1:]
		err := p.wait()
		r.tr.finish(p.id)
		return err
	}
	for i := 0; i < ops; i++ {
		if len(q) == depth {
			if err := settle(); err != nil {
				return err
			}
		}
		id := r.tr.start(span, parent)
		q = append(q, pending{id, issue(i)})
	}
	for len(q) > 0 {
		if err := settle(); err != nil {
			return err
		}
	}
	return nil
}

// commitOps bounds the replays that wait for an fsync per operation.
func (r *replay) commitOps() int {
	if r.inFlight() == 1 {
		return min(r.n, 1500)
	}
	return r.n
}

func (r *replay) logvol() error {
	vol, err := logvol.Open(filepath.Join(r.dir, "logvol.log"), logvol.Options{Sync: logvol.SyncGroup})
	if err != nil {
		return err
	}
	defer vol.Close()
	st, err := vol.Stream("events")
	if err != nil {
		return err
	}
	_, _, evs := r.events(r.n)
	records := make([][]byte, len(evs))
	for i, e := range evs {
		records[i] = message.AppendEvent(nil, e)
	}
	root := r.tr.start("replay/logvol", 0)
	ops := r.commitOps()
	syncs := vol.Syncs()
	err = r.pipeline("logvol.commit", root, ops, r.inFlight(), func(i int) func() error {
		t := st.AppendAsync(records[i])
		return func() error { _, err := t.Result(); return err }
	})
	if err != nil {
		return err
	}
	r.pipelinedNs["logvol"] = float64(r.tr.now()-r.tr.spans[root].start) / float64(ops)
	r.out["logvol.commit_us"] = us(percentile(r.tr.durations("logvol.commit"), 0.5))
	r.out["logvol.fsyncs_per_event"] = float64(vol.Syncs()-syncs) / float64(ops)

	var buf []byte
	for i := 1; i <= ops; i++ {
		id := r.tr.start("logvol.read", root)
		buf, err = st.ReadInto(logvol.Index(i), buf)
		r.tr.finish(id)
		if err != nil {
			return err
		}
	}
	r.out["logvol.read_us"] = us(mean(r.tr.durations("logvol.read")))
	r.tr.finish(root)
	return nil
}

func (r *replay) pubend() error {
	vol, err := logvol.Open(filepath.Join(r.dir, "pubend.log"), logvol.Options{Sync: logvol.SyncGroup})
	if err != nil {
		return err
	}
	defer vol.Close()
	pe, err := pubend.New(pubend.Options{ID: 1, Volume: vol, SyncEveryPublish: true})
	if err != nil {
		return err
	}
	_, _, evs := r.events(r.n)
	root := r.tr.start("replay/pubend", 0)
	ops := r.commitOps()
	stamps := make([]vtime.Timestamp, ops)
	err = r.pipeline("pubend.publish", root, ops, r.inFlight(), func(i int) func() error {
		res := pe.PublishAsync(*evs[i])
		return func() error {
			e, err := res.Wait()
			if err == nil {
				stamps[i] = e.Timestamp
			}
			return err
		}
	})
	if err != nil {
		return err
	}
	r.pipelinedNs["pubend"] = float64(r.tr.now()-r.tr.spans[root].start) / float64(ops)
	r.out["pubend.publish_us"] = us(percentile(r.tr.durations("pubend.publish"), 0.5))

	// A nack for the workload's backlog: the span a reconnecting S would ask
	// the PHB for once its own caches have let the events go.
	pe.Drain()
	back := min(r.w.backlog, ops)
	spans := []tick.Span{{Start: stamps[ops-back], End: stamps[ops-1]}}
	served := 0
	for i := 0; i < 5; i++ {
		id := r.tr.start("pubend.servenack", root)
		know, err := pe.ServeNack(spans)
		r.tr.finish(id)
		if err != nil {
			return err
		}
		served += len(know.Events)
	}
	r.out["pubend.servenack_us"] = us(ratio(sum(r.tr.durations("pubend.servenack")), float64(served)))
	r.tr.finish(root)
	return nil
}

// frames groups events into knowledge frames the way a pubend drain does:
// the events plus the silence between them.
func (r *replay) frames(evs []*message.Event) []*message.Knowledge {
	var out []*message.Knowledge
	for i := 0; i < len(evs); i += r.batch() {
		part := evs[i:min(i+r.batch(), len(evs))]
		k := &message.Knowledge{Pubend: 1, Events: part}
		for j, e := range part {
			if j > 0 {
				k.Ranges = append(k.Ranges, tick.Range{Start: part[j-1].Timestamp + 1, End: e.Timestamp - 1, Kind: tick.S})
			}
		}
		out = append(out, k)
	}
	return out
}

func (r *replay) message() error {
	_, _, evs := r.events(r.n)
	frames := r.frames(evs)
	root := r.tr.start("replay/message", 0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var buf []byte
	for _, k := range frames {
		id := r.tr.start("message.codec", root)
		var err error
		if buf, err = message.AppendFramed(buf[:0], k); err != nil {
			return err
		}
		body := buf[message.FrameHeaderLen:]
		ref := message.AcquireRef(len(body))
		copy(ref.Bytes(), body)
		_, err = message.DecodeShared(ref)
		ref.Release()
		r.tr.finish(id)
		if err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms)
	r.out["message.codec_ns"] = sum(r.tr.durations("message.codec")) / float64(len(evs))
	r.out["message.allocs"] = float64(ms.Mallocs-mallocs) / float64(len(evs))
	r.tr.finish(root)
	return nil
}

func (r *replay) overlay() error {
	_, _, evs := r.events(r.batch())
	frame := r.frames(evs)[0]
	arrived := make(chan struct{}, 1)
	accepted := make(chan overlay.Conn, 1)
	ln, addr, err := overlay.ListenAny(func(c overlay.Conn) {
		c.Start(func(message.Message) { arrived <- struct{}{} })
		accepted <- c
	})
	if err != nil {
		return err
	}
	defer ln.Close()
	conn, err := overlay.TCPTransport{}.Dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.Start(func(message.Message) {})
	root := r.tr.start("replay/overlay", 0)
	for i := 0; i < 2000; i++ {
		id := r.tr.start("overlay.hop", root)
		if err := conn.Send(frame); err != nil {
			return err
		}
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			return fmt.Errorf("frame %d never arrived", i)
		}
		r.tr.finish(id)
	}
	r.out["overlay.hop_us"] = us(percentile(r.tr.durations("overlay.hop"), 0.5))
	r.tr.finish(root)
	select {
	case c := <-accepted:
		c.Close() //nolint:errcheck // teardown
	default:
	}
	return nil
}

// matched lists, by the benchmark's own evaluation, the subscribers an event
// matches, ascending.
func matched(in *inputs, e *genEvent, dst []vtime.SubscriberID) []vtime.SubscriberID {
	dst = dst[:0]
	if in.sMatches(e) {
		dst = append(dst, sID)
	}
	for i := range in.subs {
		if in.subs[i].matches(e) {
			dst = append(dst, in.subs[i].id)
		}
	}
	return dst
}

func (r *replay) matchidx() error {
	in, gen, evs := r.events(r.n)
	m := matchidx.NewMatcher()
	eng := matchidx.New()
	add := func(id vtime.SubscriberID, src string) error {
		sub, err := filter.Parse(src)
		if err != nil {
			return err
		}
		m.Add(id, sub)
		eng.Add(id, sub)
		return nil
	}
	if err := add(sID, in.sFilter); err != nil {
		return err
	}
	for _, s := range in.subs {
		if err := add(s.id, s.src()); err != nil {
			return err
		}
	}
	root := r.tr.start("replay/matchidx", 0)
	var ids, want []vtime.SubscriberID
	hits, candidates := 0, 0
	for i, e := range evs {
		id := r.tr.start("matchidx.match", root)
		ids = m.MatchAppend(ids[:0], e.Attrs)
		r.tr.finish(id)
		if want = matched(in, &gen[i], want); len(ids) != len(want) {
			return fmt.Errorf("event %d: program matched %d subscriptions, reference model %d", i, len(ids), len(want))
		}
		hits += len(ids)
		_, c := eng.MatchAppend(nil, e.Attrs)
		candidates += c
	}
	r.out["matchidx.match_ns"] = mean(r.tr.durations("matchidx.match"))
	r.out["matchidx.hits"] = float64(hits) / float64(len(evs))
	r.out["matchidx.candidates_per_hit"] = ratio(float64(candidates), float64(hits))
	r.tr.finish(root)
	return nil
}

// shbStores opens the volume and metastore an SHB keeps, as the broker does.
func shbStores(dir, name string) (*logvol.Volume, *metastore.Store, error) {
	vol, err := logvol.Open(filepath.Join(dir, name+".log"), logvol.Options{})
	if err != nil {
		return nil, nil, err
	}
	meta, err := metastore.Open(filepath.Join(dir, name+".meta"), metastore.Options{Sync: metastore.SyncNone})
	if err != nil {
		vol.Close() //nolint:errcheck // already failing
		return nil, nil, err
	}
	return vol, meta, nil
}

func (r *replay) pfs() error {
	vol, meta, err := shbStores(r.dir, "pfs")
	if err != nil {
		return err
	}
	defer vol.Close()
	defer meta.Close()
	p, err := pfs.New(pfs.Options{Volume: vol, Meta: meta, SyncEvery: 200})
	if err != nil {
		return err
	}
	in, gen, evs := r.events(r.n)
	root := r.tr.start("replay/pfs", 0)
	bytes := vol.BytesAppended()
	var subs []vtime.SubscriberID
	for i, e := range evs {
		subs = matched(in, &gen[i], subs)
		id := r.tr.start("pfs.write", root)
		err := p.Write(1, e.Timestamp, subs)
		r.tr.finish(id)
		if err != nil {
			return err
		}
	}
	r.out["pfs.write_ns"] = mean(r.tr.durations("pfs.write"))
	r.out["pfs.bytes"] = float64(vol.BytesAppended()-bytes) / float64(len(evs))

	// S's backlog: the last backlog events, read in one batch as a reconnect
	// would.
	back := min(r.w.backlog, len(evs)-1)
	from, to := evs[len(evs)-1-back].Timestamp, evs[len(evs)-1].Timestamp
	var dst []tick.Span
	spans := 0
	for i := 0; i < 5; i++ {
		id := r.tr.start("pfs.read", root)
		res, err := p.ReadAppend(1, sID, from, to, 5000, dst[:0])
		r.tr.finish(id)
		if err != nil {
			return err
		}
		dst = res.QSpans
		spans += len(res.QSpans)
	}
	r.out["pfs.read_ns"] = ratio(sum(r.tr.durations("pfs.read")), float64(spans))
	p.WaitFlush()
	r.tr.finish(root)
	return nil
}

func (r *replay) metastore() error {
	meta, err := metastore.Open(filepath.Join(r.dir, "metastore.meta"), metastore.Options{Sync: metastore.SyncNone})
	if err != nil {
		return err
	}
	defer meta.Close()
	// One SHB tick persists, per pubend, latestDelivered(p) and S's
	// released(S, p); detached subscriptions acknowledge nothing, so they
	// add no rows after registration.
	rows := int(r.out["metastore.rows_per_commit"] + 0.5)
	if rows < 1 {
		rows = 2 * r.w.pubends
	}
	keys := make([]string, rows)
	for i := range keys {
		keys[i] = fmt.Sprintf("%d/%d", sID, i)
	}
	root := r.tr.start("replay/metastore", 0)
	for i := 0; i < 2000; i++ {
		tx := meta.Begin()
		for _, k := range keys {
			tx.PutUint64("released", k, uint64(i))
		}
		id := r.tr.start("metastore.commit", root)
		err := tx.Commit()
		r.tr.finish(id)
		if err != nil {
			return err
		}
	}
	r.out["metastore.commit_us"] = us(mean(r.tr.durations("metastore.commit")))
	r.tr.finish(root)
	return nil
}

// core drives an SHB engine directly: a pubend with an unsynced log stands
// in for upstream, its drained knowledge is fed to OnKnowledge, and nacks
// are answered from its log, with no network and no ticking broker between.
func (r *replay) core() error {
	pvol, err := logvol.Open(filepath.Join(r.dir, "core-pubend.log"), logvol.Options{})
	if err != nil {
		return err
	}
	defer pvol.Close()
	pe, err := pubend.New(pubend.Options{ID: 1, Volume: pvol})
	if err != nil {
		return err
	}
	vol, meta, err := shbStores(r.dir, "core")
	if err != nil {
		return err
	}
	defer vol.Close()
	defer meta.Close()
	p, err := pfs.New(pfs.Options{Volume: vol, Meta: meta, SyncEvery: 200})
	if err != nil {
		return err
	}
	deliveries := 0
	var lastTS vtime.Timestamp
	var nacked []tick.Span
	shb, err := core.New(core.Config{
		Meta: meta, PFS: p, Pubends: []vtime.PubendID{1}, EventCacheSize: r.w.cacheSize,
		SendNack:    func(_ vtime.PubendID, spans []tick.Span) { nacked = append(nacked, spans...) },
		SendRelease: func(vtime.PubendID, vtime.Timestamp, vtime.Timestamp) {},
		Deliver: func(sub vtime.SubscriberID, d message.Delivery) {
			if sub == sID && d.Kind == message.DeliverEvent {
				deliveries++
				lastTS = d.Timestamp
			}
		},
	})
	if err != nil {
		return err
	}
	defer shb.Close()

	in, gen, evs := r.events(r.n)
	for _, s := range in.subs {
		if _, err := shb.Subscribe(&message.Subscribe{Subscriber: s.id, Filter: s.src()}); err != nil {
			return err
		}
		shb.Detach(s.id)
	}
	if _, err := shb.Subscribe(&message.Subscribe{Subscriber: sID, Filter: in.sFilter}); err != nil {
		return err
	}

	root := r.tr.start("replay/core", 0)
	// feed publishes evs through the stand-in pubend a frame at a time and
	// hands each drained frame to the engine; only the engine call is timed.
	feed := func(evs []*message.Event, span string) error {
		for i := 0; i < len(evs); i += r.batch() {
			for _, e := range evs[i:min(i+r.batch(), len(evs))] {
				if _, err := pe.Publish(message.Event{Attrs: e.Attrs, Payload: e.Payload}); err != nil {
					return err
				}
			}
			know, _ := pe.Drain()
			var id int32
			if span != "" {
				id = r.tr.start(span, root)
			}
			shb.OnKnowledge(know)
			if span != "" {
				r.tr.finish(id)
			}
		}
		return nil
	}
	back := min(r.w.backlog, len(evs)/2)
	live := evs[:len(evs)-back]
	if err := feed(live, "core.constream"); err != nil {
		return err
	}
	if deliveries == 0 {
		return fmt.Errorf("engine delivered nothing of %d live events", len(live))
	}
	frames := r.tr.durations("core.constream")
	r.constreamFrameNs = mean(frames)
	r.out["core.constream_ns_per_delivery"] = sum(frames) / float64(deliveries)

	// S acknowledges what it has, goes away for the backlog, and resumes.
	ct := vtime.NewCheckpointToken()
	ct.Set(1, lastTS)
	shb.OnAck(sID, ct)
	shb.Detach(sID)
	if err := feed(evs[len(evs)-back:], ""); err != nil {
		return err
	}
	before, owed := deliveries, 0
	for i := len(gen) - back; i < len(gen); i++ {
		if in.sMatches(&gen[i]) {
			owed++
		}
	}
	id := r.tr.start("core.catchup", root)
	if _, err := shb.Subscribe(&message.Subscribe{Subscriber: sID, Filter: in.sFilter, CT: ct.Clone(), Resume: true}); err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for deliveries-before < owed && time.Now().Before(deadline) {
		shb.DrainCatchups()
		if len(nacked) > 0 {
			spans := nacked
			nacked = nil
			sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
			know, err := pe.ServeNack(spans)
			if err != nil {
				return err
			}
			shb.OnKnowledge(know)
		}
		if err := shb.Tick(time.Now()); err != nil {
			return err
		}
	}
	took := r.tr.finish(id)
	if deliveries-before < owed {
		return fmt.Errorf("catchup delivered %d of %d backlog events in 10 s", deliveries-before, owed)
	}
	r.out["core.catchup_ns"] = float64(took) / float64(owed)
	r.tr.finish(root)
	return nil
}
