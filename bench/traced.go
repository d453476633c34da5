package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/core"
)

// perLayer lists the traced mode's metrics: name, unit, and which way is
// better. BENCHMARK.json carries the same table; a test holds the two
// together. None has a bound.
var perLayer = []spec{
	{"logvol.commit_us", "us", false, 0},
	{"logvol.fsyncs_per_event", "count", false, 0},
	{"logvol.read_us", "us", false, 0},
	{"pubend.publish_us", "us", false, 0},
	{"pubend.servenack_us", "us", false, 0},
	{"message.codec_ns", "ns", false, 0},
	{"message.allocs", "count", false, 0},
	{"overlay.hop_us", "us", false, 0},
	{"overlay.frames_per_write", "count", true, 0},
	{"matchidx.match_ns", "ns", false, 0},
	{"matchidx.hits", "count", true, 0},
	{"matchidx.candidates_per_hit", "ratio", false, 0},
	{"pfs.write_ns", "ns", false, 0},
	{"pfs.bytes", "B", false, 0},
	{"pfs.read_ns", "ns", false, 0},
	{"pfs.decode_cache_hit_share", "ratio", true, 0},
	{"metastore.commit_us", "us", false, 0},
	{"metastore.rows_per_commit", "count", false, 0},
	{"core.constream_ns_per_delivery", "ns", false, 0},
	{"core.catchup_ns", "ns", false, 0},
	{"core.cache_hit_share", "ratio", true, 0},
	{"core.nack_ticks_per_wanted", "ratio", false, 0},
	{"broker.shard_busy_share", "ratio", false, 0},
	{"broker.residual_ms", "ms", false, 0},
	{"client.ack_to_release_ms", "ms", false, 0},
	{"e2e.publish_ack_p50_ms", "ms", false, 0},
	{"e2e.catchup_events_per_s", "ev/s", true, 0},
	{"trace.overhead_share", "ratio", false, 0},
	{"process.peak_rss_mb", "MB", false, 0},
}

// Numbers of the traced mode that do not depend on the run length.
const (
	replayEvents      = 4096 // events each layer replay plays
	quickReplayEvents = 512
	spanEvents        = 20000 // at most this many events of the traced round get stage spans
	deepFactor        = 4     // the deep reconnect's backlog, in event caches
)

// observed is what the traced round saw from outside besides its log.
type observed struct {
	counters map[string]float64 // deltas of the program's own counters over the round
	shb      core.Stats
	relayFwd int64
	relayFil int64
	wallNs   int64
	releases *releaseWatch
}

// traced produces the per-layer numbers: an untraced round for reference, a
// traced round of the same inputs, and the layer replays.
func (r *run) traced(ctx context.Context, w io.Writer) error {
	tr := newTracer(r.wl.name)
	_, plain, err := r.round(ctx, 0, nil)
	if err != nil {
		return err
	}

	var obs observed
	watch := func(d *driver) func() {
		if r.wl.cacheSize > 0 && !r.o.quick {
			d.deepBacklog = deepFactor * r.wl.cacheSize
		}
		before, _ := scrape()
		t0 := time.Now()
		obs.releases = watchReleases(d.c, r.wl.pubendIDs())
		return func() {
			obs.wallNs = int64(time.Since(t0))
			obs.releases.close()
			after, _ := scrape()
			obs.counters = delta(before, after)
			obs.shb = d.c.shb.SHBStats()
			obs.relayFwd, obs.relayFil = d.c.relay.RelayStats()
		}
	}
	l, seen, err := r.round(ctx, 0, watch)
	if err != nil {
		return err
	}
	if obs.counters == nil {
		return fmt.Errorf("the program's counters could not be scraped")
	}
	toRelease := r.stageSpans(tr, l, &obs)

	out := map[string]float64{}
	c := obs.counters
	out["overlay.frames_per_write"] = ratio(c["gryphon_overlay_write_batch_size_sum"], c["gryphon_overlay_write_batch_size_count"])
	out["pfs.decode_cache_hit_share"] = ratio(c["gryphon_pfs_decode_cache_hits_total"],
		c["gryphon_pfs_decode_cache_hits_total"]+c["gryphon_pfs_decode_cache_misses_total"])
	out["metastore.rows_per_commit"] = ratio(c["gryphon_metastore_commit_ops_sum"], c["gryphon_metastore_commit_ops_count"])
	out["core.cache_hit_share"] = ratio(float64(obs.shb.CacheHits), float64(obs.shb.CacheHits+obs.shb.CacheMisses))
	out["core.nack_ticks_per_wanted"] = ratio(float64(obs.shb.NackTicksSent), float64(obs.shb.NackTicksWanted))
	out["broker.shard_busy_share"] = ratio(c["gryphon_broker_shard_busy_nanos_total"], float64(obs.wallNs)*float64(runtime.GOMAXPROCS(0)))
	out["client.ack_to_release_ms"] = -1 // nothing was released: detached subscriptions hold the log
	if len(toRelease) > 0 {
		out["client.ack_to_release_ms"] = percentile(toRelease, 0.5)
	}
	out["e2e.publish_ack_p50_ms"] = seen.diagnostics["publish_ack_p50_ms"]
	out["e2e.catchup_events_per_s"] = seen.diagnostics["catchup_events_per_s"]

	// Tracing overhead: what the traced round lost against the untraced one
	// on the workload's own figure. Both are single rounds, so this carries a
	// round's noise and can come out negative.
	figure, unit := "deliver_p50_ms", "ms"
	if r.wl.closed() {
		figure, unit = "events_per_s", "ev/s"
	}
	a, b := plain.metrics[figure].Value, seen.metrics[figure].Value
	overhead := ratio(b-a, a)
	if r.wl.closed() {
		overhead = -overhead
	}
	out["trace.overhead_share"] = overhead
	if out["process.peak_rss_mb"], err = peakRSSMB(); err != nil {
		return err
	}

	rp := &replay{tr: tr, w: r.wl, seed: r.o.seed * rounds, dir: filepath.Join(r.dir, "replay"), n: replayEvents, out: out}
	if r.o.quick {
		rp.n = quickReplayEvents
	}
	if err := os.MkdirAll(rp.dir, 0o755); err != nil {
		return err
	}
	if err := rp.all(); err != nil {
		return err
	}

	res := r.res
	fmt.Fprintf(w, "traced %s: %s untraced %.4f %s, traced %.4f %s, tracing overhead %+.1f%%\n",
		r.wl.name, figure, a, unit, b, unit, 100*overhead)
	out["broker.residual_ms"] = r.budget(w, rp, plain)
	for _, sp := range perLayer {
		v, ok := out[sp.name]
		if !ok {
			return fmt.Errorf("workload %s produced no %s", r.wl.name, sp.name)
		}
		res.Metrics[sp.name] = metric{v, sp.unit}
	}
	for name, v := range seen.diagnostics {
		res.Diagnostics[name] = v
	}
	for name, v := range seen.metrics {
		res.Diagnostics["traced."+name] = v.Value
	}
	for name, v := range plain.metrics {
		res.Diagnostics["untraced."+name] = v.Value
	}
	res.Diagnostics["relay.forwarded"] = float64(obs.relayFwd)
	res.Diagnostics["relay.filtered"] = float64(obs.relayFil)
	res.Diagnostics["spans"] = float64(len(tr.spans))

	path := r.o.spans
	if path == "" {
		path = filepath.Join(filepath.Dir(r.o.dataDir), "spans", fmt.Sprintf("%s-seed%d.jsonl", r.wl.name, r.o.seed))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(w, "  spans: %d written to %s\n", len(tr.spans), path)
	return nil
}

// stageSpans records, for a sample of the traced round's events, the stage
// boundaries a client can see: due → sent → acked → delivered → released. It
// returns the delivered→released times in ms.
func (r *run) stageSpans(tr *tracer, l *runLog, obs *observed) []float64 {
	offset := int64(l.t0.Sub(tr.t0)) // round time → tracer time
	root := tr.record("e2e/round", 0, offset, offset+obs.wallNs)
	step := max(len(l.recv)/spanEvents, 1)
	var toRelease []float64
	for i := 0; i < len(l.recv); i += step {
		rc := &l.recv[i]
		if rc.kind != repro.DeliverEvent || rc.seq < 0 || rc.seq >= len(l.sent) || rc.seq >= len(l.acked) {
			continue
		}
		s, a := l.sent[rc.seq], l.acked[rc.seq]
		ev := tr.record("e2e.event", root, offset+s.due, offset+rc.at)
		tr.record("e2e.due_to_sent", ev, offset+s.due, offset+s.at)
		if a.at != 0 {
			tr.record("e2e.sent_to_acked", ev, offset+s.at, offset+a.at)
		}
		tr.record("e2e.sent_to_delivered", ev, offset+s.at, offset+rc.at)
		if at := obs.releases.releasedAt(rc.pubend, rc.ts); at != 0 {
			released := at - l.t0.UnixNano()
			tr.record("e2e.delivered_to_released", ev, offset+rc.at, offset+released)
			if l.paced.from <= s.due && s.due < l.paced.to {
				toRelease = append(toRelease, float64(released-rc.at)*msPerNs)
			}
		}
	}
	sort.Float64s(toRelease)
	return toRelease
}

// budget prints the workload's budget table and returns the residual in ms.
// On an open loop the figure is the untraced deliver_p50_ms and the rows are
// the layers an event passes through in series. On a closed loop the figure
// is the core time one event may use — cores ÷ events_per_s — and the rows
// are each layer's time per event.
func (r *run) budget(w io.Writer, rp *replay, plain measured) float64 {
	o := rp.out
	batch := float64(rp.batch())
	codecMs := o["message.codec_ns"] * 1e-6
	const hops = 4 // publisher → PHB → relay → SHB → S
	if !r.wl.closed() {
		rows := []budgetRow{
			{"pubend.publish", o["pubend.publish_us"] * 1e-3, 1, false, "publish to durable: stamp, log, index"},
			{"logvol.commit", o["logvol.commit_us"] * 1e-3, 1, true, "wait for the group commit's fsync"},
			{"overlay.hop", o["overlay.hop_us"] * 1e-3, hops, false, fmt.Sprintf("queue, write, read, dispatch of one %g-event frame", batch)},
			{"message.codec", codecMs * batch, hops, true, "encode + decode of that frame"},
			{"core.constream", rp.constreamFrameNs * 1e-6, 1, false, "the SHB's OnKnowledge for one frame"},
			{"matchidx.match", o["matchidx.match_ns"] * 1e-6 * batch, 1, true, "per frame"},
			{"pfs.write", o["pfs.write_ns"] * 1e-6 * batch, 1, true, "per frame"},
		}
		return printBudget(w, "deliver_p50_ms (untraced)", "ms", plain.metrics["deliver_p50_ms"].Value, rows)
	}
	perEventMs := ratio(float64(runtime.GOMAXPROCS(0)), plain.metrics["events_per_s"].Value) * 1e3
	rows := []budgetRow{
		{"pubend.publish (pipelined)", rp.pipelinedNs["pubend"] * 1e-6, 1, false, "replay wall time per publish at the workload's window"},
		{"logvol.commit (pipelined)", rp.pipelinedNs["logvol"] * 1e-6, 1, true, "replay wall time per append at the workload's window"},
		{"overlay.hop", o["overlay.hop_us"] * 1e-3 / batch, hops, false, fmt.Sprintf("one frame's hop shared by its %g events", batch)},
		{"message.codec", codecMs, hops, true, "encode + decode"},
		{"core.constream", rp.constreamFrameNs * 1e-6 / batch, 1, false, "the SHB's OnKnowledge, per event"},
		{"matchidx.match", o["matchidx.match_ns"] * 1e-6, 1, true, ""},
		{"pfs.write", o["pfs.write_ns"] * 1e-6, 1, true, ""},
	}
	return printBudget(w, fmt.Sprintf("core time per event = %d cores / events_per_s (untraced)", runtime.GOMAXPROCS(0)), "ms", perEventMs, rows)
}
