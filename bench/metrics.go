package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
)

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// span is a half-open interval of run time, ns since t0.
type span struct{ from, to int64 }

// sliceLength is the length of one slice of a measured segment.
const sliceLength = 250 * time.Millisecond

// measured is what one run's log reduces to.
type measured struct {
	metrics     map[string]metric    // the end-to-end metrics
	diagnostics map[string]float64   // printed and stored, never bounded
	series      map[string][]float64 // the per-slice and per-cycle values the medians were taken over
	verdict     verdict
	attempted   int
	failed      int
	valid       bool // the open-loop generator kept its schedule
}

const msPerNs = 1e-6

// slices cuts a segment into pieces of about sliceLength. Each metric is
// computed per slice and the run reports the median slice, so that one stall
// — a slow fsync, a GC cycle, a neighbour on the host — moves one slice, not
// the run.
type slices struct {
	seg span
	n   int
	ns  int64
}

func sliceUp(seg span) slices {
	n := max(int((seg.to-seg.from)/int64(sliceLength)), 1)
	return slices{seg: seg, n: n, ns: (seg.to - seg.from) / int64(n)}
}

func (s slices) holds(at int64) bool { return at >= s.seg.from && at < s.seg.to }
func (s slices) of(at int64) int     { return min(int((at-s.seg.from)/s.ns), s.n-1) }

// perSlice applies f to every slice's sorted samples.
func perSlice(samples [][]float64, f func(sorted []float64) float64) []float64 {
	out := make([]float64, len(samples))
	for i, v := range samples {
		sort.Float64s(v)
		out[i] = f(v)
	}
	return out
}

// reduce turns a finished run's log into metrics and checks it against the
// reference model.
func reduce(in *inputs, l *runLog) measured {
	m := measured{metrics: map[string]metric{}, diagnostics: map[string]float64{}, series: map[string][]float64{}, valid: true}
	n := len(l.events) // events judged; the deep reconnect's are cut off below
	isEvent := func(r *received) bool { return r.kind == repro.DeliverEvent && r.seq >= 0 && r.seq < n }

	// Catchup: per cycle, the backlog S received between calling Connect and
	// the first delivery of an event published after that call.
	var cuRates []float64
	var cuEvents, failedCycles int
	for ci, cy := range l.cycles {
		until := int64(1) << 62
		if ci+1 < len(l.cycles) {
			until = l.cycles[ci+1].downAt
		} else if l.deep != nil {
			until = l.deep.downAt
		}
		events, rate := l.catchup(cy, until)
		if rate == 0 {
			failedCycles++
			continue
		}
		cuEvents += events
		cuRates = append(cuRates, rate)
	}
	if l.deep != nil {
		// The deep reconnect is a diagnostic: 0 means it did not catch up in
		// time. Nothing from it counts as a failure.
		_, m.diagnostics["deep_catchup_events_per_s"] = l.catchup(*l.deep, 1<<62)
		m.diagnostics["deep_backlog_events"] = float64(n - l.deepFrom)
		n = l.deepFrom
	}
	var connectMs []float64
	for _, cy := range l.cycles {
		connectMs = append(connectMs, float64(cy.connectedAt-cy.connectAt)*msPerNs)
	}
	m.diagnostics["reconnect_call_ms"] = median(connectMs)
	m.series["catchup_events_per_s"] = cuRates
	m.diagnostics["catchup_events_per_s"] = median(cuRates)
	m.diagnostics["catchup_cycles"] = float64(len(l.cycles))
	m.diagnostics["catchup_cycles_failed"] = float64(failedCycles)
	m.diagnostics["catchup_events"] = float64(cuEvents)

	// Latency comes from publishes due in the paced segment, throughput from
	// arrivals in the steady segment.
	paced, steady := sliceUp(l.paced), sliceUp(l.steady)
	deliver := make([][]float64, paced.n)
	ack := make([][]float64, paced.n)
	arrivals := make([]float64, steady.n)
	for i := range l.recv {
		r := &l.recv[i]
		if !isEvent(r) {
			continue
		}
		if steady.holds(r.at) {
			arrivals[steady.of(r.at)]++
		}
		if due := l.sent[r.seq].due; paced.holds(due) {
			deliver[paced.of(due)] = append(deliver[paced.of(due)], float64(r.at-due)*msPerNs)
		}
	}
	var late, lateAll []float64 // generator lateness in the paced segment, and over the whole run
	unacked := 0
	for seq := 0; seq < n; seq++ {
		s, a := l.sent[seq], acked{}
		if seq < len(l.acked) {
			a = l.acked[seq]
		}
		if a.at == 0 {
			unacked++
			continue
		}
		if s.scheduled {
			lateAll = append(lateAll, float64(s.at-s.due)*msPerNs)
		}
		if paced.holds(s.due) {
			late = append(late, float64(s.at-s.due)*msPerNs)
			ack[paced.of(s.due)] = append(ack[paced.of(s.due)], float64(a.at-s.due)*msPerNs)
		}
	}
	sort.Float64s(late)
	sort.Float64s(lateAll)
	samples := 0
	for _, v := range deliver {
		samples += len(v)
	}
	quantile := func(p float64) func([]float64) float64 {
		return func(sorted []float64) float64 { return percentile(sorted, p) }
	}
	rate := make([]float64, steady.n)
	for i, c := range arrivals {
		rate[i] = c / (float64(steady.ns) * 1e-9)
	}
	m.series["events_per_s"] = rate
	m.series["deliver_p50_ms"] = perSlice(deliver, quantile(0.50))
	m.series["deliver_p99_ms"] = perSlice(deliver, quantile(0.99))
	m.series["publish_ack_p50_ms"] = perSlice(ack, quantile(0.50))
	for _, name := range []string{"events_per_s", "deliver_p50_ms", "deliver_p99_ms"} {
		m.metrics[name] = metric{median(m.series[name]), unitOf(name)}
	}
	m.diagnostics["publish_ack_p50_ms"] = median(m.series["publish_ack_p50_ms"])
	m.diagnostics["publish_ack_p99_ms"] = median(perSlice(ack, quantile(0.99)))
	m.diagnostics["deliver_p99.9_ms"] = median(perSlice(deliver, quantile(0.999)))
	m.diagnostics["deliver_samples"] = float64(samples)
	m.diagnostics["deliver_slices"] = float64(paced.n)
	m.diagnostics["published"] = float64(n)
	// A paced segment whose generator ran late did not apply the load it
	// claims; the run is then marked invalid. Lateness over the whole run,
	// reconnect cycles included, is printed beside it.
	m.diagnostics["generator_late_p99_ms"] = percentile(late, 0.99)
	m.diagnostics["generator_late_whole_run_p99_ms"] = percentile(lateAll, 0.99)
	m.valid = percentile(late, 0.99) <= 1

	// The reference model: what S must have received, from the publish log
	// and S's filter alone.
	expected := make(map[repro.PubendID][]int)
	for i := range l.events[:n] {
		e := &l.events[i]
		if i < len(l.acked) && l.acked[i].at != 0 && in.sMatches(e) {
			expected[e.pubend] = append(expected[e.pubend], e.seq)
		}
	}
	judged := make([]received, 0, len(l.recv))
	for _, r := range l.recv {
		if r.kind == repro.DeliverEvent && r.seq >= n && l.deep != nil {
			continue // the deep reconnect's events are not judged
		}
		if isEvent(&r) && r.seq < len(l.acked) {
			r.intact = r.intact && r.ts == l.acked[r.seq].ts
		}
		judged = append(judged, r)
	}
	m.verdict = checkDeliveries(expected, judged)
	m.attempted = n + m.verdict.expected + len(l.cycles)
	m.failed = unacked + m.verdict.failures() + int(l.violations) + failedCycles
	m.diagnostics["failed_share"] = float64(m.failed) / float64(max(m.attempted, 1))
	m.diagnostics["unacked_publishes"] = float64(unacked)
	return m
}

// catchup measures one outage: the backlog events S received between calling
// Connect and the first delivery, before until, of an event published after
// that call, and their rate. A rate of 0 means S never caught up.
func (l *runLog) catchup(cy cycle, until int64) (events int, rate float64) {
	if cy.connectError != nil {
		return 0, 0
	}
	i := sort.Search(len(l.recv), func(i int) bool { return l.recv[i].at >= cy.downAt })
	for ; i < len(l.recv) && l.recv[i].at < until; i++ {
		r := &l.recv[i]
		if r.kind != repro.DeliverEvent || r.seq < 0 || r.seq >= len(l.sent) {
			continue
		}
		if l.sent[r.seq].at >= cy.connectAt {
			return events, float64(events) / (float64(r.at-cy.connectAt) * 1e-9)
		}
		events++
	}
	return events, 0
}

// peakRSSMB is the process's high-water resident set, from the kernel.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
