package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
)

// Tracing is done from outside the program: spans are recorded around the
// benchmark's own calls into each layer's exported API, and around the stage
// boundaries of an event that a client can see. Spans stay in memory and are
// written when the run ends.

// spanRec is one span. Parent is the id of the span that caused it; 0 is the
// run's root.
type spanRec struct {
	id, parent int32
	name       string
	start, end int64 // ns since the tracer's t0
}

type tracer struct {
	workload string
	t0       time.Time
	spans    []spanRec
}

func newTracer(workload string) *tracer {
	t := &tracer{workload: workload, t0: time.Now()}
	t.spans = append(t.spans, spanRec{id: 0, parent: -1, name: "run"})
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// start opens a span and returns its id.
func (t *tracer) start(name string, parent int32) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, spanRec{id: id, parent: parent, name: name, start: t.now()})
	return id
}

// finish closes a span and returns its duration in ns.
func (t *tracer) finish(id int32) int64 {
	s := &t.spans[id]
	s.end = t.now()
	return s.end - s.start
}

// record adds a span whose boundaries were observed elsewhere (ns since
// the tracer's t0).
func (t *tracer) record(name string, parent int32, start, end int64) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, spanRec{id: id, parent: parent, name: name, start: start, end: end})
	return id
}

// durations returns the sorted durations, in ns, of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	sort.Float64s(out)
	return out
}

func sum(v []float64) float64 {
	total := 0.0
	for _, x := range v {
		total += x
	}
	return total
}

func mean(v []float64) float64 { return ratio(sum(v), float64(len(v))) }

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.spans[0].end = t.now()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := range t.spans {
		s := &t.spans[i]
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"workload":%q}`+"\n",
			s.id, s.parent, s.name, s.start, s.end, t.workload)
	}
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // the flush error is the one to report
		return err
	}
	return f.Close()
}

// scrape reads the program's own counters through repro.WriteMetrics and
// sums each metric over its labels: the three brokers share one registry, so
// per-broker values cannot be told apart from outside anyway. Histogram
// buckets are skipped; _sum and _count are kept.
func scrape() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := repro.WriteMetrics(&buf); err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	out := map[string]float64{}
	for {
		line, err := buf.ReadString('\n')
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			sp := strings.LastIndexByte(line, ' ')
			if sp > 0 {
				name := line[:sp]
				if i := strings.IndexByte(name, '{'); i >= 0 {
					name = name[:i]
				}
				if v, perr := strconv.ParseFloat(line[sp+1:], 64); perr == nil && !strings.HasSuffix(name, "_bucket") {
					out[name] += v
				}
			}
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// delta is after minus before, per counter.
func delta(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// releaseWatch polls the PHB's released(p) horizon during a traced round, so
// that the time from a delivery to the moment storage for it may be reclaimed
// can be read off afterwards. It is the traced run's only extra load.
type releaseWatch struct {
	stop chan struct{}
	done chan struct{}
	// marks[p] are the moments released(p) was seen to advance, in order.
	marks map[repro.PubendID][]releaseMark
}

type releaseMark struct {
	at       int64 // Unix ns
	released repro.Timestamp
}

func watchReleases(c *cluster, pubends []repro.PubendID) *releaseWatch {
	w := &releaseWatch{stop: make(chan struct{}), done: make(chan struct{}), marks: map[repro.PubendID][]releaseMark{}}
	go func() {
		defer close(w.done)
		last := map[repro.PubendID]repro.Timestamp{}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
			for _, p := range pubends {
				if r := c.phb.Pubend(p).Released(); r > last[p] {
					last[p] = r
					w.marks[p] = append(w.marks[p], releaseMark{at: time.Now().UnixNano(), released: r})
				}
			}
		}
	}()
	return w
}

// close stops the poller and waits for it.
func (w *releaseWatch) close() {
	close(w.stop)
	<-w.done
}

// releasedAt is when, in Unix ns, released(p) was first seen at or past ts; 0
// if never.
func (w *releaseWatch) releasedAt(p repro.PubendID, ts repro.Timestamp) int64 {
	marks := w.marks[p]
	i := sort.Search(len(marks), func(i int) bool { return marks[i].released >= ts })
	if i == len(marks) {
		return 0
	}
	return marks[i].at
}

// budgetRow is one line of the budget table: a layer's time on the path of
// the end-to-end figure, and how many times an event pays it. A row marked
// inside is part of the row above it: it is shown with its share but not added
// again.
type budgetRow struct {
	name   string
	each   float64 // in the table's unit
	times  float64
	inside bool
	note   string
}

// printBudget prints the rows, their shares of total, and what is left as
// broker.residual — the part no measured layer accounts for.
func printBudget(w io.Writer, title, unit string, total float64, rows []budgetRow) float64 {
	fmt.Fprintf(w, "  budget: %s = %.4f %s\n", title, total, unit)
	explained := 0.0
	for _, r := range rows {
		cost := r.each * r.times
		name := r.name
		if r.inside {
			name = "  of which " + name
		} else {
			explained += cost
		}
		fmt.Fprintf(w, "    %-30s %10.4f %s x%-3g = %10.4f  %5.1f%%  %s\n", name, r.each, unit, r.times, cost, 100*ratio(cost, total), r.note)
	}
	residual := total - explained
	fmt.Fprintf(w, "    %-30s %33.4f  %5.1f%%  %s\n", "broker.residual", residual, 100*ratio(residual, total),
		"unexplained: tick cadence, queueing, scheduling")
	return residual
}
