package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro"
)

// payloadBytes is the paper's event payload size.
const payloadBytes = 418

// sID is the one connected subscriber; detached subscriptions count up from
// firstDetachedID.
const (
	sID             = repro.SubscriberID(1)
	firstDetachedID = repro.SubscriberID(1000)
)

// workload is one named traffic mix. Every workload runs the same timeline —
// set-up, warm-up, a steady phase with S connected, then reconnect cycles —
// so every end-to-end metric is defined on every workload; what differs is
// the loop type, the rate, the durable population and the cache sizes.
type workload struct {
	name string
	why  string

	// rate > 0 makes the loop open: one publish is due every 1/rate seconds
	// whatever the system does. rate == 0 makes it closed: at most window
	// events are published and not yet delivered to S (not yet acked, while
	// S is down).
	rate   int
	window int
	// pacedRate is the open-loop rate of a closed-loop workload's latency
	// segment: latency under a closed loop is only window/throughput, so the
	// latency metrics are sampled at a fixed low rate against the same
	// population instead.
	pacedRate int

	pubends  int
	groups   int // events carry a seeded group id in [0, groups)
	detached int // detached durable subscriptions, spread evenly over groups
	// sGroups is how many groups S subscribes to (== groups: filter "true").
	sGroups int

	// cacheSize sets EventCacheSize and RelayCacheSize; 0 leaves both at the
	// program's defaults.
	cacheSize int

	// steadyShare is the part of the measured window spent in the steady
	// phase; the rest is reconnect cycles: S is down while backlog events
	// are published, reconnects, and once caught up stays up for upSeconds.
	steadyShare float64
	backlog     int
	upSeconds   float64
}

var workloads = []workload{
	{
		name: "live-paced",
		why:  "open loop at 5% load: latency is logvol commit wait, overlay hops and broker tick cadence; matchidx, pfs and metastore idle",
		rate: 2000, pubends: 1, groups: 1, sGroups: 1,
		steadyShare: 0.75, backlog: 1000, upSeconds: 0.2,
	},
	{
		name:   "live-flood",
		why:    "closed loop, no durable population: per-event CPU of codec, overlay, shard loops and logvol batching; by-pass for matchidx/pfs/metastore changes",
		window: 128, pacedRate: 2000, pubends: 2, groups: 1, sGroups: 1,
		steadyShare: 0.8, backlog: 16384, upSeconds: 0.2,
	},
	{
		name:   "durable-fanout",
		why:    "live-flood plus detached durable subscriptions matching ~20 per event: adds matchidx match, pfs back-pointer writes, core fan-out and metastore rows",
		window: 128, pacedRate: 2000, pubends: 2, groups: 50, detached: 1000, sGroups: 50,
		steadyShare: 0.8, backlog: 8192, upSeconds: 0.2,
	},
	{
		name: "reconnect-cycle",
		why:  "open loop with outages 1.5x the event caches: the read side: pfs batch read, catchup scheduler, nack consolidation, relay cache, ServeNack, logvol reads",
		rate: 4000, pubends: 1, groups: 4, detached: 256, sGroups: 2,
		cacheSize:   4096,
		steadyShare: 0.55, backlog: 6000, upSeconds: 0.5,
	},
}

// quickScale shrinks a workload to the -quick size: the same phases at a
// fraction of the population, backlog and open-loop rate, so that a run of a
// second or two passes through all of them, even under the race detector.
// Cache sizes stay, so every backlog fits its cache: quick runs check the
// harness, not the cold catchup path.
func quickScale(w workload) workload {
	if w.detached > 200 {
		w.detached = 200
	}
	w.rate /= 4
	w.pacedRate /= 4
	w.backlog /= 8
	w.upSeconds = 0.25
	return w
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// closed reports whether the loop is closed.
func (w workload) closed() bool { return w.rate == 0 }

// mainMode is the publisher mode of the workload's own loop with S up.
func (w workload) mainMode() mode {
	if w.closed() {
		return mode{rule: ruleDelivery}
	}
	return mode{rule: ruleNone, interval: int64(time.Second) / int64(w.rate)}
}

// filterKind is one of the three matchidx structures a detached
// subscription's filter lands in.
type filterKind uint8

const (
	kindEq      filterKind = iota // g = G                 (equality bucket)
	kindEqRange                   // g = G and v >= lo     (equality anchor + range residual)
	kindPrefix                    // prefix(topic, "gG/")  (prefix trie)
)

// subSpec is a generated subscription in structured form: src is what the
// program parses, matches is the benchmark's own evaluation of the same
// predicate, so the reference model never asks the program what matched.
type subSpec struct {
	id    repro.SubscriberID
	kind  filterKind
	group int
	lo    int // kindEqRange: v >= lo
}

func (s subSpec) src() string {
	switch s.kind {
	case kindEqRange:
		return fmt.Sprintf("g = %d and v >= %d", s.group, s.lo)
	case kindPrefix:
		return fmt.Sprintf("prefix(topic, %q)", topicPrefix(s.group))
	default:
		return fmt.Sprintf("g = %d", s.group)
	}
}

func (s subSpec) matches(e *genEvent) bool {
	if e.group != s.group {
		return false
	}
	return s.kind != kindEqRange || e.v >= s.lo
}

func topicPrefix(group int) string { return fmt.Sprintf("g%03d/", group) }

// genEvent is one generated publish.
type genEvent struct {
	seq    int
	pubend repro.PubendID
	group  int
	v      int
}

// inputs is everything the brokers will see, derived from the seed alone.
type inputs struct {
	w       workload
	pool    []byte    // random bytes payloads are sliced from
	subs    []subSpec // detached population
	sFilter string
	rng     *rand.Rand // event stream state
	topics  []string   // per-group topic strings, so publishing allocates no strings
}

func newInputs(w workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{w: w, rng: rng}
	in.pool = make([]byte, 1<<16)
	rng.Read(in.pool)
	for i := 0; i < w.detached; i++ {
		s := subSpec{
			id:    firstDetachedID + repro.SubscriberID(i),
			kind:  filterKind(rng.Intn(3)),
			group: i % w.groups,
		}
		if s.kind == kindEqRange {
			s.lo = rng.Intn(200) // v is uniform in [0,1000): ~90% of the group's events
		}
		in.subs = append(in.subs, s)
	}
	if w.sGroups >= w.groups {
		in.sFilter = "true"
	} else {
		in.sFilter = fmt.Sprintf("g < %d", w.sGroups)
	}
	for g := 0; g < w.groups; g++ {
		in.topics = append(in.topics, topicPrefix(g)+"t")
	}
	return in
}

// sMatches is S's filter evaluated by the benchmark.
func (in *inputs) sMatches(e *genEvent) bool { return e.group < in.w.sGroups }

// next generates event seq. Events must be generated in seq order.
func (in *inputs) next(seq int) genEvent {
	return genEvent{
		seq:    seq,
		pubend: repro.PubendID(seq%in.w.pubends + 1),
		group:  in.rng.Intn(in.w.groups),
		v:      in.rng.Intn(1000),
	}
}

// payload is the deterministic payload of event seq.
func (in *inputs) payload(seq int) []byte {
	off := (seq * 131) % (len(in.pool) - payloadBytes)
	return in.pool[off : off+payloadBytes]
}

// event renders a generated event for publishing.
func (in *inputs) event(e *genEvent) repro.Event {
	return repro.Event{
		Attrs: repro.Attributes{
			"seq":   repro.Int(int64(e.seq)),
			"g":     repro.Int(int64(e.group)),
			"v":     repro.Int(int64(e.v)),
			"topic": repro.String(in.topics[e.group]),
		},
		Payload: in.payload(e.seq),
	}
}

// phases is the run's timeline in wall time. The steady part takes
// steadyShare of the measured window — on a closed-loop workload split evenly
// between the paced latency segment and the workload's own loop — and
// reconnect cycles, always at least one, always whole, fill the rest.
type phases struct {
	warmup time.Duration
	paced  time.Duration // 0 on an open-loop workload: its own loop is the paced segment
	steady time.Duration
	window time.Duration
}

func (w workload) timeline(seconds float64, quick bool) phases {
	p := phases{warmup: time.Second, window: time.Duration(seconds * float64(time.Second))}
	if quick {
		p.warmup = 200 * time.Millisecond
	}
	p.steady = time.Duration(float64(p.window) * w.steadyShare)
	if w.closed() {
		p.paced = p.steady / 2
		p.steady -= p.paced
	}
	return p
}
