// Command bench is the repository's benchmark: four named workloads against
// a real PHB → relay → SHB tree over loopback TCP with real fsyncs, checked
// for exactly-once delivery on every run. See README.md in this directory.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [-quick] [-out results.jsonl]
//	bench compare <a.jsonl> <b.jsonl>
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A run is rounds independent rounds, each on a freshly set-up system, and
// reports the median round. A cluster's three tick timers keep whatever
// relative phase they started with, its log files land wherever the disk put
// them; one round samples one such draw, and the median of a few is what
// holds still from run to run.
const rounds = 3

// A set-up that takes milliseconds is repeated — up to maxSetUps times per
// round, until setUpBudget is spent — so that setup_s, the median over all of
// a run's set-ups, is not one timer reading.
const (
	maxSetUps   = 16
	setUpBudget = 300 * time.Millisecond
)

// result is one run, as stored in a results file and compared by `bench
// compare`.
type result struct {
	Workload    string               `json:"workload"`
	Why         string               `json:"why"`
	Loop        string               `json:"loop"`
	Seed        int64                `json:"seed"`
	Seconds     float64              `json:"seconds"`
	Rounds      int                  `json:"rounds"`
	Warmup      float64              `json:"warmup_seconds"`
	Trace       int                  `json:"trace"`
	Quick       bool                 `json:"quick"`
	Stamp       stamp                `json:"environment"`
	CacheSizes  map[string]int       `json:"non_default_config"`
	Correct     bool                 `json:"correct"`
	Valid       bool                 `json:"generator_valid"`
	Attempted   int                  `json:"attempted"`
	Failed      int                  `json:"failed"`
	Verdict     map[string]int       `json:"verdict"`
	Metrics     map[string]metric    `json:"metrics"`
	Diagnostics map[string]float64   `json:"diagnostics"`
	Series      map[string][]float64 `json:"series"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(2)
		}
		return
	}
	if err := runMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	out      string
	spans    string
	dataDir  string
}

func runMain(args []string) error {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name: live-paced, live-flood, durable-fanout, reconnect-cycle")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured window")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics, span file and budget table")
	fs.BoolVar(&o.quick, "quick", false, "smoke-test scale: small population and backlog")
	fs.StringVar(&o.out, "out", "", "append the full result to this JSON-lines file")
	fs.StringVar(&o.spans, "spans", "", "traced mode: write the span file here (default .bench_build/spans/<workload>-seed<n>.jsonl)")
	fs.StringVar(&o.dataDir, "data", ".bench_build/data", "directory for broker state (real disk; tmpfs is refused)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := runWorkload(context.Background(), o, os.Stdout)
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := appendResult(o.out, res); err != nil {
			return err
		}
	}
	// The contract's line: last on stdout, exactly these four keys.
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func appendResult(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close() //nolint:errcheck // the encode error is the one to report
		return err
	}
	return f.Close()
}

// run is the state shared by the rounds of one invocation.
type run struct {
	o   options
	wl  workload
	tl  phases
	dir string
	res *result

	setupSeconds []float64
	// One value per round, by metric and by diagnostic name.
	metricRounds, diagRounds map[string][]float64
}

// runWorkload sets the system up, runs the workload and reduces its log. The
// report goes to w; the returned result carries the same numbers.
func runWorkload(ctx context.Context, o options, w io.Writer) (*result, error) {
	wl, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.quick {
		wl = quickScale(wl)
	}
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.dataDir, wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch state
	fsName, err := filesystem(dir)
	if err != nil {
		return nil, err
	}

	r := &run{o: o, wl: wl, tl: wl.timeline(o.seconds/rounds, o.quick), dir: dir,
		metricRounds: map[string][]float64{}, diagRounds: map[string][]float64{}}
	r.res = &result{
		Workload: wl.name, Why: wl.why, Loop: "open", Seed: o.seed, Seconds: o.seconds, Rounds: rounds,
		Warmup: r.tl.warmup.Seconds(), Trace: o.trace, Quick: o.quick, Stamp: newStamp(fsName),
		CacheSizes: map[string]int{"EventCacheSize": wl.cacheSize, "RelayCacheSize": wl.cacheSize},
		Correct:    true, Valid: true,
		Verdict: map[string]int{}, Metrics: map[string]metric{},
		Diagnostics: map[string]float64{}, Series: map[string][]float64{},
	}
	if wl.closed() {
		r.res.Loop = "closed"
	}
	if o.trace != 0 {
		err = r.traced(ctx, w)
	} else {
		err = r.untraced(ctx)
	}
	if err != nil {
		return nil, err
	}
	report(w, r.res)
	return r.res, nil
}

// round sets up a fresh system, plays the timeline on it once, tears it down
// and folds what it saw into the result. watch, if not nil, is called with
// the driver between set-up and the timeline and returns a function to call
// when the timeline is over, before the system is torn down.
func (r *run) round(ctx context.Context, round int, watch func(*driver) func()) (*runLog, measured, error) {
	in := newInputs(r.wl, r.o.seed*rounds+int64(round))
	var d *driver
	var spent time.Duration
	for i := 0; i == 0 || (i < maxSetUps && spent < setUpBudget); i++ {
		if d != nil {
			d.close()
		}
		var took time.Duration
		var err error
		d, took, err = setUp(ctx, filepath.Join(r.dir, fmt.Sprintf("round%d-setup%d", round, i)), in)
		if err != nil {
			return nil, measured{}, err
		}
		spent += took
		r.setupSeconds = append(r.setupSeconds, took.Seconds())
	}
	defer d.close()
	unwatch := func() {}
	if watch != nil {
		unwatch = watch(d)
	}
	l := d.run(ctx, r.tl)
	unwatch()
	m := reduce(in, l)

	res := r.res
	for name, v := range m.metrics {
		r.metricRounds[name] = append(r.metricRounds[name], v.Value)
	}
	for name, v := range m.diagnostics {
		r.diagRounds[name] = append(r.diagRounds[name], v)
	}
	for name, v := range m.series {
		res.Series[name] = append(res.Series[name], v...)
	}
	res.Attempted += m.attempted
	res.Failed += m.failed
	res.Correct = res.Correct && m.failed == 0 && l.drained
	res.Valid = res.Valid && m.valid
	v := m.verdict
	for name, n := range map[string]int{
		"expected": v.expected, "delivered": v.delivered, "lost": v.lost, "duplicate": v.duplicate,
		"reordered": v.reordered, "gaps": v.gaps, "spurious": v.spurious, "corrupt": v.corrupt,
	} {
		res.Verdict[name] += n
	}
	return l, m, nil
}

// untraced plays the rounds and reports each end-to-end metric's median
// round.
func (r *run) untraced(ctx context.Context) error {
	for round := 0; round < rounds; round++ {
		if _, _, err := r.round(ctx, round, nil); err != nil {
			return err
		}
	}
	res := r.res
	for name, v := range r.metricRounds {
		res.Metrics[name] = metric{median(v), unitOf(name)}
	}
	for name, v := range r.diagRounds {
		res.Diagnostics[name] = median(v)
	}
	res.Metrics["setup_s"] = metric{median(r.setupSeconds), "s"}
	res.Diagnostics["setups"] = float64(len(r.setupSeconds))
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	res.Diagnostics["peak_rss_mb"] = rss
	for _, sp := range endToEndSpecs {
		if _, ok := res.Metrics[sp.name]; !ok {
			return fmt.Errorf("workload %s produced no %s", r.wl.name, sp.name)
		}
	}
	return nil
}

// report prints a result for people: every metric by name with its unit.
func report(w io.Writer, r *result) {
	fmt.Fprintf(w, "workload %s (%s loop) seed=%d seconds=%g in %d rounds, warmup=%gs each, trace=%d quick=%v\n",
		r.Workload, r.Loop, r.Seed, r.Seconds, r.Rounds, r.Warmup, r.Trace, r.Quick)
	s := r.Stamp
	fmt.Fprintf(w, "  machine: nproc=%d GOMAXPROCS=%d cpu=%q fs=%s go=%s commit=%s\n",
		s.NProc, s.GOMAXPROCS, s.CPU, s.Filesystem, s.GoVersion, s.Commit)
	fmt.Fprintf(w, "  network: %s\n", s.Network)
	fmt.Fprintf(w, "  non-default config: EventCacheSize=%d RelayCacheSize=%d (0 = program default)\n",
		r.CacheSizes["EventCacheSize"], r.CacheSizes["RelayCacheSize"])
	for _, name := range sortedKeys(r.Metrics) {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	for _, name := range sortedKeys(r.Diagnostics) {
		fmt.Fprintf(w, "  (%s)%*s %14.4f\n", name, max(0, 26-len(name)), "", r.Diagnostics[name])
	}
	fmt.Fprintf(w, "  checker: %v  attempted=%d failed=%d generator_valid=%v\n", r.Verdict, r.Attempted, r.Failed, r.Valid)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
