package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is one end-to-end metric's contract: its unit, which way is better,
// and the share of the base's median by which it may worsen. BENCHMARK.json
// carries the same table; a test holds the two together.
type spec struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
}

var endToEndSpecs = []spec{
	{"events_per_s", "ev/s", true, 0.25},
	{"deliver_p50_ms", "ms", false, 0.25},
	{"deliver_p99_ms", "ms", false, 0.25},
	{"setup_s", "s", false, 0.25},
}

func specOf(name string) (spec, bool) {
	for _, s := range endToEndSpecs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func unitOf(name string) string {
	sp, _ := specOf(name)
	return sp.unit
}

// side is one file's runs of one (workload, metric).
type side []float64

func (s side) summary() (med, q1, q3, mean, sd float64) {
	med = median(s)
	q1, q3 = quartiles(s)
	var w welford
	for _, v := range s {
		w.add(v)
	}
	return med, q1, q3, w.mean, w.stddev()
}

// spread is the interquartile distance as a share of the median.
func (s side) spread() float64 {
	med, q1, q3, _, _ := s.summary()
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// verdict words, one per row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse than bound"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved (spread wider than the bound)"
	verdictUnbounded  = "no bound"
)

// judge compares b against base a for one bounded metric.
func judge(sp spec, a, b side) string {
	if a.spread() > sp.bound || b.spread() > sp.bound {
		return verdictUnresolved
	}
	ma, mb := median(a), median(b)
	if ma == 0 {
		return verdictUnresolved
	}
	worsening := (mb - ma) / ma
	if sp.higher {
		worsening = -worsening
	}
	switch {
	case worsening > sp.bound:
		return verdictWorse
	case -worsening > a.spread(): // improved by more than the base's own run-to-run spread
		return verdictBetter
	default:
		return verdictWithin
	}
}

type rowKey struct {
	workload string
	trace    int
	metric   string
}

func loadResults(path string) (map[rowKey]side, map[rowKey]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	sides := map[rowKey]side{}
	units := map[rowKey]string{}
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var r result
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, m := range r.Metrics {
			k := rowKey{r.Workload, r.Trace, name}
			sides[k] = append(sides[k], m.Value)
			units[k] = m.Unit
		}
	}
	if len(sides) == 0 {
		return nil, nil, fmt.Errorf("%s: no results", path)
	}
	return sides, units, nil
}

func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: bench compare <a.jsonl> <b.jsonl>   (a is the base)")
	}
	a, units, err := loadResults(args[0])
	if err != nil {
		return err
	}
	b, _, err := loadResults(args[1])
	if err != nil {
		return err
	}
	return compare(os.Stdout, a, b, units)
}

// compare prints one row per (workload, metric) present on both sides; a
// workload's numbers are never folded into another's.
func compare(w io.Writer, a, b map[rowKey]side, units map[rowKey]string) error {
	var keys []rowKey
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return errors.New("the two files share no (workload, metric) pair")
	}
	sort.Slice(keys, func(i, j int) bool {
		x, y := keys[i], keys[j]
		if x.trace != y.trace {
			return x.trace < y.trace
		}
		if x.workload != y.workload {
			return x.workload < y.workload
		}
		return x.metric < y.metric
	})
	last := ""
	for _, k := range keys {
		if head := fmt.Sprintf("%s (trace %d)", k.workload, k.trace); head != last {
			fmt.Fprintf(w, "\n%s\n", head)
			last = head
		}
		sa, sb := a[k], b[k]
		ma, q1a, q3a, meana, sda := sa.summary()
		mb, q1b, q3b, meanb, sdb := sb.summary()
		verdict := verdictUnbounded
		bound := ""
		if sp, ok := specOf(k.metric); ok && k.trace == 0 {
			verdict = judge(sp, sa, sb)
			dir := "lower"
			if sp.higher {
				dir = "higher"
			}
			bound = fmt.Sprintf(" [%s is better, bound %.2f]", dir, sp.bound)
		}
		ratio := "n/a"
		if ma != 0 {
			ratio = fmt.Sprintf("%.3f", mb/ma)
		}
		fmt.Fprintf(w, "  %-28s %s%s\n", k.metric, verdict, bound)
		fmt.Fprintf(w, "      a: median %.4g [q1 %.4g, q3 %.4g] mean %.4g ± %.3g  n=%d  %s\n", ma, q1a, q3a, meana, sda, len(sa), units[k])
		fmt.Fprintf(w, "      b: median %.4g [q1 %.4g, q3 %.4g] mean %.4g ± %.3g  n=%d\n", mb, q1b, q3b, meanb, sdb, len(sb))
		fmt.Fprintf(w, "      b/a = %s  (base: a's median %.4g %s)\n", ratio, ma, units[k])
	}
	return nil
}
