package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWorkloadsQuick runs every workload at -quick scale, untraced and
// traced, and asserts only that the checker passes and every named metric is
// emitted: it keeps the harness compiling and honest, not fast or slow.
func TestWorkloadsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("starts brokers and fsyncs")
	}
	data := filepath.Join(".bench_build", "test-data")
	t.Cleanup(func() { os.RemoveAll(data) })
	for _, wl := range workloads {
		for trace, specs := range [][]spec{endToEndSpecs, perLayer} {
			name := wl.name + map[int]string{0: "", 1: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				res, err := runWorkload(context.Background(), options{
					workload: wl.name, seed: 1, seconds: 1.5, trace: trace, quick: true,
					dataDir: data, spans: filepath.Join(t.TempDir(), "spans.jsonl"),
				}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Errorf("checker: correct=%v failed=%d of %d: %v", res.Correct, res.Failed, res.Attempted, res.Verdict)
				}
				if res.Attempted < 1 || res.Verdict["expected"] == 0 {
					t.Errorf("nothing attempted: %d, %v", res.Attempted, res.Verdict)
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, sp := range specs {
					m, ok := res.Metrics[sp.name]
					if !ok {
						t.Errorf("metric %s not emitted", sp.name)
					} else if m.Unit != sp.unit {
						t.Errorf("metric %s has unit %q, want %q", sp.name, m.Unit, sp.unit)
					} else if trace == 0 && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", sp.name, m.Value)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONAgrees holds BENCHMARK.json to the tables the code uses.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if got := doc.Workloads[i]; got.Name != wl.name || got.Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, got.Name, got.Why, wl.name, wl.why)
		}
		if len(wl.why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200", wl.name, len(wl.why))
		}
	}
	same := func(kind string, got []entry, want []spec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, sp := range want {
			better := map[bool]string{true: "higher", false: "lower"}[sp.higher]
			g := got[i]
			if g.Name != sp.name || g.Unit != sp.unit || g.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the code %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, sp.name, sp.unit, better)
			}
			if bounded && (g.Bound == nil || *g.Bound != sp.bound) {
				t.Errorf("%s %s: bound differs from the code's %v", kind, sp.name, sp.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics have no bound", kind, sp.name)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndSpecs, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}
