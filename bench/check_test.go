package main

import (
	"testing"

	"repro"
)

// stream builds in-order, intact event deliveries of the given seqs.
func stream(seqs ...int) []received {
	var out []received
	for _, s := range seqs {
		out = append(out, received{kind: repro.DeliverEvent, pubend: 1, seq: s, intact: true})
	}
	return out
}

func TestCheckerCountsEachDeparture(t *testing.T) {
	want := map[repro.PubendID][]int{1: {10, 11, 12, 13, 14, 15, 16, 17, 18, 19}}

	if v := checkDeliveries(want, stream(10, 11, 12, 13, 14, 15, 16, 17, 18, 19)); v.failures() != 0 || v.delivered != 10 {
		t.Fatalf("clean stream: %+v", v)
	}

	// 12 dropped, 14 duplicated, 16 and 17 swapped, and a gap delivery.
	got := stream(10, 11, 13, 14, 14, 15, 17, 16, 18)
	got = append(got, received{kind: repro.DeliverGap, pubend: 1})
	got = append(got, stream(19)...)
	v := checkDeliveries(want, got)
	if v.lost != 1 || v.duplicate != 1 || v.reordered != 1 || v.gaps != 1 {
		t.Fatalf("want one each of lost, duplicate, reordered, gap; got %+v", v)
	}
	if v.spurious != 0 || v.corrupt != 0 || v.expected != 10 || v.delivered != 8 {
		t.Fatalf("unexpected side counts: %+v", v)
	}
	if v.failures() != 4 {
		t.Fatalf("failures = %d, want 4", v.failures())
	}
}

func TestCheckerOtherDepartures(t *testing.T) {
	want := map[repro.PubendID][]int{1: {1, 3, 5}, 2: {2, 4}}
	got := stream(1, 3, 5)
	got[1].intact = false                                                                  // right event, wrong bytes
	got = append(got, received{kind: repro.DeliverEvent, pubend: 1, seq: 4, intact: true}) // not S's on this pubend
	got = append(got, received{kind: repro.DeliverEvent, pubend: 3, seq: 9, intact: true}) // pubend nothing was expected from
	v := checkDeliveries(want, got)
	if v.corrupt != 1 || v.spurious != 2 {
		t.Fatalf("want 1 corrupt, 2 spurious; got %+v", v)
	}
	if v.lost != 2 { // pubend 2's events never arrived
		t.Fatalf("want 2 lost; got %+v", v)
	}
	if v.expected != 5 {
		t.Fatalf("expected = %d, want 5", v.expected)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	sp := spec{name: "deliver_p50_ms", unit: "ms", bound: 0.10}
	steady := func(center float64) side {
		return side{center * 0.99, center, center * 1.01, center, center * 0.995, center * 1.005}
	}
	noisy := side{1, 2, 3, 4, 5, 6}
	for _, c := range []struct {
		name string
		a, b side
		want string
	}{
		{"same", steady(3), steady(3.05), verdictWithin},
		{"worse", steady(3), steady(3.6), verdictWorse},
		{"better", steady(3), steady(2.5), verdictBetter},
		{"noisy", steady(3), noisy, verdictUnresolved},
	} {
		if got := judge(sp, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %q, want %q", c.name, got, c.want)
		}
	}
	up := spec{name: "events_per_s", higher: true, bound: 0.10}
	if got := judge(up, steady(1000), steady(800)); got != verdictWorse {
		t.Errorf("higher-is-better drop: judge = %q", got)
	}
	if got := judge(up, steady(1000), steady(1200)); got != verdictBetter {
		t.Errorf("higher-is-better rise: judge = %q", got)
	}
}
