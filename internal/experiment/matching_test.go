package experiment

import "testing"

// TestMatchScaling is the matcher's regression gate: over the same
// population and event stream the counting index must agree with the
// linear scan on every match set (RunMatchScaling fails on divergence) and
// must be faster than it at the largest size, since sublinear growth is
// the whole point of the index.
func TestMatchScaling(t *testing.T) {
	res, err := RunMatchScaling(MatchScalingParams{Sizes: []int{1000, 4000}})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Points[len(res.Points)-1]
	if last.SpeedupX < 1 {
		t.Fatalf("indexed engine slower than linear at %d subs: %.0fns vs %.0fns",
			last.Subs, last.IndexedNsPerEvent, last.LinearNsPerEvent)
	}
	for _, pt := range res.Points {
		t.Logf("%d subs: indexed %.0fns linear %.0fns (%.1fx)",
			pt.Subs, pt.IndexedNsPerEvent, pt.LinearNsPerEvent, pt.SpeedupX)
	}
}
