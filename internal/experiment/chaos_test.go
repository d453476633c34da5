package experiment

import (
	"testing"
	"time"
)

// Reduced-scale topology chaos: 6 brokers (1 PHB + 2 mids + 3 SHBs), two
// crashes and two live re-parents under traffic. RunTopologyChaos's
// defaults (12 brokers, 5 kills + 5 re-parents) are the full-size run.
func TestTopologyChaosSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	res, err := RunTopologyChaos(t.TempDir(), TopologyChaosParams{
		Mids:      2,
		SHBs:      3,
		Kills:     2,
		Reparents: 2,
		Rate:      300,
		Step:      80 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("chaos: %v (%+v)", err, res)
	}
	if res.Brokers != 6 {
		t.Errorf("brokers = %d, want 6", res.Brokers)
	}
	if res.Kills != 2 || res.Reparents != 2 || res.Restarts != res.Kills {
		t.Errorf("mutations: %+v", res)
	}
	if !res.Healthy || !res.AllDelivered || res.Gaps != 0 || res.Violations != 0 {
		t.Errorf("invariants: %+v", res)
	}
	if res.Published == 0 {
		t.Errorf("nothing published: %+v", res)
	}
}

// The operator-driven chaos must stay green with automatic fail-over
// armed: driver kills/re-parents and self-healing race each other, and
// exactly-once still holds.
func TestTopologyChaosWithFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	res, err := RunTopologyChaos(t.TempDir(), TopologyChaosParams{
		Mids:      2,
		SHBs:      3,
		Kills:     2,
		Reparents: 2,
		Rate:      300,
		Step:      80 * time.Millisecond,
		Failover:  true,
	})
	if err != nil {
		t.Fatalf("chaos with failover: %v (%+v)", err, res)
	}
	if !res.Healthy || !res.AllDelivered || res.Gaps != 0 || res.Violations != 0 {
		t.Errorf("invariants: %+v", res)
	}
}
