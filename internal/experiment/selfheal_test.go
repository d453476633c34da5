package experiment

import (
	"testing"
	"time"
)

// Reduced-scale self-healing run: 8 brokers (1 PHB + 3 mids + 4 SHBs),
// three kills of which one is permanent, zero driver re-parents.
// RunSelfHealing's defaults (12 brokers, 5 kills) are the full-size run.
func TestSelfHealingSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run in -short mode")
	}
	res, err := RunSelfHealing(t.TempDir(), SelfHealingParams{
		Mids:           3,
		SHBs:           4,
		Kills:          3,
		PermanentKills: 1,
		Rate:           300,
		Step:           80 * time.Millisecond,
		KillDown:       200 * time.Millisecond,
		FailoverAfter:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("self-healing: %v (%+v)", err, res)
	}
	if res.Brokers != 8 {
		t.Errorf("brokers = %d, want 8", res.Brokers)
	}
	if res.Kills != 3 || res.PermanentKills != 1 || res.Restarts != res.Kills-res.PermanentKills {
		t.Errorf("kill schedule: %+v", res)
	}
	if res.Failovers == 0 || res.Repairs == 0 {
		t.Errorf("no automatic repairs recorded: %+v", res)
	}
	if res.RepairP50Ms <= 0 || res.RepairP99Ms < res.RepairP50Ms {
		t.Errorf("repair percentiles not sane: %+v", res)
	}
	if !res.Healthy || !res.AllDelivered || res.Gaps != 0 || res.Violations != 0 {
		t.Errorf("invariants: %+v", res)
	}
	if res.Published == 0 {
		t.Errorf("nothing published: %+v", res)
	}
}
