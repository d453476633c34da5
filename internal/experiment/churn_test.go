package experiment

import (
	"runtime"
	"testing"
)

// TestSubscriberChurnSmall runs the churn scenario at reduced scale: 2000
// durable subscribers, 4000 events, 400 detach/resume cycles across 4
// workers, catchup draining concurrently with live ingest. The run itself
// asserts the exactly-once contract per subscriber (lost/dup/reordered/gap
// counters must all be zero); the test also sanity-checks that churn
// actually produced catchup work, otherwise the scenario proved nothing.
func TestSubscriberChurnSmall(t *testing.T) {
	res, err := RunSubscriberChurn(t.TempDir(), ChurnParams{
		Subscribers:  2000,
		Groups:       64,
		Events:       4000,
		ChurnWorkers: 4,
		ChurnOps:     400,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Catchups == 0 {
		t.Fatal("churn run produced no catchup streams; scenario is vacuous")
	}
	if res.Delivered == 0 {
		t.Fatal("no deliveries")
	}
	t.Logf("delivered=%d catchups=%d liveP99=%v drain=%v", res.Delivered, res.Catchups, res.LiveP99, res.DrainTime)
}

// TestSubscriberChurnSingleShard pins the engine to the single-lock
// configuration: the scheduler and sharding must degrade to the serialized
// baseline without violating the client contract.
func TestSubscriberChurnSingleShard(t *testing.T) {
	res, err := RunSubscriberChurn(t.TempDir(), ChurnParams{
		Subscribers:  500,
		Groups:       32,
		SubShards:    1,
		Events:       2000,
		ChurnWorkers: 2,
		ChurnOps:     100,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SubShards != 1 {
		t.Fatalf("SubShards = %d, want 1", res.SubShards)
	}
}

// TestSubscriberChurnShardCount checks the shard-count plumbing end to end
// (an explicit SubShards value is honored verbatim, not clamped to cores).
func TestSubscriberChurnShardCount(t *testing.T) {
	want := 4
	res, err := RunSubscriberChurn(t.TempDir(), ChurnParams{
		Subscribers:  200,
		Groups:       16,
		SubShards:    want,
		Events:       1000,
		ChurnWorkers: 2,
		ChurnOps:     50,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SubShards != want {
		t.Fatalf("SubShards = %d, want %d", res.SubShards, want)
	}
}

// TestSubscriberChurnShardedNotSlower runs the sharded engine and the
// single-lock baseline over the same seeded churn workload and requires
// the sharded engine to sustain at least the baseline's live throughput.
// The comparison needs real parallelism, so it is skipped below 4 CPUs,
// and it measures the engines, not the race detector, so it is skipped
// under -race.
func TestSubscriberChurnShardedNotSlower(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("sharded-vs-single-lock throughput needs >= 4 CPUs, have %d", runtime.NumCPU())
	}
	if testing.Short() || raceEnabled {
		t.Skip("throughput comparison in -short mode or under -race")
	}
	params := ChurnParams{Subscribers: 5000, Events: 4000, ChurnOps: 400, Seed: 1}
	sp := params
	sp.SubShards = min(runtime.GOMAXPROCS(0), 8)
	sharded, err := RunSubscriberChurn(t.TempDir(), sp)
	if err != nil {
		t.Fatal(err)
	}
	bp := params
	bp.SubShards = 1
	baseline, err := RunSubscriberChurn(t.TempDir(), bp)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.EventsPerSec < baseline.EventsPerSec {
		t.Fatalf("sharded engine (%d shards) slower than single-lock baseline on %d CPUs: %.0f vs %.0f events/s",
			sp.SubShards, runtime.NumCPU(), sharded.EventsPerSec, baseline.EventsPerSec)
	}
	t.Logf("sharded %.0f ev/s vs single-lock %.0f ev/s", sharded.EventsPerSec, baseline.EventsPerSec)
}
