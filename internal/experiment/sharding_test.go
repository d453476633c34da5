package experiment

import (
	"runtime"
	"testing"
	"time"
)

// TestShardThroughputSmoke runs the multi-pubend saturation experiment
// over real loopback TCP with both the serialized baseline and the sharded
// configuration, checking correctness (no violations or gaps under a
// steady flood, traffic on every path) rather than the speedup ratio,
// which needs a multi-core box.
func TestShardThroughputSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation experiment")
	}
	for _, cfg := range []struct {
		name   string
		shards int
	}{
		{"serialized", 1},
		{"sharded", 4},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			res, err := RunShardThroughput(t.TempDir(), ShardThroughputParams{
				Pubends: 4,
				Shards:  cfg.shards,
				Window:  16,
				Warmup:  200 * time.Millisecond,
				Measure: 400 * time.Millisecond,
				TCP:     true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Shards != cfg.shards {
				t.Errorf("Shards = %d, want %d", res.Shards, cfg.shards)
			}
			if res.Violations != 0 || res.Gaps != 0 {
				t.Errorf("violations = %d, gaps = %d under steady flood, want 0",
					res.Violations, res.Gaps)
			}
			if res.PublishRate <= 0 || res.DeliveryRate <= 0 {
				t.Errorf("no traffic: publish %.0f/s deliver %.0f/s",
					res.PublishRate, res.DeliveryRate)
			}
			t.Logf("shards=%d (GOMAXPROCS=%d): publish %.0f ev/s, deliver %.0f ev/s",
				res.Shards, runtime.GOMAXPROCS(0), res.PublishRate, res.DeliveryRate)
		})
	}
}
