package bench

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/serve"
)

// shardPoints are the engine configurations the scheduled-run differential
// tests pit against each other: 0 (the single event loop, whose schedule
// legitimately differs — never a baseline here), 1 (a one-engine ShardSet:
// the sharded scheduler's modeled posts with no cross-shard traffic), 2 and
// 4 (real cross-shard posts), and -1 (one shard per node plus the hub, the
// widest decomposition).
func shardPoints() []int { return []int{0, 1, 2, 4, -1} }

func shardPointName(shards int) string {
	switch {
	case shards == 0:
		return "legacy"
	case shards < 0:
		return "per-node"
	default:
		return fmt.Sprintf("shards(%d)", shards)
	}
}

// TestShardDifferentialMultijob is where sharding actually changes the
// execution shape: concurrent tenants run on different engine goroutines,
// launches and completions cross shard boundaries as ordered posts, and
// gangs lease whole nodes. Unlike exclusive runs, the sharded scheduler's
// schedule legitimately differs from the legacy engine's (launch and
// completion latencies become modeled posts, gangs lease whole nodes), so
// the invariant here is SHARD-COUNT invariance: every shard count >= 1,
// crossed with both kernel backends, must reproduce the one-shard serial
// traces byte-for-byte. Pooled kernels under per-node shards is the
// maximally concurrent configuration the engine supports.
func TestShardDifferentialMultijob(t *testing.T) {
	run := func(workers, shards int) string {
		_, traces, err := Multijob(Options{PhysBudget: 4096, Seed: 1, Workers: workers, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var all bytes.Buffer
		for _, ct := range traces {
			all.WriteString(ct.String())
			all.WriteByte('\n')
		}
		return all.String()
	}
	want := run(0, 1)
	for _, workers := range []int{0, -1} {
		for _, shards := range shardPoints()[1:] {
			if workers == 0 && shards == 1 {
				continue
			}
			if got := run(workers, shards); got != want {
				t.Errorf("workers=%d %s multijob cluster traces diverge from one-shard serial:\n--- shards(1)\n%s\n--- got\n%s",
					workers, shardPointName(shards), want, got)
			}
		}
	}
}

// TestShardDifferentialReplay closes the matrix at the serving layer: the
// same recorded arrival trace replayed through serve at every shard count
// must produce an identical full report (cluster trace, admission
// counters, per-tenant stats, job table). This covers the injector-fed
// session path rather than sched.Run's pre-batched one. As with
// multijob, the baseline is the one-shard set, not the legacy engine:
// the sharded scheduler's modeled launch/done latencies shift the
// schedule, but never differently for different shard counts.
func TestShardDifferentialReplay(t *testing.T) {
	o := Options{PhysBudget: 4096, Seed: 1}.withDefaults()
	evs := onlineStream(o, 8)
	h := serve.Header{
		Version:     serve.TraceVersion,
		Policy:      "weighted-fair",
		GPUs:        OnlineGPUs,
		GPUsPerNode: 4,
		MaxQueue:    OnlineMaxQueue,
		Quota:       OnlineQuota,
		PhysBudget:  o.PhysBudget,
	}
	run := func(shards int) string {
		rep, err := serve.Replay(&serve.Trace{Header: h, Events: evs}, serve.ReplayOptions{Shards: shards})
		if err != nil {
			t.Fatalf("%s replay: %v", shardPointName(shards), err)
		}
		return rep.String()
	}
	want := run(1)
	for _, shards := range []int{2, -1} {
		if got := run(shards); got != want {
			t.Errorf("%s replay report diverges from the one-shard set:\n--- shards(1)\n%s\n--- got\n%s",
				shardPointName(shards), want, got)
		}
	}
}
