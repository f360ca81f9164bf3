package bench

import "testing"

// TestFleetScenario checks the fleet-routing sweep's shape: every cell
// accounts for the whole stream, and the bounded-load walk is never more
// skewed than plain hashing at the same width.
func TestFleetScenario(t *testing.T) {
	rows, err := Fleet(Options{PhysBudget: 1 << 10, Seed: 1})
	if err != nil {
		t.Fatalf("Fleet: %v", err)
	}
	if len(rows) != 2*len(fleetShardCounts) {
		t.Fatalf("got %d rows, want %d", len(rows), 2*len(fleetShardCounts))
	}
	for _, r := range rows {
		if r.Done+r.Rejected != FleetJobs {
			t.Fatalf("row %+v: done+rejected = %d, want %d", r, r.Done+r.Rejected, FleetJobs)
		}
		if r.MaxJobs < r.MinJobs {
			t.Fatalf("row %+v: max < min", r)
		}
	}
	// The bounded-load walk must never be more skewed than plain hashing
	// at the same width — leveling is the point.
	for i := 0; i+1 < len(rows); i += 2 {
		plain, bounded := rows[i], rows[i+1]
		if plain.Bounded || !bounded.Bounded || plain.Shards != bounded.Shards {
			t.Fatalf("row order changed: %+v then %+v", plain, bounded)
		}
		if spread(bounded) > spread(plain) {
			t.Fatalf("bounded hashing more skewed than plain at %d shards: %+v vs %+v",
				plain.Shards, bounded, plain)
		}
	}
}

func spread(r FleetRow) int { return r.MaxJobs - r.MinJobs }
