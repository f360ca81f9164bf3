package bench

import (
	"fmt"
	"io"

	"repro/internal/des"
	"repro/internal/fleet"
	"repro/internal/serve"
)

// The fleet-routing experiment: a hot-tenant arrival stream routed onto
// N independent gpmrd shards by the gpmrfleet consistent-hash ring,
// with and without the bounded-load refinement. Routing decisions come
// straight from fleet.Ring (the production code path) with the router's
// in-flight counts replaced by cumulative assignment counts, and each
// shard's sub-stream then runs through serve's deterministic replay —
// no wall clock, no HTTP — so the table is bit-identical across runs.
// What it shows: plain consistent hashing pins the hot tenant to one
// shard (deep queue, sheds, long makespan); the bounded-load walk
// spills the overflow to ring neighbors and levels both.

// FleetJobs is the arrival-stream length per cell.
const FleetJobs = 24

// FleetShardGPUs is each shard's cluster size.
const FleetShardGPUs = 8

// fleetShardCounts are the fleet widths swept.
var fleetShardCounts = []int{2, 4}

// fleetTenants is the skewed tenant mix: "hot" owns half the stream.
var fleetTenants = []string{"hot", "ana", "hot", "bo", "hot", "cy"}

// FleetRow is one (shards, hashing mode) cell.
type FleetRow struct {
	Shards   int
	Bounded  bool
	MaxJobs  int      // deepest shard's assignment count
	MinJobs  int      // shallowest shard's assignment count
	Done     int64    // completed across the fleet
	Rejected int64    // shed across the fleet
	Makespan des.Time // max shard makespan (the fleet finishes last-shard-last)
}

// Fleet sweeps fleet width × hashing mode: route the stream on the
// ring, replay each shard's sub-stream, and aggregate.
func Fleet(o Options) ([]FleetRow, error) {
	o = o.withDefaults()
	// The hot-tenant stream every cell routes: the mix without its large
	// scan, at a 4 ms mean gap.
	evs := arrivalEvents(o, 0x9e3779b9, FleetJobs, 4, jobMix[:3], fleetTenants)
	var rows []FleetRow
	for _, n := range fleetShardCounts {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("s%d", i)
		}
		ring, err := fleet.NewRing(ids, 0)
		if err != nil {
			return nil, err
		}
		for _, c := range []float64{-1, 1.25} { // plain, then bounded
			// Route: load = cumulative assignments, the offline stand-in for
			// the router's in-flight counts.
			load := make(map[string]int, n)
			for _, id := range ids {
				load[id] = 0
			}
			perShard := make(map[string][]serve.Event, n)
			for _, ev := range evs {
				shard, ok := ring.Pick(ev.Arrive.Tenant, load, c)
				if !ok {
					return nil, fmt.Errorf("fleet: ring refused tenant %s", ev.Arrive.Tenant)
				}
				load[shard]++
				a := *ev.Arrive
				a.Seq = len(perShard[shard]) // shard-local arrival sequence
				perShard[shard] = append(perShard[shard], serve.Event{Arrive: &a})
			}
			row := FleetRow{Shards: n, Bounded: c > 0, MinJobs: FleetJobs}
			for _, id := range ids {
				sub := perShard[id]
				if len(sub) > row.MaxJobs {
					row.MaxJobs = len(sub)
				}
				if len(sub) < row.MinJobs {
					row.MinJobs = len(sub)
				}
				if len(sub) == 0 {
					continue
				}
				rep, err := o.replayCell(fmt.Sprintf("%dx%.2f/%s/", n, c, id), serve.Header{
					Policy:   "weighted-fair",
					GPUs:     FleetShardGPUs,
					MaxQueue: OnlineMaxQueue,
					Shard:    id,
				}, sub)
				if err != nil {
					return nil, fmt.Errorf("fleet: %d shards c=%.2f shard %s: %w", n, c, id, err)
				}
				s := rep.Stats
				row.Done += s.Done
				row.Rejected += s.RejectedShed + s.RejectedQuota + s.RejectedInvalid
				if rep.Cluster.Makespan > row.Makespan {
					row.Makespan = rep.Cluster.Makespan
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderFleet writes the fleet-routing sweep.
func RenderFleet(w io.Writer, rows []FleetRow) {
	fmt.Fprintf(w, "Fleet routing — %d-job hot-tenant stream over N shards of %d GPUs each (queue bound %d)\n",
		FleetJobs, FleetShardGPUs, OnlineMaxQueue)
	fmt.Fprintf(w, "%6s %-9s %9s %9s %5s %4s %12s\n",
		"shards", "hashing", "max/shard", "min/shard", "done", "shed", "makespan")
	for _, r := range rows {
		mode := "plain"
		if r.Bounded {
			mode = "bounded"
		}
		fmt.Fprintf(w, "%6d %-9s %9d %9d %5d %4d %12v\n",
			r.Shards, mode, r.MaxJobs, r.MinJobs, r.Done, r.Rejected, r.Makespan)
	}
}
