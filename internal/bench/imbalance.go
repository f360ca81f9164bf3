package bench

import (
	"fmt"
	"io"

	"repro/internal/apps/sio"
	"repro/internal/core"
	"repro/internal/des"
)

// ImbalanceGPUs is the cluster shape for the chunk-imbalance scenario:
// eight ranks packed four per node (the paper's testbed shape), so half
// the ranks sit across a node boundary from the other half.
const ImbalanceGPUs = 8

// ImbalanceRow reports one steal policy's behaviour on the skewed
// placement: job makespan, fabric traffic split cross-node vs intra-node,
// and steal provenance.
type ImbalanceRow struct {
	Policy            string
	Wall              des.Time
	WireBytes         int64 // cross-node fabric traffic (Trace.WireBytes)
	LocalBytes        int64 // intra-node (shared-memory) traffic
	LocalSteals       int
	RemoteSteals      int
	LocalStolenBytes  int64
	RemoteStolenBytes int64
}

// Imbalance runs the chunk-imbalance scenario once per steal policy. The
// initial placement is skewed: every chunk starts on its node's first
// rank (ranks 0 and 4), so three of four ranks per node starve and must
// steal. Under StealGlobal starved ranks regularly pick the other node's
// fullest queue even though an equally full queue sits on their own node,
// holding both NICs for each shifted chunk; StealLocalFirst keeps those
// shifts on-node, which this scenario quantifies as lower cross-node
// WireBytes at equal work.
func Imbalance(o Options) ([]ImbalanceRow, error) {
	o = o.withDefaults()
	var rows []ImbalanceRow
	defer o.Obs.SetPrefix("")
	for _, policy := range []core.StealPolicy{core.StealGlobal, core.StealLocalFirst} {
		job := sioJob(sio.Params{
			Elements: 32 << 20,
			GPUs:     ImbalanceGPUs,
			ChunkCap: 1 << 20, // many small chunks: plenty of steal events
		}, o)
		job.Config.StealPolicy = policy
		job.Assign = func(chunk int) int { return (chunk % 2) * 4 }
		o.Obs.SetPrefix(policy.String() + "/") // one recorder timeline per policy
		res, err := runExclusive(o, job)
		if err != nil {
			return nil, err
		}
		st := res.Trace.Steals()
		rows = append(rows, ImbalanceRow{
			Policy:            policy.String(),
			Wall:              res.Trace.Wall,
			WireBytes:         res.Trace.WireBytes,
			LocalBytes:        res.Trace.LocalBytes,
			LocalSteals:       st.LocalSteals,
			RemoteSteals:      st.RemoteSteals,
			LocalStolenBytes:  st.LocalBytes,
			RemoteStolenBytes: st.RemoteBytes,
		})
	}
	return rows, nil
}

// RenderImbalance writes the policy comparison table.
func RenderImbalance(w io.Writer, rows []ImbalanceRow) {
	fmt.Fprintf(w, "Chunk imbalance — steal policies on a skewed placement (%d GPUs, 4 per node)\n", ImbalanceGPUs)
	fmt.Fprintf(w, "%-12s %14s %10s %10s %8s %8s %12s %12s\n",
		"policy", "makespan", "wire MB", "local MB", "lsteals", "rsteals", "lstolen MB", "rstolen MB")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %14v %10.1f %10.1f %8d %8d %12.1f %12.1f\n",
			r.Policy, r.Wall, float64(r.WireBytes)/1e6, float64(r.LocalBytes)/1e6,
			r.LocalSteals, r.RemoteSteals,
			float64(r.LocalStolenBytes)/1e6, float64(r.RemoteStolenBytes)/1e6)
	}
}
