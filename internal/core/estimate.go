package core

import (
	"repro/internal/cluster"
	"repro/internal/des"
)

// EstimateCost implements Runnable for a scheduled job. On top of
// the generic data-movement walk it prices the sort stage with the
// job's own Sorter cost model (the same formula the pipeline charges at
// run time), approximating the per-rank pair count from the input bytes
// — map emission counts are app-specific and unknowable before the run.
func (s *Scheduled[V]) EstimateCost(cl *cluster.Cluster, gang int) des.Time {
	if gang < 1 {
		gang = 1
	}
	var bytes int64
	for _, c := range s.Job.Chunks {
		bytes += c.VirtBytes()
	}
	t := estimateJobCost(cl, bytes, len(s.Job.Chunks), gang)
	if !s.Job.Config.DisableSort {
		valBytes := s.Job.Config.ValBytes
		if valBytes <= 0 {
			valBytes = 4
		}
		sorter := s.Job.Sorter
		if sorter == nil {
			sorter = RadixSorter{}
		}
		pairs := bytes / (4 + valBytes) / int64(gang)
		t += sorter.SortCost(cl.Cfg.GPU, pairs, valBytes)
	}
	return t
}

// estimateJobCost prices one map→shuffle→reduce round on a gang of the
// given size: each rank's share of the input crosses PCIe once (H2D), is
// read and written coalesced by the map and sort kernels, emitted and
// permuted in scattered patterns (two touches at the uncoalesced rate —
// map emission scatter and the sort's key permutation, which the kernel
// cost model charges at MemBandwidth/UncoalescedPenalty), and crosses
// the wire once in the shuffle — plus fixed per-chunk launch/transfer
// overheads and the job dispatch overhead. Calibrated against exclusive
// runs of the benchmark apps, this lands within ~2× below the simulated
// service time (it remains a deliberate lower bound: app-specific
// compute and atomic terms are not priced).
func estimateJobCost(cl *cluster.Cluster, bytes int64, chunks, gang int) des.Time {
	if gang < 1 {
		gang = 1
	}
	cfg := cl.Cfg
	per := float64(bytes) / float64(gang)
	scatter := cfg.GPU.UncoalescedPenalty
	if scatter < 1 {
		scatter = 1
	}
	mem := (4 + 2*scatter) * per / cfg.GPU.MemBandwidth
	sec := per/cfg.PCIe.Bandwidth + mem + per/cfg.Fabric.Bandwidth
	t := des.FromSeconds(sec)
	perChunk := 3 * (cfg.GPU.LaunchOverhead + cfg.PCIe.Latency + cfg.Fabric.Latency)
	t += perChunk * des.Time((chunks+gang-1)/gang)
	return t + cluster.DefaultLaunchOverhead
}
