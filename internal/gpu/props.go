// Package gpu models a CUDA-class GPU for the GPMR simulation.
//
// The model is functional + costed: kernels execute real Go code over
// host-resident "device buffers" so every result can be checked for
// correctness, while the time they consume on the simulated device comes
// from a roofline cost model (max of compute time and memory time, plus
// launch overhead, uncoalesced-access penalties, and global-atomic
// throughput limits). Device memory capacity is accounted so out-of-core
// effects — the heart of GPMR's chunking design — appear exactly where they
// would on real hardware.
//
// The default property set (GT200) matches the NVIDIA Tesla S1070 GPUs of
// the paper's NCSA Accelerator cluster, with RAM limited to 1 GB as in the
// paper's test configuration.
package gpu

import "repro/internal/des"

// Props describes a GPU's performance-relevant characteristics.
type Props struct {
	Name       string
	SMs        int     // streaming multiprocessors
	CoresPerSM int     // scalar cores per SM
	ClockHz    float64 // shader clock

	// SustainedFlops is the achievable arithmetic throughput (flops/s) for
	// well-tuned kernels; it already folds in issue-efficiency losses, so
	// kernel specs should report true algorithmic flop counts.
	SustainedFlops float64

	// MemBandwidth is the achievable global-memory bandwidth (bytes/s) for
	// fully coalesced access (≈75% of the theoretical pin bandwidth).
	MemBandwidth float64

	// UncoalescedPenalty divides MemBandwidth for scattered access; GT200
	// serviced a worst-case scattered warp access as up to 32 transactions,
	// but typical MapReduce scatter patterns see ~8×.
	UncoalescedPenalty float64

	// AtomicThroughput is global-atomic operations per second on distinct
	// addresses; conflicts divide it further (see KernelSpec).
	AtomicThroughput float64

	// MemBytes is usable device memory. The paper limits the S1070's 4 GB
	// parts to 1 GB for testing; we do the same.
	MemBytes int64

	// LaunchOverhead is the fixed cost of a kernel launch (driver +
	// hardware), ~5 µs on the CUDA 3.0 / GT200 stack.
	LaunchOverhead des.Time

	// MaxResidentThreads is the device-wide thread count needed to fully
	// hide latency; smaller launches see proportionally lower throughput.
	MaxResidentThreads int64

	// CopyEngines is the number of independent DMA engines (1 on GT200, so
	// H2D and D2H copies serialize against each other but overlap compute).
	CopyEngines int
}

// GT200 returns the properties of a Tesla S1070-class GT200 GPU as
// configured in the paper (1 GB usable RAM).
func GT200() Props {
	return Props{
		Name:               "GT200 (Tesla S1070, 1 GB limit)",
		SMs:                30,
		CoresPerSM:         8,
		ClockHz:            1.296e9,
		SustainedFlops:     400e9, // of 622 GFLOPS peak MAD
		MemBandwidth:       77e9,  // of 102 GB/s theoretical
		UncoalescedPenalty: 8,
		AtomicThroughput:   600e6,
		MemBytes:           1 << 30,
		LaunchOverhead:     5 * des.Microsecond,
		MaxResidentThreads: 30 * 1024,
		CopyEngines:        1,
	}
}

// PCIeProps describes one PCIe link between host and GPU(s).
type PCIeProps struct {
	Bandwidth float64  // effective bytes/s per direction
	Latency   des.Time // per-transfer setup cost
}

// PCIeGen2x16 returns the effective characteristics of a generation-2
// PCIe x16 link (8 GB/s theoretical, ~5.2 GB/s achieved with pinned
// buffers). The Tesla S1070's host interface cards are gen-2 parts, each
// shared by two of the unit's four GPUs.
func PCIeGen2x16() PCIeProps {
	return PCIeProps{Bandwidth: 5.2e9, Latency: 8 * des.Microsecond}
}
