// Package cluster assembles the simulated machine: nodes with multicore
// CPUs and host memory, GPUs attached through (possibly shared) PCIe links,
// and a fabric connecting the nodes. The default configuration reproduces
// the paper's NCSA Accelerator cluster: 32 nodes, each with two dual-core
// 2.4 GHz AMD Opterons, 8 GB of RAM, and an NVIDIA Tesla S1070 — four GT200
// GPUs reached through two gen-2 PCIe x16 host interface cards (two GPUs
// per card) — on QDR InfiniBand.
package cluster

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/obs"
)

// NodeProps describes one cluster node's host side.
type NodeProps struct {
	Cores         int     // CPU cores (paper: 2 × dual-core Opteron = 4)
	CoreFlops     float64 // sustained flops/s per core with SSE
	HostMemBW     float64 // host memory bandwidth, bytes/s
	HostMemBytes  int64   // host RAM
	GPUsPerNode   int     // GPUs installed (paper: 4, the S1070)
	GPUsPerPCIe   int     // GPUs sharing one PCIe link (paper: 2)
	MemcpyPerCore float64 // host memcpy bandwidth one core can drive
}

// Accelerator returns the paper's node configuration.
func Accelerator() NodeProps {
	return NodeProps{
		Cores:         4,
		CoreFlops:     4.8e9, // 2.4 GHz × 2 flops/cycle (SSE2 double)
		HostMemBW:     6.4e9, // DDR2-800 dual channel
		HostMemBytes:  8 << 30,
		GPUsPerNode:   4,
		GPUsPerPCIe:   2,
		MemcpyPerCore: 2.5e9,
	}
}

// Node is one host in the cluster.
type Node struct {
	ID    int
	Props NodeProps
	CPU   *des.Resource // capacity = Cores
	PCIe  []*des.Resource
	GPUs  []*gpu.Device
}

// CPUTime occupies n cores for d. It is the building block for Bin-thread
// and serialization costs.
func (n *Node) CPUTime(p *des.Proc, cores int, d des.Time) {
	n.CPU.Use(p, cores, d)
}

// Config selects the cluster shape for one simulation.
type Config struct {
	GPUs        int // total GPU processes (ranks)
	GPUsPerNode int // how many of each node's GPUs this job uses
	Node        NodeProps
	GPU         gpu.Props
	PCIe        gpu.PCIeProps
	Fabric      fabric.Props

	// Workers selects the kernel-execution backend every device of this
	// cluster shares: 0 runs closures inline on the simulated process
	// (Serial, the default), n >= 1 dispatches them to a pool of n real
	// worker goroutines, and negative means pool(GOMAXPROCS). The DES
	// schedule and all outputs are identical either way; only host
	// wall-clock changes. Callers that set Workers != 0 must Close the
	// cluster after the engine finishes.
	Workers int

	// Shards selects how many DES engine shards drive the simulation:
	// 0 keeps the legacy single-engine path, n >= 1 runs a ShardSet of n
	// engines (engine 0 is the scheduler hub; job gangs are homed on
	// engines 1..n-1 when n >= 2), and negative means one engine per
	// cluster node plus the hub. All shard counts >= 1 produce
	// byte-identical traces and results; only host wall-clock changes.
	Shards int

	// Obs is the flight recorder shared by every layer of the simulation
	// (nil = tracing disabled). Recording never perturbs the schedule, so
	// results are byte-identical with or without it.
	Obs *obs.Recorder
}

// DefaultLaunchOverhead is the simulated delay between the scheduler
// deciding to start a job and its gang processes beginning on their nodes
// — roughly mpirun wireup + CUDA context creation on the paper's cluster.
// It doubles as the hub->shard lookahead that lets shards run
// concurrently. Only sharded runs (Shards != 0) charge it.
const DefaultLaunchOverhead = 2 * des.Millisecond

// ShardCount decodes the Shards knob against the cluster shape: the number
// of engines a ShardSet should hold, or 0 for the legacy single-engine
// path. Negative Shards means one engine per node plus the hub.
func (c Config) ShardCount() int {
	if c.Shards == 0 {
		return 0
	}
	if c.Shards < 0 {
		nNodes := (c.GPUs + c.GPUsPerNode - 1) / c.GPUsPerNode
		return nNodes + 1
	}
	return c.Shards
}

// Validate checks the cluster shape without building it, so services can
// reject a bad configuration as an error where New would panic.
func (c Config) Validate() error {
	if c.GPUs <= 0 {
		return fmt.Errorf("cluster: %d GPUs, need at least one", c.GPUs)
	}
	if c.GPUsPerNode <= 0 || c.GPUsPerNode > c.Node.GPUsPerNode {
		return fmt.Errorf("cluster: GPUsPerNode %d outside 1..%d", c.GPUsPerNode, c.Node.GPUsPerNode)
	}
	return nil
}

// DefaultConfig returns the paper's testbed scaled to nGPUs ranks, packing
// four ranks per node as the paper's MPI launch did.
func DefaultConfig(nGPUs int) Config {
	per := nGPUs
	if per > 4 {
		per = 4
	}
	return Config{
		GPUs:        nGPUs,
		GPUsPerNode: per,
		Node:        Accelerator(),
		GPU:         gpu.GT200(),
		PCIe:        gpu.PCIeGen2x16(), // the S1070's host interface cards
		Fabric:      fabric.QDRInfiniBand(),
	}
}

// Cluster is the assembled machine for one job.
type Cluster struct {
	Eng     *des.Engine
	Cfg     Config
	Nodes   []*Node
	GPUs    []*gpu.Device // indexed by rank
	Fabric  *fabric.Fabric
	Obs     *obs.Recorder // flight recorder (nil = disabled)
	nodeOf  []int
	backend gpu.Backend
}

// New builds a cluster per cfg on the given engine.
func New(eng *des.Engine, cfg Config) *Cluster {
	if cfg.GPUs <= 0 {
		panic("cluster: need at least one GPU")
	}
	if cfg.GPUsPerNode <= 0 || cfg.GPUsPerNode > cfg.Node.GPUsPerNode {
		panic(fmt.Sprintf("cluster: GPUsPerNode %d outside 1..%d", cfg.GPUsPerNode, cfg.Node.GPUsPerNode))
	}
	nNodes := (cfg.GPUs + cfg.GPUsPerNode - 1) / cfg.GPUsPerNode
	c := &Cluster{Eng: eng, Cfg: cfg}
	nodeOf := make([]int, 0, cfg.GPUs)
	for ni := 0; ni < nNodes; ni++ {
		node := &Node{
			ID:    ni,
			Props: cfg.Node,
			CPU:   des.NewResource(eng, fmt.Sprintf("node%d.cpu", ni), cfg.Node.Cores),
		}
		nLinks := (cfg.Node.GPUsPerNode + cfg.Node.GPUsPerPCIe - 1) / cfg.Node.GPUsPerPCIe
		for li := 0; li < nLinks; li++ {
			node.PCIe = append(node.PCIe, des.NewResource(eng, fmt.Sprintf("node%d.pcie%d", ni, li), 1))
		}
		for gi := 0; gi < cfg.GPUsPerNode && len(c.GPUs) < cfg.GPUs; gi++ {
			link := node.PCIe[gi/cfg.Node.GPUsPerPCIe]
			dev := gpu.NewDevice(eng, len(c.GPUs), cfg.GPU, link, cfg.PCIe)
			node.GPUs = append(node.GPUs, dev)
			c.GPUs = append(c.GPUs, dev)
			nodeOf = append(nodeOf, ni)
		}
		c.Nodes = append(c.Nodes, node)
	}
	c.nodeOf = nodeOf
	c.Fabric = fabric.New(eng, cfg.Fabric, nodeOf)
	c.backend = gpu.NewBackend(cfg.Workers)
	for _, dev := range c.GPUs {
		dev.SetBackend(c.backend)
	}
	c.Obs = cfg.Obs
	if c.Obs.Enabled() {
		for _, dev := range c.GPUs {
			dev.SetObs(c.Obs)
		}
		// Host-configuration attribution stays in CatEngine: backend and
		// worker choice change wall-clock only, and the canonical trace
		// must not vary with them.
		c.Obs.Emit(int64(eng.Now()), obs.CatEngine, "cluster", "cluster.build",
			obs.Int("gpus", int64(cfg.GPUs)), obs.Int("nodes", int64(nNodes)),
			obs.A("backend", fmt.Sprintf("%T", c.backend)), obs.Int("workers", int64(cfg.Workers)))
	}
	return c
}

// Close releases the execution backend's workers. Call after the engine
// has run to completion; idempotent, and a no-op for the Serial backend.
func (c *Cluster) Close() { c.backend.Close() }

// NodeOfRank returns the node hosting the given rank.
func (c *Cluster) NodeOfRank(r int) *Node { return c.Nodes[c.nodeOf[r]] }

// Derate stretches rank r's GPU kernel and PCIe durations by factor
// (>1 = slower) from now on — the straggler half of fault injection.
func (c *Cluster) Derate(r int, factor float64) { c.GPUs[r].SetDerate(factor) }

// DerateFactor returns rank r's current straggler factor (1 = nominal).
func (c *Cluster) DerateFactor(r int) float64 { return c.GPUs[r].DerateFactor() }

// Ranks returns the number of GPU processes.
func (c *Cluster) Ranks() int { return len(c.GPUs) }
