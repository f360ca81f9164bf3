package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fabric"
	"repro/internal/gpu"
)

// gang maps one job's local ranks (0..n-1, the coordinate system the whole
// pipeline runs in) onto a subset of a cluster's global ranks. It is the
// seam that lets many jobs space-share one simulated machine: each job's
// processes address only their own gang, while every send, transfer, and
// kernel still lands on the shared devices, PCIe links, and NICs — so
// co-resident jobs contend for real hardware in the fabric model.
//
// The gang also meters the job's own fabric traffic, at the boundary where
// the job hands bytes to the shared fabric (which keeps no counters).
type gang struct {
	cl      *cluster.Cluster
	ranks   []int // local rank -> global cluster rank
	localOf map[int]int

	// Per-job fabric traffic in virtual bytes, counted at send/transfer
	// time (receive bytes mirror sends).
	wireBytes  int64
	localBytes int64
}

// newGang builds the local→global mapping. Every global rank must exist on
// the cluster and appear at most once.
func newGang(cl *cluster.Cluster, ranks []int) (*gang, error) {
	g := &gang{cl: cl, ranks: append([]int(nil), ranks...), localOf: make(map[int]int, len(ranks))}
	for l, r := range g.ranks {
		if r < 0 || r >= cl.Ranks() {
			return nil, fmt.Errorf("core: gang rank %d outside cluster 0..%d", r, cl.Ranks()-1)
		}
		if _, dup := g.localOf[r]; dup {
			return nil, fmt.Errorf("core: gang lists cluster rank %d twice", r)
		}
		g.localOf[r] = l
	}
	return g, nil
}

// identityRanks is the exclusive-cluster mapping: local rank i is global
// rank i.
func identityRanks(n int) []int {
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}

// size is the gang's rank count.
func (g *gang) size() int { return len(g.ranks) }

// dev returns the local rank's GPU.
func (g *gang) dev(local int) *gpu.Device { return g.cl.GPUs[g.ranks[local]] }

// node returns the host node of a local rank.
func (g *gang) node(local int) *cluster.Node { return g.cl.NodeOfRank(g.ranks[local]) }

// sameNode reports whether two local ranks share a host node.
func (g *gang) sameNode(a, b int) bool {
	return g.cl.Fabric.SameNode(g.ranks[a], g.ranks[b])
}

// derate returns the local rank's current straggler factor.
func (g *gang) derate(local int) float64 { return g.cl.DerateFactor(g.ranks[local]) }

// setDerate stretches the local rank's GPU durations by factor.
func (g *gang) setDerate(local int, factor float64) { g.cl.Derate(g.ranks[local], factor) }

// count records one fabric handoff in the job's own traffic meters.
func (g *gang) count(from, to int, virtBytes int64) {
	if g.sameNode(from, to) {
		g.localBytes += virtBytes
	} else {
		g.wireBytes += virtBytes
	}
}

// send transmits between two gang members over the shared fabric.
func (g *gang) send(p *des.Proc, from, to int, tag string, virtBytes int64, payload any) {
	g.count(from, to, virtBytes)
	g.cl.Fabric.Send(p, g.ranks[from], g.ranks[to], tag, virtBytes, payload)
}

// localize translates a received message's endpoints back into gang
// coordinates. Space-sharing keeps gangs disjoint, so every sender to a
// gang member's inbox during the job's tenure is a gang member.
func (g *gang) localize(m fabric.Message, local int) fabric.Message {
	from, ok := g.localOf[m.From]
	if !ok {
		panic(fmt.Sprintf("core: rank %d received a message from rank %d outside its gang", g.ranks[local], m.From))
	}
	m.From = from
	m.To = local
	return m
}

// recv blocks on the local rank's inbox and returns the message with its
// endpoints translated back into gang coordinates.
func (g *gang) recv(p *des.Proc, local int) fabric.Message {
	return g.localize(g.cl.Fabric.Recv(p, g.ranks[local]), local)
}

// tryRecv pops a pending message without blocking, endpoints translated
// as in recv.
func (g *gang) tryRecv(local int) (fabric.Message, bool) {
	m, ok := g.cl.Fabric.TryRecv(g.ranks[local])
	if !ok {
		return fabric.Message{}, false
	}
	return g.localize(m, local), true
}

// pending reports the local rank's unread inbox depth.
func (g *gang) pending(local int) int { return g.cl.Fabric.Pending(g.ranks[local]) }

// transfer is a synchronous bulk move between gang members (chunk shifts,
// recovery re-fetches).
func (g *gang) transfer(p *des.Proc, from, to int, virtBytes int64) des.Time {
	g.count(from, to, virtBytes)
	return g.cl.Fabric.Transfer(p, g.ranks[from], g.ranks[to], virtBytes)
}
