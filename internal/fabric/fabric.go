// Package fabric models the cluster interconnect: per-node NIC ingress and
// egress engines connected through a non-blocking switch, with a
// latency + size/bandwidth message cost (cut-through, so egress and ingress
// occupancy overlap). This matches the paper's QDR InfiniBand + MVAPICH2
// environment at the fidelity GPMR cares about: four GPU processes per node
// share one NIC in each direction, which is what throttles
// communication-bound MapReduce jobs at scale.
//
// Intra-node messages bypass the NIC and cost host-memory-copy time, as
// MVAPICH2's shared-memory transport would.
package fabric

import (
	"fmt"

	"repro/internal/des"
)

// Props describes the interconnect.
type Props struct {
	Bandwidth float64  // bytes/s per NIC per direction
	Latency   des.Time // end-to-end message latency
	HostMemBW float64  // bytes/s for intra-node (shared-memory) transport

	// GPUDirect, when true, models the paper's future-work wish: NIC
	// transfers source/sink GPU memory directly, so callers skip the
	// staging PCIe copies. The fabric itself only records the flag; the
	// GPMR pipeline consults it.
	GPUDirect bool
}

// QDRInfiniBand returns the effective characteristics of the paper's
// cluster fabric (QDR IB through gen-1 PCIe caps practical bandwidth near
// 3.2 GB/s; MVAPICH2 small-message latency ~2 µs).
func QDRInfiniBand() Props {
	return Props{Bandwidth: 3.2e9, Latency: 2 * des.Microsecond, HostMemBW: 5.3e9}
}

// Message is one fabric delivery.
type Message struct {
	From, To  int
	Tag       string
	VirtBytes int64
	Payload   any
}

// Fabric connects a set of ranks placed on nodes.
type Fabric struct {
	props  Props
	nodeOf []int
	inbox  []*des.Queue
	nicIn  []*des.Resource
	nicOut []*des.Resource
}

// New builds a fabric for len(nodeOf) ranks, where nodeOf[r] is the node
// hosting rank r. Nodes are numbered 0..max(nodeOf).
func New(eng *des.Engine, props Props, nodeOf []int) *Fabric {
	maxNode := -1
	for _, n := range nodeOf {
		if n > maxNode {
			maxNode = n
		}
	}
	f := &Fabric{
		props:  props,
		nodeOf: append([]int(nil), nodeOf...),
		inbox:  make([]*des.Queue, len(nodeOf)),
		nicIn:  make([]*des.Resource, maxNode+1),
		nicOut: make([]*des.Resource, maxNode+1),
	}
	for r := range f.inbox {
		f.inbox[r] = des.NewQueue(eng, fmt.Sprintf("inbox%d", r))
	}
	for n := 0; n <= maxNode; n++ {
		f.nicIn[n] = des.NewResource(eng, fmt.Sprintf("node%d.nic.in", n), 1)
		f.nicOut[n] = des.NewResource(eng, fmt.Sprintf("node%d.nic.out", n), 1)
	}
	return f
}

// Ranks returns the number of ranks.
func (f *Fabric) Ranks() int { return len(f.nodeOf) }

// SameNode reports whether two ranks share a node.
func (f *Fabric) SameNode(a, b int) bool { return f.nodeOf[a] == f.nodeOf[b] }

func (f *Fabric) wireTime(bytes int64) des.Time {
	return des.FromSeconds(float64(bytes) / f.props.Bandwidth)
}

// Send transmits a message from rank `from` (the calling process) to rank
// `to`. The caller blocks while its egress NIC is occupied (send-side cost);
// delivery happens asynchronously after the fabric latency, gated by the
// receiver's ingress NIC. Intra-node sends cost a host memory copy instead.
func (f *Fabric) Send(p *des.Proc, from, to int, tag string, virtBytes int64, payload any) {
	msg := Message{From: from, To: to, Tag: tag, VirtBytes: virtBytes, Payload: payload}
	if f.nodeOf[from] == f.nodeOf[to] {
		p.Sleep(des.FromSeconds(float64(virtBytes) / f.props.HostMemBW))
		f.inbox[to].Put(msg)
		return
	}
	dur := f.wireTime(virtBytes)
	out := f.nicOut[f.nodeOf[from]]
	out.Acquire(p, 1)
	p.Sleep(dur)
	out.Release(1)
	in := f.nicIn[f.nodeOf[to]]
	lat := f.props.Latency
	// The wire process lives on the SENDER's engine — p's, not the one the
	// fabric was built on — so a sharded run keeps a gang's in-flight
	// messages on the gang's own shard.
	p.Engine().Spawn(fmt.Sprintf("wire:%d->%d", from, to), func(w *des.Proc) {
		w.Sleep(lat)
		// Cut-through: ingress occupancy overlaps egress in real fabrics;
		// we charge only the residual serialization at the receiver.
		in.Acquire(w, 1)
		w.Sleep(dur / 8) // receive-side per-message processing share
		in.Release(1)
		f.inbox[to].Put(msg)
	})
}

// Recv blocks until a message for rank r arrives and returns it. Callers
// demultiplex by Tag.
func (f *Fabric) Recv(p *des.Proc, r int) Message {
	return f.inbox[r].Get(p).(Message)
}

// TryRecv returns a pending message without blocking.
func (f *Fabric) TryRecv(r int) (Message, bool) {
	v, ok := f.inbox[r].TryGet()
	if !ok {
		return Message{}, false
	}
	return v.(Message), true
}

// Pending reports how many delivered messages sit unread in rank r's
// inbox. Multi-tenant runs use it as a lease-end invariant: a job must
// consume everything addressed to it before its ranks are re-leased.
func (f *Fabric) Pending(r int) int { return f.inbox[r].Len() }

// Transfer models a synchronous point-to-point bulk move (used for chunk
// shifting during load balancing): the caller blocks for the full transfer,
// holding both endpoints' NICs for cross-node moves.
func (f *Fabric) Transfer(p *des.Proc, from, to int, virtBytes int64) des.Time {
	start := p.Now()
	if f.nodeOf[from] == f.nodeOf[to] {
		p.Sleep(des.FromSeconds(float64(virtBytes) / f.props.HostMemBW))
		return p.Now() - start
	}
	dur := f.wireTime(virtBytes)
	out, in := f.nicOut[f.nodeOf[from]], f.nicIn[f.nodeOf[to]]
	out.Acquire(p, 1)
	in.Acquire(p, 1)
	p.Sleep(f.props.Latency + dur)
	in.Release(1)
	out.Release(1)
	return p.Now() - start
}
