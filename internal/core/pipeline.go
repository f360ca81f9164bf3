package core

import (
	"fmt"

	"repro/internal/cudpp"
	"repro/internal/des"
	"repro/internal/gpu"
	"repro/internal/keyval"
	"repro/internal/obs"
)

// Message tags on the fabric.
const (
	tagPairs = "pairs"
	tagEnd   = "end"
	tagOut   = "out"
	// tagFault tells a rank's own reduce loop that its GPU just died, so
	// its surviving host process hands its partition state to the
	// successor (see recovery.go).
	tagFault = "fault"
	// tagRelayDone marks the end of a failed rank's relay stream; the
	// successor must not close its shuffle before receiving it.
	tagRelayDone = "relaydone"
)

// endMsgBytes is the virtual size of an end-of-stream control message.
const endMsgBytes = 64

// shufMsg is one shuffle delivery: chunk identifies the producing map
// chunk (-1 for the non-chunked Accumulation/Combine paths) and part the
// destination reduce partition — together the exactly-once key that lets
// receivers drop duplicate deliveries from speculative twins.
type shufMsg[V any] struct {
	chunk int
	part  int
	pairs *keyval.Pairs[V]
}

// outMsg carries one reduce partition's final pairs to rank 0 during the
// gather; partition identity survives reassignment to a successor rank.
type outMsg[V any] struct {
	part  int
	pairs *keyval.Pairs[V]
}

// binKind discriminates messages from the map process to the bin process.
type binKind int

const (
	binBuckets  binKind = iota // partitioned pairs: D2H, stage, send
	binToHost                  // combine staging: D2H into host memory
	binEndMaps                 // all maps complete (fires combine phase)
	binFinalEnd                // no more data: broadcast end markers
)

type binMsg[V any] struct {
	kind      binKind
	buckets   []keyval.Pairs[V]
	buf       *gpu.Buffer // device emit buffer to release after D2H
	virtBytes int64       // D2H transfer size
	pairs     *keyval.Pairs[V]
	chunk     int  // producing chunk index (-1 for non-chunked paths)
	spec      bool // output of a speculative backup copy
}

type loadedChunk struct {
	chunk       Chunk
	buf         *gpu.Buffer
	idx         int
	speculative bool
}

// rankState wires one GPU process's sub-processes together.
type rankState[V any] struct {
	rt     *runtime[V]
	rank   int
	dev    *gpu.Device
	tr     *RankTrace
	stream string // flight-recorder stream: "<job>/r<rank>"

	loadedQ      *des.Queue
	binQ         *des.Queue
	slots        *des.Resource
	emitSlots    *des.Resource // bounds device emit buffers awaiting D2H
	mctx         *MapContext[V]
	hostCombine  keyval.Pairs[V]
	combineReady *des.WaitGroup // count 1 until the bin stage has flushed every map

	recvd    []shufMsg[V]    // accepted shuffle deliveries, arrival order
	seen     map[[2]int]bool // (chunk, part) exactly-once guard
	shuffle  keyval.Pairs[V] // partition being sorted/reduced
	sortedIn bool            // sorted pairs resident on device (in-core path)
	devPairs *gpu.Buffer
}

func (rt *runtime[V]) spawnRank(eng *des.Engine, rank int) {
	st := &rankState[V]{
		rt:        rt,
		rank:      rank,
		dev:       rt.g.dev(rank),
		tr:        &rt.traces[rank],
		stream:    fmt.Sprintf("%s/r%d", rt.cfg.Name, rank),
		loadedQ:   des.NewQueue(eng, rt.procName(fmt.Sprintf("r%d.loaded", rank))),
		binQ:      des.NewQueue(eng, rt.procName(fmt.Sprintf("r%d.bin", rank))),
		slots:     des.NewResource(eng, rt.procName(fmt.Sprintf("r%d.slots", rank)), pipelineDepth),
		emitSlots: des.NewResource(eng, rt.procName(fmt.Sprintf("r%d.emitslots", rank)), pipelineDepth),
		seen:      make(map[[2]int]bool),
	}
	st.mctx = &MapContext[V]{
		Rank:       rank,
		NumRanks:   rt.cfg.GPUs,
		Dev:        st.dev,
		VirtFactor: rt.cfg.VirtFactor,
	}
	if rt.job.Combiner != nil {
		st.combineReady = des.NewWaitGroup(eng)
		st.combineReady.Add(1)
	}
	rt.spawn(eng, rt.procName(fmt.Sprintf("r%d.loader", rank)), st.loaderProc)
	rt.spawn(eng, rt.procName(fmt.Sprintf("r%d.map", rank)), st.mapProc)
	rt.spawn(eng, rt.procName(fmt.Sprintf("r%d.bin", rank)), st.binProc)
	rt.spawn(eng, rt.procName(fmt.Sprintf("r%d.reduce", rank)), st.reduceProc)
}

// dead reports whether this rank's GPU has fail-stopped.
func (st *rankState[V]) dead() bool { return st.rt.ft.failed[st.rank] }

// send transmits over the fabric, recording per-rank sent-byte provenance
// (wire vs intra-node) in the trace.
func (st *rankState[V]) send(p *des.Proc, to int, tag string, virtBytes int64, payload any) {
	if st.rt.g.sameNode(st.rank, to) {
		st.tr.SentLocalBytes += virtBytes
	} else {
		st.tr.SentWireBytes += virtBytes
	}
	st.rt.g.send(p, st.rank, to, tag, virtBytes, payload)
}

// countRecv records received-byte provenance for one delivery.
func (st *rankState[V]) countRecv(from int, virtBytes int64) {
	if st.rt.g.sameNode(from, st.rank) {
		st.tr.RecvLocalBytes += virtBytes
	} else {
		st.tr.RecvWireBytes += virtBytes
	}
}

// loaderProc streams chunks onto the GPU, overlapping the H2D copy of the
// next chunk with the map of the current one (bounded by pipelineDepth).
func (st *rankState[V]) loaderProc(p *des.Proc) {
	if st.rt.cfg.Startup > 0 {
		p.Sleep(st.rt.cfg.Startup)
	}
	for {
		a, ok := st.rt.sched.next(p, st.rank)
		if !ok {
			st.loadedQ.Put(loadedChunk{})
			return
		}
		chunk := a.chunk
		r := st.rt.obs
		switch {
		case a.speculative:
			st.tr.SpecLaunched++
			if r.Enabled() {
				r.Emit(int64(p.Now()), obs.CatSim, st.stream, "spec.launch",
					obs.Int("chunk", int64(a.idx)))
			}
		case a.recoveredFrom >= 0:
			st.tr.ChunksRecovered++
			st.tr.RecoveredBytes += chunk.VirtBytes()
			if r.Enabled() {
				r.Emit(int64(p.Now()), obs.CatSim, st.stream, "recover",
					obs.Int("from", int64(a.recoveredFrom)), obs.Int("bytes", chunk.VirtBytes()))
			}
		case a.stolenFrom >= 0:
			st.tr.ChunksStolen++
			st.tr.StolenBytes += chunk.VirtBytes()
			if st.rt.g.sameNode(a.stolenFrom, st.rank) {
				st.tr.LocalSteals++
				st.tr.LocalStolenBytes += chunk.VirtBytes()
			} else {
				st.tr.RemoteSteals++
				st.tr.RemoteStolenBytes += chunk.VirtBytes()
			}
			if r.Enabled() {
				r.Emit(int64(p.Now()), obs.CatSim, st.stream, "steal",
					obs.Int("from", int64(a.stolenFrom)), obs.Int("bytes", chunk.VirtBytes()))
			}
		}
		st.slots.Acquire(p, 1)
		buf := st.dev.MustAlloc("chunk", chunk.VirtBytes(), nil)
		st.dev.CopyToDevice(p, chunk.VirtBytes(), nil)
		st.loadedQ.Put(loadedChunk{chunk: chunk, buf: buf, idx: a.idx, speculative: a.speculative})
	}
}

// mapProc runs the Map substages for each chunk, then the Accumulation or
// Combination tail, and finally tells the bin process to flush.
func (st *rankState[V]) mapProc(p *des.Proc) {
	rt := st.rt
	st.mctx.Proc = p
	for {
		item := st.loadedQ.Get(p).(loadedChunk)
		if item.chunk == nil {
			break
		}
		if st.dead() {
			// The GPU is gone; the scheduler already requeued this chunk
			// for re-execution by a survivor.
			item.buf.Free()
			st.slots.Release(1)
			continue
		}
		if rt.resilient() && rt.sched.isDone(item.idx) {
			// A twin copy already delivered this chunk: abandon it unmapped.
			st.tr.ChunksSkipped++
			item.buf.Free()
			st.slots.Release(1)
			continue
		}
		st.mctx.out.Reset()
		rt.job.Mapper.Map(st.mctx, item.chunk)
		st.tr.ChunksMapped++
		rt.afterChunk(p, st.rank, st.tr.ChunksMapped)
		if st.dead() {
			// A chunk-count trigger just killed this GPU: the chunk's
			// freshly mapped output dies in device memory with it.
			st.mctx.out.Reset()
			item.buf.Free()
			st.slots.Release(1)
			continue
		}
		if rt.job.PartialReducer != nil {
			rt.job.PartialReducer.PartialReduce(st.mctx, &st.mctx.out)
		}
		item.buf.Free()
		st.slots.Release(1)
		if rt.cfg.Accumulate {
			if st.mctx.out.Len() != 0 {
				panic("core: Accumulate job emitted pairs; fold into Resident() instead")
			}
			continue
		}
		out := st.takeEmitted()
		if rt.job.Combiner != nil {
			st.stageToHost(p, out)
			continue
		}
		st.partitionAndBin(p, out, item.idx, item.speculative)
	}

	if rt.cfg.Accumulate {
		res := st.mctx.resident
		st.mctx.resident = keyval.Pairs[V]{}
		st.tr.PairsEmitted += res.VirtLen()
		st.partitionAndBin(p, res, -1, false)
	}
	if rt.job.Combiner != nil {
		st.binQ.Put(binMsg[V]{kind: binEndMaps})
		st.combineReady.Wait(p)
		st.combineTail(p)
	}
	st.tr.MapDone = p.Now() - rt.start
	st.binQ.Put(binMsg[V]{kind: binFinalEnd})
}

// takeEmitted moves the context's emission buffer out, counting it.
func (st *rankState[V]) takeEmitted() keyval.Pairs[V] {
	out := st.mctx.out
	st.mctx.out = keyval.Pairs[V]{}
	st.tr.PairsEmitted += out.VirtLen()
	return out
}

// stageToHost queues one chunk's pairs for D2H staging into host memory
// (the Combiner path: pairs wait in CPU memory until all maps finish).
func (st *rankState[V]) stageToHost(p *des.Proc, out keyval.Pairs[V]) {
	vb := out.VirtBytes(st.rt.cfg.ValBytes)
	st.emitSlots.Acquire(p, 1)
	buf := st.dev.MustAlloc("emit", vb, nil)
	pr := out
	st.binQ.Put(binMsg[V]{kind: binToHost, buf: buf, virtBytes: vb, pairs: &pr})
}

// partitionAndBin runs the Partition substage on the GPU and hands the
// buckets to the bin process, tagged with the producing chunk for the
// exactly-once delivery protocol.
func (st *rankState[V]) partitionAndBin(p *des.Proc, out keyval.Pairs[V], chunkIdx int, spec bool) {
	rt := st.rt
	n := rt.cfg.GPUs
	vb := out.VirtBytes(rt.cfg.ValBytes)
	if out.Len() == 0 && out.VirtLen() == 0 {
		// Nothing to partition: skip the kernel (it would launch with zero
		// threads) and hand the bin process empty buckets so it still sees
		// one message per chunk.
		st.binQ.Put(binMsg[V]{kind: binBuckets, buckets: make([]keyval.Pairs[V], n), chunk: chunkIdx, spec: spec})
		return
	}
	var buckets []keyval.Pairs[V]
	if rt.job.Partitioner == nil || n == 1 {
		// Omitted Partition: all pairs to a single reducer, no kernel.
		buckets = make([]keyval.Pairs[V], n)
		buckets[0] = out
	} else {
		part := rt.job.Partitioner
		// The partition kernel's parallelism tracks the bytes it moves
		// (large values are scattered by many threads), not the pair count.
		threads := out.VirtLen()
		if minT := vb / 64; threads < minT {
			threads = minT
		}
		spec := gpu.KernelSpec{
			Name:             "gpmr.partition",
			Threads:          threads,
			FlopsPerThread:   4,
			BytesRead:        float64(vb),
			BytesWritten:     float64(vb) / 2,
			UncoalescedBytes: float64(vb) / 2, // bucket scatter
		}
		// Explicit input/output: the closure reads only the moved-out pair
		// buffer (this proc owns it; the context's emit buffer was already
		// replaced) and writes only the local buckets slice read after the
		// kernel joins. Partitioner.Rank is pure by contract.
		st.dev.Launch(p, spec, func() {
			buckets = out.Bucket(n, func(k uint32) int { return part.Rank(k, n) })
		})
	}
	st.emitSlots.Acquire(p, 1)
	buf := st.dev.MustAlloc("emit", vb, nil)
	st.binQ.Put(binMsg[V]{kind: binBuckets, buckets: buckets, buf: buf, virtBytes: vb, chunk: chunkIdx, spec: spec})
}

// combineTail streams the host-staged pairs back through the GPU in
// in-core pieces, sorts and groups each piece, runs the Combiner, and
// partitions the combined output (executed once, after all maps — the
// GPMR Combine semantics).
func (st *rankState[V]) combineTail(p *des.Proc) {
	rt := st.rt
	all := st.hostCombine
	st.hostCombine = keyval.Pairs[V]{}
	if all.Len() == 0 {
		return
	}
	valBytes := rt.cfg.ValBytes
	totalVirt := all.VirtLen()
	// Piece size: a quarter of free memory, so a piece plus its
	// equal-sized sort scratch stays within half of free memory even
	// after integer rounding — the same sizing sortStage uses for its
	// external-sort runs.
	pieceVirtBytes := st.dev.MemFree() / 4
	pairVirtBytes := 4 + valBytes
	pieceVirtPairs := pieceVirtBytes / pairVirtBytes
	if pieceVirtPairs < 1 {
		pieceVirtPairs = 1
	}
	pieces := int((totalVirt + pieceVirtPairs - 1) / pieceVirtPairs)
	if pieces < 1 {
		pieces = 1
	}
	physPer := (all.Len() + pieces - 1) / pieces
	if physPer < 1 {
		physPer = 1
	}
	for start := 0; start < all.Len(); start += physPer {
		end := start + physPer
		if end > all.Len() {
			end = all.Len()
		}
		piece := keyval.Pairs[V]{
			Keys: all.Keys[start:end],
			Vals: all.Vals[start:end],
			Virt: totalVirt * int64(end-start) / int64(all.Len()),
		}
		vb := piece.VirtBytes(valBytes)
		buf := st.dev.MustAlloc("combine", vb*2, nil) // data + sort scratch
		st.dev.CopyToDevice(p, vb, nil)
		st.dev.LaunchForNamed(p, "gpmr.combine.sort", rt.sorter.SortCost(st.dev.Props, piece.VirtLen(), valBytes), func() {
			cudpp.SortPairs(piece.Keys, piece.Vals)
		})
		var segs []cudpp.Segment
		st.dev.LaunchForNamed(p, "gpmr.combine.segments", cudpp.SegmentsCost(st.dev.Props, piece.VirtLen()), func() {
			segs = cudpp.Segments(piece.Keys)
		})
		st.mctx.out.Reset()
		st.mctx.out.Grow(len(segs)) // as for Reduce: one pair per value set
		rt.job.Combiner.Combine(st.mctx, piece.Keys, segs, piece.Vals)
		out := st.takeEmitted()
		buf.Free()
		st.partitionAndBin(p, out, -1, false)
	}
}

// binProc is the CPU-side Bin substage: it drains device emit buffers over
// PCIe, stages them with a CPU core, and transmits each reducer's bucket
// with one send — all overlapped with the map process unless the job uses
// Accumulation or a Combiner.
//
// In resilient mode, dequeuing a binBuckets message is a chunk's commit
// point: from here the host process owns the staged data and delivers
// every bucket exactly once (to the partition owners current at each
// send), even if the GPU dies mid-drain. Messages still queued when the
// GPU fails represent emit buffers lost in device memory — they are
// discarded and the scheduler's requeue covers their re-execution.
func (st *rankState[V]) binProc(p *des.Proc) {
	rt := st.rt
	node := rt.g.node(st.rank)
	valBytes := rt.cfg.ValBytes
	for {
		msg := st.binQ.Get(p).(binMsg[V])
		switch msg.kind {
		case binToHost:
			st.dev.CopyToHost(p, msg.virtBytes, nil)
			msg.buf.Free()
			st.emitSlots.Release(1)
			st.hostCombine.AppendPairs(msg.pairs)
		case binBuckets:
			if st.dead() {
				if msg.buf != nil {
					msg.buf.Free()
					st.emitSlots.Release(1)
				}
				break
			}
			if msg.buf != nil {
				if !rt.cfg.GPUDirect {
					st.dev.CopyToHost(p, msg.virtBytes, nil)
				}
				msg.buf.Free()
				st.emitSlots.Release(1)
			}
			if rt.resilient() && msg.chunk >= 0 {
				if !rt.sched.complete(msg.chunk, st.rank) {
					// A twin copy delivered first: discard this output.
					st.tr.ChunksWasted++
					break
				}
				if msg.spec {
					st.tr.SpecWon++
				}
			}
			for dst := range msg.buckets {
				b := &msg.buckets[dst]
				if b.Len() == 0 && b.VirtLen() == 0 {
					continue
				}
				bb := b.VirtBytes(valBytes)
				if !rt.cfg.GPUDirect {
					node.CPUTime(p, 1, des.FromSeconds(float64(bb)/node.Props.MemcpyPerCore))
				}
				payload := *b
				st.send(p, rt.ownerOf(dst), tagPairs, bb, &shufMsg[V]{chunk: msg.chunk, part: dst, pairs: &payload})
			}
		case binEndMaps:
			if st.combineReady != nil {
				st.combineReady.Done()
			}
		case binFinalEnd:
			for dst := 0; dst < rt.cfg.GPUs; dst++ {
				st.send(p, dst, tagEnd, endMsgBytes, nil)
			}
			return
		}
	}
}

// acceptShuffle records one delivery, dropping duplicates from
// speculative twins (the (chunk, partition) key is unique per delivery).
func (st *rankState[V]) acceptShuffle(sm *shufMsg[V]) {
	if st.rt.resilient() && sm.chunk >= 0 {
		k := [2]int{sm.chunk, sm.part}
		if st.seen[k] {
			st.tr.DupDropped++
			return
		}
		st.seen[k] = true
	}
	st.recvd = append(st.recvd, *sm)
}

// relay forwards one shuffle delivery to its partition's current owner —
// the failed rank's host process acting as a proxy for in-flight and
// handed-off traffic.
func (st *rankState[V]) relay(p *des.Proc, sm *shufMsg[V]) {
	bytes := sm.pairs.VirtBytes(st.rt.cfg.ValBytes)
	st.tr.RelayBytes += bytes
	st.send(p, st.rt.ft.owner[sm.part], tagPairs, bytes, sm)
}

// handoff ships everything this now-failed rank had accepted for its
// partitions to their new owner. The GPU is gone but received shuffle
// pairs live in host memory until Sort, so they move over the fabric once
// instead of being re-executed.
func (st *rankState[V]) handoff(p *des.Proc) {
	for i := range st.recvd {
		st.relay(p, &st.recvd[i])
	}
	st.recvd = nil
}

// reduceProc receives this rank's shuffle partitions, runs Sort (in-core
// on the GPU when it fits, external with host merge when it does not),
// then the chunked Reduce, and finally participates in the output gather.
// A rank whose GPU failed keeps the loop alive as a host-side proxy:
// deliveries for reassigned partitions are relayed to their new owner,
// and the loop still terminates on the usual end markers (every host
// process sends them, dead GPU or not).
func (st *rankState[V]) reduceProc(p *des.Proc) {
	defer st.drainStaleControl()
	rt := st.rt
	n := rt.cfg.GPUs
	ends := 0
	for ends < n || rt.ft.relayDone[st.rank] < rt.ft.pendingRelay[st.rank] {
		msg := rt.g.recv(p, st.rank)
		st.countRecv(msg.From, msg.VirtBytes)
		switch msg.Tag {
		case tagPairs:
			sm := msg.Payload.(*shufMsg[V])
			if st.dead() && rt.ft.owner[sm.part] != st.rank {
				st.relay(p, sm)
				break
			}
			st.acceptShuffle(sm)
		case tagEnd:
			ends++
		case tagOut:
			om := msg.Payload.(*outMsg[V])
			rt.gather[om.part] = om.pairs
		case tagFault:
			st.handoff(p)
		case tagRelayDone:
			// Addressed to this rank as a failure's direct successor;
			// counts even if this rank died later — its own exit marker
			// summarizes everything its proxy loop forwarded meanwhile.
			rt.ft.relayDone[st.rank]++
		}
	}
	rt.ft.closed[st.rank] = true
	st.tr.ShuffleDone = p.Now() - rt.start

	if st.dead() && len(rt.partitionsOf(st.rank)) == 0 {
		// Ensure the handoff ran: when the failure fired with the final
		// end marker already queued ahead of the tagFault notification,
		// the loop drained the ends and exited without ever dequeuing it
		// — the accepted pairs must still reach the successor. (No-op if
		// tagFault was processed normally; recvd is already nil then.)
		st.handoff(p)
		// Every sender has ended and every relay stream owed to this
		// rank has terminated, so nothing more can arrive to forward:
		// close this rank's own relay stream for its direct successor.
		st.tr.RelayBytes += endMsgBytes
		st.send(p, rt.ft.relayTo[st.rank], tagRelayDone, endMsgBytes, nil)
		st.tr.SortDone = p.Now() - rt.start
		st.tr.ReduceDone = p.Now() - rt.start
		st.emitPhases()
		st.gatherPhase(p)
		return
	}

	if rt.cfg.DisableSort {
		for _, part := range rt.partitionsOf(st.rank) {
			rt.outs[part] = st.mergedPartition(part)
		}
		st.tr.SortDone = p.Now() - rt.start
		st.tr.ReduceDone = p.Now() - rt.start
		st.emitPhases()
		st.gatherPhase(p)
		return
	}

	for _, part := range rt.partitionsOf(st.rank) {
		st.shuffle = st.mergedPartition(part)
		segs := st.sortStage(p)
		st.tr.SortDone = p.Now() - rt.start
		st.reduceStage(p, segs, part)
		st.tr.ReduceDone = p.Now() - rt.start
		if st.devPairs != nil {
			st.devPairs.Free()
			st.devPairs = nil
		}
	}
	st.recvd = nil
	st.emitPhases()
	st.gatherPhase(p)
}

// emitPhases records the rank's four pipeline phases as flight-recorder
// spans, reconstructed from the RankTrace's cumulative phase stamps. It
// runs once per rank, at the end of reduceProc — MapDone is guaranteed
// set by then (the rank's own end marker is sent after the assignment),
// and emitting all spans from one point keeps the per-stream order
// trivially deterministic.
func (st *rankState[V]) emitPhases() {
	r := st.rt.obs
	if !r.Enabled() {
		return
	}
	base := int64(st.rt.start)
	r.Span(base, base+int64(st.tr.MapDone), obs.CatSim, st.stream, "phase.map",
		obs.Int("chunks", int64(st.tr.ChunksMapped)))
	r.Span(base+int64(st.tr.MapDone), base+int64(st.tr.ShuffleDone), obs.CatSim, st.stream, "phase.shuffle")
	r.Span(base+int64(st.tr.ShuffleDone), base+int64(st.tr.SortDone), obs.CatSim, st.stream, "phase.sort")
	r.Span(base+int64(st.tr.SortDone), base+int64(st.tr.ReduceDone), obs.CatSim, st.stream, "phase.reduce")
}

// drainStaleControl empties leftover fault-control messages from this
// rank's inbox as its receive loop ends. A time-triggered fail-stop can
// land after the rank's final end markers were already queued, leaving
// its tagFault undequeued (the post-loop handoff compensates for the
// missed processing). On a shared cluster the inbox belongs to the
// *global* rank and outlives the job — a leftover control message must
// not leak into the next tenant's shuffle. Anything other than control
// traffic still pending here is a protocol violation and panics.
func (st *rankState[V]) drainStaleControl() {
	for st.rt.g.pending(st.rank) > 0 {
		msg, _ := st.rt.g.tryRecv(st.rank)
		switch msg.Tag {
		case tagFault, tagRelayDone:
			st.countRecv(msg.From, msg.VirtBytes)
		default:
			panic("core: non-control message left in inbox at job end: " + msg.Tag)
		}
	}
}

// mergedPartition concatenates this rank's accepted deliveries for one
// partition in arrival order — exactly what the pipeline built by
// appending on receipt before partitions could be reassigned.
func (st *rankState[V]) mergedPartition(part int) keyval.Pairs[V] {
	var out keyval.Pairs[V]
	n := 0
	for i := range st.recvd {
		if st.recvd[i].part == part {
			n += st.recvd[i].pairs.Len()
		}
	}
	out.Grow(n)
	for i := range st.recvd {
		if st.recvd[i].part == part {
			out.AppendPairs(st.recvd[i].pairs)
		}
	}
	return out
}

// sortStage sorts the received pairs. In-core: one H2D, device radix sort,
// segment extraction — the data stays resident for Reduce. Out-of-core:
// device-sorted runs are staged back to the host and merged there with a
// CPU core, and Reduce later re-uploads each chunk (this extra PCIe
// traffic is what the paper's in-core crossover buys back).
func (st *rankState[V]) sortStage(p *des.Proc) []cudpp.Segment {
	rt := st.rt
	valBytes := rt.cfg.ValBytes
	virtN := st.shuffle.VirtLen()
	if st.shuffle.Len() == 0 {
		return nil
	}
	bytes := st.shuffle.VirtBytes(valBytes)
	node := rt.g.node(st.rank)
	if 2*bytes <= st.dev.MemFree() {
		st.devPairs = st.dev.MustAlloc("sorted", 2*bytes, nil)
		st.dev.CopyToDevice(p, bytes, nil)
		// Kernel closures take explicit inputs (locals bound here) rather
		// than reaching through st: on a pooled backend they run
		// concurrently with every other simulated process, and the
		// explicit binding makes the ownership handoff auditable — these
		// slices are this partition's private merge buffer until the
		// closure joins.
		keys, vals := st.shuffle.Keys, st.shuffle.Vals
		st.dev.LaunchForNamed(p, "gpmr.sort", rt.sorter.SortCost(st.dev.Props, virtN, valBytes), func() {
			cudpp.SortPairs(keys, vals)
		})
		var segs []cudpp.Segment
		st.dev.LaunchForNamed(p, "gpmr.segments", cudpp.SegmentsCost(st.dev.Props, virtN), func() {
			segs = cudpp.Segments(keys)
		})
		st.sortedIn = true
		return segs
	}

	// External sort: split into in-core runs. Runs target a quarter of
	// free memory so that a run plus its sort scratch always fits even
	// after the integer rounding of the physical/virtual split.
	st.tr.OutOfCore = true
	runBytes := st.dev.MemFree() / 4
	if runBytes < 1 {
		runBytes = 1
	}
	runs := int((bytes + runBytes - 1) / runBytes)
	if runs < 2 {
		runs = 2
	}
	physPer := (st.shuffle.Len() + runs - 1) / runs
	for start := 0; start < st.shuffle.Len(); start += physPer {
		end := start + physPer
		if end > st.shuffle.Len() {
			end = st.shuffle.Len()
		}
		runVirt := virtN * int64(end-start) / int64(st.shuffle.Len())
		rb := runVirt * (4 + valBytes)
		buf := st.dev.MustAlloc("sortrun", rb*2, nil)
		st.dev.CopyToDevice(p, rb, nil)
		st.dev.LaunchFor(p, rt.sorter.SortCost(st.dev.Props, runVirt, valBytes), nil)
		st.dev.CopyToHost(p, rb, nil)
		buf.Free()
	}
	// Host k-way merge: one CPU core streams all pairs in and out once.
	node.CPUTime(p, 1, des.FromSeconds(2*float64(bytes)/node.Props.HostMemBW))
	var segs []cudpp.Segment
	cudpp.SortPairs(st.shuffle.Keys, st.shuffle.Vals) // functional equivalent of run-merge
	segs = cudpp.Segments(st.shuffle.Keys)
	st.sortedIn = false
	return segs
}

// reduceStage runs the user's Reducer over the sorted pairs in value-set
// chunks sized by the ChunkValueSets callback, writing the output under
// the partition's identity (stable across owner reassignment).
func (st *rankState[V]) reduceStage(p *des.Proc, segs []cudpp.Segment, part int) {
	rt := st.rt
	if rt.job.Reducer == nil {
		rt.outs[part] = st.shuffle
		return
	}
	if len(segs) == 0 {
		return
	}
	valBytes := rt.cfg.ValBytes
	virtN := st.shuffle.VirtLen()
	totalPhys := st.shuffle.Len()
	rctx := &ReduceContext[V]{
		Rank:       st.rank,
		NumRanks:   rt.cfg.GPUs,
		Dev:        st.dev,
		Proc:       p,
		VirtFactor: rt.cfg.VirtFactor,
	}
	idx := 0
	for idx < len(segs) {
		rem := segs[idx:]
		physRem := totalPhys - segs[idx].Start
		virtRem := virtN * int64(physRem) / int64(totalPhys)
		take := rt.job.Reducer.ChunkValueSets(len(rem), virtRem, st.dev.MemFree())
		if take < 1 {
			take = 1
		}
		if take > len(rem) {
			take = len(rem)
		}
		chunkSegs := rem[:take]
		last := chunkSegs[take-1]
		physPairs := last.Start + last.Count - chunkSegs[0].Start
		virtShare := virtN * int64(physPairs) / int64(totalPhys)
		if !st.sortedIn {
			// Out-of-core: stage this chunk's value sets onto the GPU.
			st.dev.CopyToDevice(p, virtShare*(4+valBytes), nil)
		}
		rctx.out.Reset()
		rctx.out.Grow(take) // the usual reducer emits one pair per value set
		rt.job.Reducer.Reduce(rctx, st.shuffle.Keys, chunkSegs, st.shuffle.Vals)
		out := rctx.out
		rctx.out = keyval.Pairs[V]{}
		st.tr.PairsReduced += virtShare
		if out.Len() > 0 || out.VirtLen() > 0 {
			st.dev.CopyToHost(p, out.VirtBytes(valBytes), nil)
			rt.outs[part].AppendPairs(&out)
		}
		idx += take
	}
}

// gatherPhase ships every partition's output to rank 0 when configured.
// Each rank sends one message per partition it owns, so a reassigned
// partition still arrives under its own identity and the gathered output
// concatenates in partition order regardless of failures.
func (st *rankState[V]) gatherPhase(p *des.Proc) {
	rt := st.rt
	if !rt.cfg.GatherOutput || rt.cfg.GPUs == 1 {
		return
	}
	if st.rank != 0 {
		for _, part := range rt.partitionsOf(st.rank) {
			out := &rt.outs[part]
			st.send(p, 0, tagOut, out.VirtBytes(rt.cfg.ValBytes), &outMsg[V]{part: part, pairs: out})
		}
		return
	}
	expect := 0
	for part := 0; part < rt.cfg.GPUs; part++ {
		if rt.ft.owner[part] != 0 {
			expect++
		}
	}
	have := 0
	for _, g := range rt.gather {
		if g != nil {
			have++
		}
	}
	for have < expect {
		msg := rt.g.recv(p, 0)
		st.countRecv(msg.From, msg.VirtBytes)
		switch msg.Tag {
		case tagOut:
			om := msg.Payload.(*outMsg[V])
			rt.gather[om.part] = om.pairs
			have++
		case tagFault, tagRelayDone:
			// Stale control traffic from a post-shuffle injection; ignore.
		default:
			panic("core: unexpected message during gather: " + msg.Tag)
		}
	}
}
