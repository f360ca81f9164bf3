package core

import (
	"repro/internal/des"
	"repro/internal/gpu"
	"repro/internal/keyval"
)

// MapContext is the mapper's window onto the device and the pipeline. One
// context lives per rank for the whole map stage, so accumulation state
// carries across chunks.
//
// Closure-capture contract: a kernel closure passed to Launch/LaunchFor
// may run on a real worker goroutine, concurrently with every other
// simulated process, and joins no later than the kernel's simulated
// completion (see gpu.Backend). Inside the closure, only touch state this
// rank's map process owns — the context's emission buffer (Emit), its
// Resident() pairs, the chunk being mapped, and locals of the enclosing
// Map call — plus immutable shared inputs (lookup tables, centers,
// matrices). Never call the context's Launch/LaunchFor, the
// device, or any des primitive from inside a closure, and never touch
// state reachable from another rank. Everything outside the closure runs
// on the simulated process as before.
type MapContext[V any] struct {
	Rank     int
	NumRanks int
	Dev      *gpu.Device
	Proc     *des.Proc

	// VirtFactor is the job's virtual replication factor; mappers multiply
	// physical emission counts by it when declaring virtual counts.
	VirtFactor int64

	out      keyval.Pairs[V]
	resident keyval.Pairs[V]
}

// Launch runs a kernel on this rank's GPU, charging the map stage.
func (c *MapContext[V]) Launch(spec gpu.KernelSpec, fn func()) des.Time {
	return c.Dev.Launch(c.Proc, spec, fn)
}

// LaunchFor charges a precomputed kernel-sequence cost. Prefer
// LaunchForNamed where a kernel name is known.
func (c *MapContext[V]) LaunchFor(cost des.Time, fn func()) des.Time {
	return c.Dev.LaunchFor(c.Proc, cost, fn)
}

// LaunchForNamed is LaunchFor with an explicit kernel-sequence name for
// leak and panic diagnostics.
func (c *MapContext[V]) LaunchForNamed(name string, cost des.Time, fn func()) des.Time {
	return c.Dev.LaunchForNamed(c.Proc, name, cost, fn)
}

// Emit appends one pair to the current chunk's output.
func (c *MapContext[V]) Emit(key uint32, val V) { c.out.Append(key, val) }

// SetEmittedVirt overrides the virtual pair count of the current chunk's
// emissions; mappers whose emission count scales with input size set this
// to physical × VirtFactor.
func (c *MapContext[V]) SetEmittedVirt(n int64) { c.out.Virt = n }

// Emitted exposes the current chunk's output buffer (for PartialReducers).
func (c *MapContext[V]) Emitted() *keyval.Pairs[V] { return &c.out }

// Resident returns the GPU-resident accumulation pairs. Only meaningful
// when Config.Accumulate is set; the mapper updates these in place and the
// framework transfers them once after the last chunk. The buffer's Virt
// field must be kept accurate by the mapper (for accumulation apps the
// resident set is typically small and independent of input size).
func (c *MapContext[V]) Resident() *keyval.Pairs[V] { return &c.resident }

// ReduceContext is the reducer's window onto the device. Kernel closures
// obey the same capture contract as MapContext's: touch only this rank's
// reduce-owned state (the context's emission buffer, the sorted
// keys/segs/vals slices passed to Reduce) and immutable shared inputs.
type ReduceContext[V any] struct {
	Rank     int
	NumRanks int
	Dev      *gpu.Device
	Proc     *des.Proc

	VirtFactor int64

	out keyval.Pairs[V]
}

// Launch runs a kernel on this rank's GPU, charging the reduce stage.
func (c *ReduceContext[V]) Launch(spec gpu.KernelSpec, fn func()) des.Time {
	return c.Dev.Launch(c.Proc, spec, fn)
}

// Emit appends one final pair.
func (c *ReduceContext[V]) Emit(key uint32, val V) { c.out.Append(key, val) }

// SetEmittedVirt overrides the virtual count of the reduce output emitted
// so far in this call.
func (c *ReduceContext[V]) SetEmittedVirt(n int64) { c.out.Virt = n }
