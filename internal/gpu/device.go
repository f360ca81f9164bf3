package gpu

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/obs"
)

// Device is one simulated GPU. Its compute engine and copy engine are
// separate des.Resources, so kernels overlap PCIe transfers exactly as on
// hardware with one DMA engine. The PCIe link resource is supplied by the
// node model and may be shared between devices (as on the Tesla S1070,
// where GPU pairs share a host interface card).
type Device struct {
	Props
	ID int

	compute *des.Resource
	copyEng *des.Resource

	pcie    *des.Resource
	pcieBW  float64
	pcieLat des.Time
	memUsed int64
	derate  float64 // heterogeneity factor: >1 stretches kernel & PCIe durations
	exec    Backend // runs kernels' functional closures (default Serial)
	// Flight recorder (nil = disabled) and this device's precomputed
	// stream keys, so the hot path never formats strings.
	rec      *obs.Recorder
	csStream string
	cpStream string
}

// NewDevice creates a device attached to the given PCIe link resource.
func NewDevice(eng *des.Engine, id int, pr Props, pcieLink *des.Resource, pcieProps PCIeProps) *Device {
	return &Device{
		Props:   pr,
		ID:      id,
		compute: des.NewResource(eng, fmt.Sprintf("gpu%d.compute", id), 1),
		copyEng: des.NewResource(eng, fmt.Sprintf("gpu%d.copy", id), pr.CopyEngines),
		pcie:    pcieLink,
		pcieBW:  pcieProps.Bandwidth,
		pcieLat: pcieProps.Latency,
		exec:    Serial{},

		csStream: fmt.Sprintf("gpu%d.compute", id),
		cpStream: fmt.Sprintf("gpu%d.copy", id),
	}
}

// SetObs attaches a flight recorder; kernel launches become spans on the
// "gpuN.compute" stream and DMA transfers on "gpuN.copy". Span boundaries
// are resource-grant and completion times, which the backend-invariance
// and shard-invariance guarantees make identical under any host
// configuration — recorded traces diff byte-for-byte across backends.
func (d *Device) SetObs(r *obs.Recorder) { d.rec = r }

// SetBackend selects the execution backend for this device's kernel
// closures; nil restores the Serial default. Devices of one cluster share
// a backend so host cores are pooled across all simulated GPUs.
func (d *Device) SetBackend(b Backend) {
	if b == nil {
		b = Serial{}
	}
	d.exec = b
}

// SetDerate stretches all subsequent kernel and PCIe durations on this
// device by factor (>1 = slower; values below 1 clamp to nominal). It
// models heterogeneous-slow or throttled GPUs — the straggler half of the
// fault-injection machinery. Operations already in progress finish at
// their original speed.
func (d *Device) SetDerate(factor float64) {
	if factor < 1 {
		factor = 1
	}
	d.derate = factor
}

// DerateFactor returns the current derating multiplier (1 = nominal).
func (d *Device) DerateFactor() float64 {
	if d.derate < 1 {
		return 1
	}
	return d.derate
}

// scaled applies the device's derating factor to a duration.
func (d *Device) scaled(t des.Time) des.Time {
	if d.derate > 1 {
		return des.Time(float64(t) * d.derate)
	}
	return t
}

// MemUsed returns the currently allocated device memory in virtual bytes.
func (d *Device) MemUsed() int64 { return d.memUsed }

// MemFree returns the remaining device memory in virtual bytes.
func (d *Device) MemFree() int64 { return d.MemBytes - d.memUsed }

// Buffer is an allocation in simulated device memory. Data holds the
// host-side payload that stands in for device contents; VirtBytes is the
// size the allocation would have at paper scale and is what capacity
// accounting and transfer costs use.
type Buffer struct {
	dev       *Device
	name      string
	virtBytes int64
	freed     bool
	Data      any
}

// ErrOutOfMemory is returned by Alloc when the device cannot hold the
// requested buffer; GPMR's out-of-core machinery reacts to it by spilling.
type ErrOutOfMemory struct {
	Device    int
	Requested int64
	Free      int64
}

func (e *ErrOutOfMemory) Error() string {
	return fmt.Sprintf("gpu%d: out of memory: requested %d bytes, %d free", e.Device, e.Requested, e.Free)
}

// Alloc reserves virtBytes of device memory and attaches data as the
// functional payload.
func (d *Device) Alloc(name string, virtBytes int64, data any) (*Buffer, error) {
	if virtBytes < 0 {
		panic("gpu: negative allocation")
	}
	if d.memUsed+virtBytes > d.MemBytes {
		return nil, &ErrOutOfMemory{Device: d.ID, Requested: virtBytes, Free: d.MemFree()}
	}
	d.memUsed += virtBytes
	return &Buffer{dev: d, name: name, virtBytes: virtBytes, Data: data}, nil
}

// MustAlloc is Alloc for callers that have already sized their request to
// fit (chunk planners); it panics on exhaustion to surface planner bugs.
func (d *Device) MustAlloc(name string, virtBytes int64, data any) *Buffer {
	b, err := d.Alloc(name, virtBytes, data)
	if err != nil {
		panic(err)
	}
	return b
}

// VirtBytes returns the buffer's size at paper scale.
func (b *Buffer) VirtBytes() int64 { return b.virtBytes }

// Free releases the buffer's device memory. Freeing twice is a bug.
func (b *Buffer) Free() {
	if b.freed {
		panic("gpu: double free of buffer " + b.name)
	}
	b.freed = true
	b.dev.memUsed -= b.virtBytes
	b.Data = nil
}

// Launch runs a kernel: fn performs the functional work in host code —
// inline on the Serial backend, concurrently on a Pool worker — while the
// calling process occupies the compute engine for the kernel's modeled
// duration. The closure is joined no later than the kernel's simulated
// completion, so its effects are always visible when Launch returns and
// the DES schedule is backend-independent. It returns the duration.
func (d *Device) Launch(p *des.Proc, spec KernelSpec, fn func()) des.Time {
	cost := d.scaled(spec.Cost(d.Props))
	d.compute.Acquire(p, 1)
	t0 := p.Now()
	fut := d.exec.Start(p.Engine(), spec.Name, fn)
	p.Sleep(cost)
	if fut != nil {
		fut.Join()
	}
	if d.rec.Enabled() {
		d.rec.Span(int64(t0), int64(p.Now()), obs.CatSim, d.csStream, "kernel",
			obs.A("name", spec.Name))
	}
	d.compute.Release(1)
	return cost
}

// LaunchFor runs a kernel sequence with a precomputed aggregate cost
// (multi-pass primitives like radix sort), holding the compute engine for
// the whole duration. The closure joins at simulated completion, as in
// Launch. Prefer LaunchForNamed where a kernel name is known — it is what
// leak and panic diagnostics print.
func (d *Device) LaunchFor(p *des.Proc, cost des.Time, fn func()) des.Time {
	return d.LaunchForNamed(p, "kernelseq", cost, fn)
}

// LaunchForNamed is LaunchFor with an explicit kernel-sequence name for
// diagnostics (future leak reports and pooled-closure panics).
func (d *Device) LaunchForNamed(p *des.Proc, name string, cost des.Time, fn func()) des.Time {
	cost = d.scaled(cost)
	d.compute.Acquire(p, 1)
	t0 := p.Now()
	fut := d.exec.Start(p.Engine(), name, fn)
	p.Sleep(cost)
	if fut != nil {
		fut.Join()
	}
	if d.rec.Enabled() {
		d.rec.Span(int64(t0), int64(p.Now()), obs.CatSim, d.csStream, "kernel",
			obs.A("name", name))
	}
	d.compute.Release(1)
	return cost
}

// transfer models one PCIe DMA: the copy engine and the (possibly shared)
// link are held for the transfer duration. dir is the recorded direction
// attribute ("h2d" or "d2h").
func (d *Device) transfer(p *des.Proc, dir string, virtBytes int64, fn func()) des.Time {
	dur := d.scaled(d.pcieLat + des.FromSeconds(float64(virtBytes)/d.pcieBW))
	d.copyEng.Acquire(p, 1)
	d.pcie.Acquire(p, 1)
	t0 := p.Now()
	if fn != nil {
		fn()
	}
	p.Sleep(dur)
	if d.rec.Enabled() {
		d.rec.Span(int64(t0), int64(p.Now()), obs.CatSim, d.cpStream, "copy",
			obs.A("dir", dir), obs.Int("bytes", virtBytes))
	}
	d.pcie.Release(1)
	d.copyEng.Release(1)
	return dur
}

// CopyToDevice models a host→device transfer of virtBytes; fn (optional)
// installs the functional payload.
func (d *Device) CopyToDevice(p *des.Proc, virtBytes int64, fn func()) des.Time {
	return d.transfer(p, "h2d", virtBytes, fn)
}

// CopyToHost models a device→host transfer of virtBytes.
func (d *Device) CopyToHost(p *des.Proc, virtBytes int64, fn func()) des.Time {
	return d.transfer(p, "d2h", virtBytes, fn)
}
