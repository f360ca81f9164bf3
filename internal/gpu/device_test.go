package gpu

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/des"
)

func testDevice(eng *des.Engine) *Device {
	link := des.NewResource(eng, "pcie", 1)
	return NewDevice(eng, 0, GT200(), link, PCIeGen2x16())
}

func TestKernelCostComputeBound(t *testing.T) {
	pr := GT200()
	spec := KernelSpec{
		Name:           "mm-tile",
		Threads:        pr.MaxResidentThreads,
		FlopsPerThread: 1e6,
		BytesRead:      1024,
	}
	got := spec.Cost(pr)
	wantSec := float64(spec.Threads) * spec.FlopsPerThread / pr.SustainedFlops
	want := pr.LaunchOverhead + des.FromSeconds(wantSec)
	if got != want {
		t.Errorf("compute-bound cost %v, want %v", got, want)
	}
}

func TestKernelCostMemoryBound(t *testing.T) {
	pr := GT200()
	spec := KernelSpec{
		Name:         "streaming",
		Threads:      pr.MaxResidentThreads,
		BytesRead:    1 << 30,
		BytesWritten: 1 << 30,
	}
	got := spec.Cost(pr)
	want := pr.LaunchOverhead + des.FromSeconds(float64(2<<30)/pr.MemBandwidth)
	if got != want {
		t.Errorf("memory-bound cost %v, want %v", got, want)
	}
}

func TestKernelCostUncoalescedPenalty(t *testing.T) {
	pr := GT200()
	co := KernelSpec{Threads: pr.MaxResidentThreads, BytesRead: 1 << 26}.Cost(pr)
	unco := KernelSpec{Threads: pr.MaxResidentThreads, UncoalescedBytes: 1 << 26}.Cost(pr)
	ratio := float64(unco-pr.LaunchOverhead) / float64(co-pr.LaunchOverhead)
	if ratio < pr.UncoalescedPenalty*0.99 || ratio > pr.UncoalescedPenalty*1.01 {
		t.Errorf("uncoalesced ratio %.2f, want ~%.0f", ratio, pr.UncoalescedPenalty)
	}
}

func TestKernelCostSmallLaunchLosesThroughput(t *testing.T) {
	pr := GT200()
	full := KernelSpec{Threads: pr.MaxResidentThreads, FlopsPerThread: 1000}.Cost(pr)
	tiny := KernelSpec{Threads: 32, FlopsPerThread: 1000}.Cost(pr)
	// 32 threads do 1/960 the work of a full launch but should take roughly
	// as long, because they cannot fill the machine.
	if tiny < (full-pr.LaunchOverhead)/2 {
		t.Errorf("tiny launch %v unrealistically fast vs full %v", tiny, full)
	}
}

func TestKernelCostAtomicsAdditive(t *testing.T) {
	pr := GT200()
	base := KernelSpec{Threads: 1024, FlopsPerThread: 10}.Cost(pr)
	withAtomics := KernelSpec{Threads: 1024, FlopsPerThread: 10, Atomics: 6e6, AtomicConflict: 2}.Cost(pr)
	wantExtra := des.FromSeconds(6e6 * 2 / pr.AtomicThroughput)
	extra := withAtomics - base
	if extra < wantExtra*99/100 || extra > wantExtra*101/100 {
		t.Errorf("atomic surcharge %v, want ~%v", extra, wantExtra)
	}
}

func TestKernelCostZeroThreads(t *testing.T) {
	pr := GT200()
	if got := (KernelSpec{}).Cost(pr); got != pr.LaunchOverhead {
		t.Errorf("empty kernel cost %v, want launch overhead %v", got, pr.LaunchOverhead)
	}
}

func TestAllocAccounting(t *testing.T) {
	eng := des.NewEngine()
	d := testDevice(eng)
	a := d.MustAlloc("a", 400<<20, nil)
	if d.MemUsed() != 400<<20 {
		t.Fatalf("used %d", d.MemUsed())
	}
	b, err := d.Alloc("b", 700<<20, nil)
	if err == nil {
		t.Fatalf("expected OOM, got buffer %v", b)
	}
	var oom *ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Fatalf("error type %T", err)
	}
	if oom.Free != d.MemFree() {
		t.Errorf("oom.Free=%d, MemFree=%d", oom.Free, d.MemFree())
	}
	a.Free()
	if d.MemUsed() != 0 {
		t.Errorf("after free used=%d", d.MemUsed())
	}
}

func TestDoubleFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	eng := des.NewEngine()
	d := testDevice(eng)
	b := d.MustAlloc("b", 10, nil)
	b.Free()
	b.Free()
}

func TestLaunchOccupiesComputeEngine(t *testing.T) {
	eng := des.NewEngine()
	d := testDevice(eng)
	spec := KernelSpec{Threads: d.MaxResidentThreads, FlopsPerThread: 1e5}
	single := spec.Cost(d.Props)
	var end des.Time
	for i := 0; i < 2; i++ {
		eng.Spawn("launcher", func(p *des.Proc) {
			d.Launch(p, spec, nil)
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	eng.Run()
	if end != 2*single {
		t.Errorf("two kernels on one engine ended at %v, want %v", end, 2*single)
	}
}

func TestCopyOverlapsCompute(t *testing.T) {
	eng := des.NewEngine()
	d := testDevice(eng)
	kernel := KernelSpec{Threads: d.MaxResidentThreads, FlopsPerThread: 1e5}
	kcost := kernel.Cost(d.Props)
	copyBytes := int64(float64(kcost.Seconds()) * d.pcieBW) // sized to match kernel time
	var kEnd, cEnd des.Time
	eng.Spawn("compute", func(p *des.Proc) {
		d.Launch(p, kernel, nil)
		kEnd = p.Now()
	})
	eng.Spawn("copy", func(p *des.Proc) {
		d.CopyToDevice(p, copyBytes, nil)
		cEnd = p.Now()
	})
	total := eng.Run()
	serial := kEnd + cEnd
	if total >= serial {
		t.Errorf("no overlap: total %v, serialized %v", total, serial)
	}
}

func TestTwoCopiesSerializeOnOneEngine(t *testing.T) {
	eng := des.NewEngine()
	d := testDevice(eng)
	one := d.pcieLat + des.FromSeconds(float64(64<<20)/d.pcieBW)
	var last des.Time
	for i := 0; i < 2; i++ {
		eng.Spawn("cp", func(p *des.Proc) {
			d.CopyToHost(p, 64<<20, nil)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	eng.Run()
	if last != 2*one {
		t.Errorf("two copies ended at %v, want %v", last, 2*one)
	}
}

func TestSharedPCIeLinkContention(t *testing.T) {
	eng := des.NewEngine()
	link := des.NewResource(eng, "pcie", 1)
	d0 := NewDevice(eng, 0, GT200(), link, PCIeGen2x16())
	d1 := NewDevice(eng, 1, GT200(), link, PCIeGen2x16())
	var end des.Time
	for _, d := range []*Device{d0, d1} {
		dev := d
		eng.Spawn("cp", func(p *des.Proc) {
			dev.CopyToDevice(p, 64<<20, nil)
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	eng.Run()
	one := PCIeGen2x16().Latency + des.FromSeconds(float64(64<<20)/PCIeGen2x16().Bandwidth)
	if end != 2*one {
		t.Errorf("shared-link copies ended at %v, want serialized %v", end, 2*one)
	}
}

func TestLaunchRunsFunctionalWork(t *testing.T) {
	eng := des.NewEngine()
	d := testDevice(eng)
	data := make([]int, 8)
	eng.Spawn("k", func(p *des.Proc) {
		d.Launch(p, KernelSpec{Name: "fill", Threads: 8}, func() {
			for i := range data {
				data[i] = i * i
			}
		})
	})
	eng.Run()
	for i, v := range data {
		if v != i*i {
			t.Fatalf("data[%d]=%d", i, v)
		}
	}
}

// Property: kernel cost is monotone in each work dimension.
func TestPropertyKernelCostMonotone(t *testing.T) {
	pr := GT200()
	f := func(th uint32, fl, rd, wr, unc uint32) bool {
		base := KernelSpec{
			Threads:          int64(th%1_000_000) + 1,
			FlopsPerThread:   float64(fl % 10_000),
			BytesRead:        float64(rd),
			BytesWritten:     float64(wr),
			UncoalescedBytes: float64(unc),
		}
		c0 := base.Cost(pr)
		more := base
		more.FlopsPerThread += 1000
		more.BytesRead += 1 << 20
		more.UncoalescedBytes += 1 << 20
		return more.Cost(pr) >= c0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: alloc/free leaves accounting balanced.
func TestPropertyAllocFreeBalanced(t *testing.T) {
	f := func(sizes []uint16) bool {
		eng := des.NewEngine()
		d := testDevice(eng)
		var bufs []*Buffer
		for _, s := range sizes {
			b, err := d.Alloc("x", int64(s), nil)
			if err != nil {
				continue
			}
			bufs = append(bufs, b)
		}
		for _, b := range bufs {
			b.Free()
		}
		return d.MemUsed() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
