package des

import "fmt"

// Resource models a capacity-limited facility (a bus, a compute engine, a
// pool of CPU cores). Acquire requests are granted FIFO; a request never
// overtakes an earlier one even if the earlier request needs more units than
// are currently free. This models real hardware queues (PCIe, NIC DMA rings)
// and keeps simulations deterministic and starvation-free.
type Resource struct {
	name    string
	cap     int
	held    int
	waiters []resWaiter
}

type resWaiter struct {
	proc *Proc
	n    int
	ok   *bool // set true when granted, read by the waiter after wake
}

// NewResource creates a resource with the given capacity (units).
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("des: resource capacity must be positive")
	}
	return &Resource{name: name, cap: capacity}
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// Cap returns the resource's capacity.
func (r *Resource) Cap() int { return r.cap }

// Acquire blocks p until n units are available and then holds them.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 {
		panic("des: Acquire of non-positive unit count")
	}
	if n > r.cap {
		panic(fmt.Sprintf("des: Acquire(%d) exceeds capacity %d of %s", n, r.cap, r.name))
	}
	if len(r.waiters) == 0 && r.held+n <= r.cap {
		r.held += n
		return
	}
	granted := false
	r.waiters = append(r.waiters, resWaiter{proc: p, n: n, ok: &granted})
	p.park()
	if !granted {
		panic("des: resource waiter woken without grant")
	}
}

// Release returns n units and grants queued waiters FIFO.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.held {
		panic(fmt.Sprintf("des: Release(%d) with %d held on %s", n, r.held, r.name))
	}
	r.held -= n
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		if r.held+w.n > r.cap {
			break // strict FIFO: head blocks the line
		}
		r.waiters = r.waiters[1:]
		r.held += w.n
		*w.ok = true
		w.proc.eng.wake(w.proc)
	}
}

// Use acquires n units, sleeps for d, and releases: the common pattern of
// occupying a facility for a fixed service time.
func (r *Resource) Use(p *Proc, n int, d Time) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}

// Queue is an unbounded FIFO message queue between processes. Put never
// blocks; Get blocks until an item is available. Multiple getters are served
// in arrival order.
type Queue struct {
	name    string
	items   []any
	waiters []queueWaiter
}

type queueWaiter struct {
	proc *Proc
	slot *any
}

// NewQueue creates an empty queue.
func NewQueue(eng *Engine, name string) *Queue {
	return &Queue{name: name}
}

// Len returns the number of buffered items.
func (q *Queue) Len() int { return len(q.items) }

// Put appends v and wakes the first waiting getter, if any.
func (q *Queue) Put(v any) {
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		*w.slot = v
		w.proc.eng.wake(w.proc)
		return
	}
	q.items = append(q.items, v)
}

// Get removes and returns the oldest item, blocking p while the queue is
// empty.
func (q *Queue) Get(p *Proc) any {
	if len(q.items) > 0 {
		v := q.items[0]
		q.items = q.items[1:]
		return v
	}
	var slot any
	q.waiters = append(q.waiters, queueWaiter{proc: p, slot: &slot})
	p.park()
	return slot
}

// TryGet returns the oldest item without blocking; ok is false if empty.
func (q *Queue) TryGet() (v any, ok bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	v = q.items[0]
	q.items = q.items[1:]
	return v, true
}

// WaitGroup counts outstanding work items, like sync.WaitGroup but in
// simulated time.
type WaitGroup struct {
	count   int
	waiters []*Proc
}

// NewWaitGroup creates a WaitGroup with zero count.
func NewWaitGroup(eng *Engine) *WaitGroup { return &WaitGroup{} }

// Add increments the count by n (n may be negative, like sync.WaitGroup).
func (w *WaitGroup) Add(n int) {
	w.count += n
	if w.count < 0 {
		panic("des: negative WaitGroup counter")
	}
	if w.count == 0 {
		for _, p := range w.waiters {
			p.eng.wake(p)
		}
		w.waiters = nil
	}
}

// Done decrements the count by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks p until the count reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	if w.count == 0 {
		return
	}
	w.waiters = append(w.waiters, p)
	p.park()
}
