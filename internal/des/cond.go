package des

// Cond is a reusable broadcast wait-point: processes park with Wait until
// some other process calls Broadcast, which wakes every current waiter at
// the present simulated time. Unlike a WaitGroup it carries no count and
// can be waited on again after each broadcast — the building block for
// "re-check a shared condition whenever it may have changed" loops (the
// resilient chunk scheduler parks starved ranks on one while chunks may
// still be requeued by a failure or completed elsewhere).
type Cond struct {
	waiters []*Proc
}

// NewCond creates a condition on the engine.
func NewCond(eng *Engine) *Cond { return &Cond{} }

// Wait parks p until the next Broadcast. Callers must re-check their
// condition after waking and wait again if it still does not hold.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park()
}

// Broadcast wakes every process currently waiting. Waiters that park
// after the call wait for the next broadcast. Wakes are delivered on each
// waiter's own engine, so a primitive created on one shard serves
// whichever shard's processes wait on it.
func (c *Cond) Broadcast() {
	waiters := c.waiters
	c.waiters = nil
	for _, p := range waiters {
		p.eng.wake(p)
	}
}
