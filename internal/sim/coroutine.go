//go:build go1.23

package sim

import (
	"iter"
	"math/rand"

	"mcnet/internal/model"
	"mcnet/internal/phy"
)

// coroutine is the Stepper form of a Program: the Program runs as an
// iter.Pull coroutine that each Step resumes up to its next primitive.
type coroutine struct {
	prog Program
	ctx  Ctx
	next func() (struct{}, bool)
	stop func()
}

// Coroutine adapts a Program to the engine's Stepper interface. Each Step
// resumes the Program until it performs its next primitive, which deposits
// the action on the StepCtx and suspends the Program until the slot after;
// a Program that returns calls Done. The Program starts at the node's first
// Step, so a run that never steps the node never starts it.
func Coroutine(prog Program) Stepper { return &coroutine{prog: prog} }

// Step implements Stepper.
func (co *coroutine) Step(sc *StepCtx) {
	if co.next == nil {
		co.ctx = Ctx{Rand: sc.Rand, sc: sc}
		co.next, co.stop = iter.Pull(co.run)
	}
	// A panic in the Program resurfaces here, on the stepping goroutine,
	// and becomes the run error.
	if _, ok := co.next(); !ok {
		sc.Done()
	}
}

// run is the coroutine body: the Program, with the stop-signal unwind of a
// crash or an aborted run turned into a plain return.
func (co *coroutine) run(yield func(struct{}) bool) {
	co.ctx.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stopSignal); !ok {
				panic(r)
			}
		}
	}()
	co.prog(&co.ctx)
}

// unwind ends a suspended Program: its pending primitive panics with the
// stop signal, its defers run, and its goroutine exits. A panic out of a
// defer is dropped — the run is already failing with its own error.
func (co *coroutine) unwind() {
	if co.stop == nil {
		return
	}
	defer func() { _ = recover() }()
	co.stop()
}

// Ctx is a Program's handle to the simulator: a view of the node's StepCtx
// whose primitives deposit the action and then suspend the Program until
// the slot resolves.
type Ctx struct {
	// Rand is this node's private random stream.
	Rand *rand.Rand

	sc    *StepCtx
	yield func(struct{}) bool
}

// ID returns this node's index (the model's unique node ID).
func (c *Ctx) ID() int { return c.sc.id }

// Params returns the model parameters known to the node (SINR ranges,
// channel count, and the polynomial estimate of n).
func (c *Ctx) Params() model.Params { return c.sc.params }

// Slot returns the number of completed slots from this node's perspective.
func (c *Ctx) Slot() int { return c.sc.slot }

// Transmit sends msg on the given channel for one slot. A transmitting node
// learns nothing about concurrent events (no transmitter-side detection).
func (c *Ctx) Transmit(channel int, msg any) {
	c.sc.Transmit(channel, msg)
	c.wait()
}

// Listen receives on the given channel for one slot and returns what was
// observed.
func (c *Ctx) Listen(channel int) phy.Reception {
	c.sc.Listen(channel)
	c.wait()
	return c.sc.Prev()
}

// Idle does nothing for one slot (radio off).
func (c *Ctx) Idle() {
	c.sc.Idle()
	c.wait()
}

// IdleFor idles for k consecutive slots as one batch: the node sleeps off
// the awake list and is resumed when the batch ends. k ≤ 0 is a no-op.
func (c *Ctx) IdleFor(k int) {
	if k <= 0 {
		return
	}
	c.sc.IdleFor(k)
	c.wait()
}

// Run drives a fragment from straight-line code: Feed, then suspend until
// the next slot, until Feed reports the fragment finished. Like the
// fragment in a Stepper, it takes exactly the fragment's slots, and the
// Program continues in the slot where Feed finished.
func (c *Ctx) Run(f Frag) {
	for !f.Feed(c.sc) {
		c.wait()
	}
}

// Emit records an instrumentation event tagged with the current slot.
func (c *Ctx) Emit(name string, value int) { c.sc.Emit(name, value) }

// wait suspends the Program after it deposited a primitive; the engine
// resumes it at the node's next Step. A false yield means the run aborted.
func (c *Ctx) wait() {
	if !c.yield(struct{}{}) {
		panic(stopSignal{})
	}
}
