// Package sim provides the synchronous multi-channel network simulator.
//
// Per slot, every live node performs exactly one primitive — Transmit,
// Listen, or Idle — and the engine collects one action from every live
// node, resolves the slot with the SINR layer (internal/phy), and delivers
// the outcomes. This matches the paper's synchronized-round model (Sec. 2):
// in each slot a node selects one of the F channels and either transmits or
// listens on it.
//
// # One engine, two ways to write a node
//
// The engine drives Steppers: protocol state held in an explicit struct and
// advanced by one Step call per slot in which the node is awake, inline on
// the engine goroutine (or on step workers when many nodes are awake). A
// protocol that reads best as straight-line code is written as a Program
// instead: Run/RunContext wrap each Program with Coroutine, a Stepper that
// resumes the Program once per Step and suspends it again at its next
// primitive. Either way the action lands in a per-node pending slot that
// the engine scans in node order, so transcripts depend only on (seed,
// topology, protocols), never on scheduling. Frag pieces compose both
// forms: a Stepper feeds them directly, a Program through Ctx.Run.
//
// # Crash boundary
//
// From its fault-injected crash slot on, a node performs no radio action. A
// Stepper is simply not stepped again. A Program is resumed once more at
// its crash slot: the code between its last primitive and the next one
// runs, and that next primitive unwinds the Program (running its defers)
// instead of acting. When a run aborts — MaxSlots, cancellation, a
// panicking node — every suspended Program is unwound the same way before
// Run returns, so no coroutine outlives its run.
//
// # Idle wake-wheel
//
// IdleFor(k) takes a node off the awake list for k slots, registered in a
// calendar queue keyed by wake slot (wheel.go). Sleeping nodes cost nothing
// per slot; the engine pops one wheel bucket per slot to wake the nodes
// whose batch just ended, so mixed active/idle populations fast-forward
// past the sleepers.
//
// Determinism: node protocols draw randomness only from their Rand, a
// per-node stream derived from (run seed, node ID), and slot resolution is
// order-independent, so a run's transcript is a pure function of (seed,
// topology, protocols) regardless of how many workers step the nodes.
package sim

import (
	"context"
	"fmt"
	"sync"

	"mcnet/internal/model"
	"mcnet/internal/phy"
)

// Program is the protocol executed by one node as straight-line code: each
// primitive on ctx blocks until the slot it acts in resolves. Returning
// means the node powers down for the remainder of the run (it neither
// transmits nor listens).
type Program func(ctx *Ctx)

// Event is an instrumentation record emitted by a node via Ctx.Emit.
// Events are for measurement only; protocols must not read them.
type Event struct {
	Slot  int
	Node  int
	Name  string
	Value int
}

// TraceFn observes every resolved slot. Slices are only valid during the
// call.
type TraceFn func(slot int, txs []phy.Tx, rxs []phy.Rx, recs []phy.Reception)

// FaultInjector perturbs slot resolution (see internal/fault). All methods
// are called from the engine goroutine — BeginSlot before each slot is
// resolved, FilterTransmission once per collected transmission (in node
// order) before resolution, FilterReception once per listener (in node
// order) after resolution and before Trace observes the slot — except
// CrashSlot, which is read once per node at run start. The call sites and
// their ordering do not depend on how many workers step the nodes;
// implementations must be deterministic functions of their own seed, the
// (slot, node, channel) arguments, and state observed through these same
// calls, so transcripts stay reproducible.
type FaultInjector interface {
	// BeginSlot runs before the slot is resolved and may reconfigure
	// per-slot channel jamming on the field.
	BeginSlot(slot int, field *phy.Field)
	// FilterTransmission may rewrite a transmission's message (Byzantine
	// corruption or equivocation) or remove it from the slot entirely by
	// returning ok == false (a dropped transmission radiates no power).
	FilterTransmission(slot int, tx phy.Tx) (out phy.Tx, ok bool)
	// FilterReception may suppress or degrade one listener's reception on
	// the given channel.
	FilterReception(slot, node, channel int, rec phy.Reception) phy.Reception
	// CrashSlot returns the first slot at which the node is dead — it
	// performs no radio action at that slot or later — or a value above
	// any reachable slot if the node never crashes.
	CrashSlot(node int) int
}

// Engine drives a set of node protocols over a phy.Field.
type Engine struct {
	// MaxSlots aborts the run if the nodes have not all powered down by
	// then. Zero means DefaultMaxSlots.
	MaxSlots int
	// Trace, when non-nil, observes every resolved slot.
	Trace TraceFn
	// NodeParams, when non-nil, is what Ctx.Params reports to protocols
	// instead of the field's true parameters — the Sec. 2 setting where
	// nodes know only (possibly conservative) estimates of the SINR
	// parameters while physics follows the truth.
	NodeParams *model.Params
	// EventSink, when non-nil, observes every event as it is emitted, in
	// addition to the recorded Events() log. Calls are serialized (one at a
	// time) but may come from the engine goroutine or any step worker, and
	// stall the slot; keep sinks fast.
	EventSink func(Event)
	// Faults, when non-nil, injects message loss, channel jamming and node
	// crashes into every run (see internal/fault). Set it before Run; a
	// zero-intensity injector leaves transcripts bit-identical to running
	// with Faults == nil.
	Faults FaultInjector

	field *phy.Field
	seed  uint64

	mu     sync.Mutex
	events []Event
	// sinkMu serializes EventSink calls without holding mu, so a slow sink
	// cannot stall Events()/ResetEvents() and a sink may safely read them.
	sinkMu sync.Mutex
}

// DefaultMaxSlots bounds runaway runs; protocols in this repo all use
// explicit schedules far below it.
const DefaultMaxSlots = 1 << 22

// NewEngine creates an engine over the given field. The seed determines all
// protocol randomness.
func NewEngine(field *phy.Field, seed uint64) *Engine {
	return &Engine{field: field, seed: seed}
}

// Field returns the engine's physical layer.
func (e *Engine) Field() *phy.Field { return e.field }

// Events returns the instrumentation events emitted during runs so far.
// Ordering between different nodes' events within a slot is unspecified.
func (e *Engine) Events() []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Event, len(e.events))
	copy(out, e.events)
	return out
}

// ResetEvents discards recorded events.
func (e *Engine) ResetEvents() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.events = nil
}

func (e *Engine) emit(ev Event) {
	e.mu.Lock()
	e.events = append(e.events, ev)
	sink := e.EventSink
	e.mu.Unlock()
	if sink != nil {
		e.sinkMu.Lock()
		sink(ev)
		e.sinkMu.Unlock()
	}
}

type actKind uint8

const (
	actTransmit actKind = iota
	actListen
	actIdle
	// actIdleLong declares an IdleFor batch: the node idles for count
	// consecutive slots and leaves the awake list until they elapse.
	actIdleLong
	// actIdleHold marks a node mid-batch: the engine rewrites actIdleLong
	// to this after registering the wakeup, so continuation slots treat the
	// node as idle without re-registering it.
	actIdleHold
)

type action struct {
	kind actKind
	ch   int
	msg  any
	// count is the slot span of an actIdleLong batch.
	count int
}

// Run executes one program per node until all programs return, then reports
// the number of slots consumed. Every call starts at slot 0: Ctx.Slot and
// event timestamps count from the start of this run, not across runs on
// the same engine. Each program runs as a Coroutine; a nil entry powers
// that node down.
func (e *Engine) Run(programs []Program) (slots int, err error) {
	return e.RunContext(context.Background(), programs)
}

// RunContext is like Run but aborts the round loop as soon as ctx is
// cancelled, returning ctx.Err(). Cancellation is observed once per slot,
// so it takes effect promptly even during long schedules.
func (e *Engine) RunContext(ctx context.Context, programs []Program) (slots int, err error) {
	if n := e.field.N(); n > 0 && len(programs) != n {
		return 0, fmt.Errorf("sim: %d programs for %d nodes", len(programs), n)
	}
	steppers := make([]Stepper, len(programs))
	for i, prog := range programs {
		if prog != nil {
			steppers[i] = Coroutine(prog)
		}
	}
	return e.RunSteppersContext(ctx, steppers)
}

// RunSteppers executes one Stepper per node until every node has called
// Done (or crashed), then reports the number of slots consumed. A nil entry
// powers that node down. Every call starts at slot 0.
func (e *Engine) RunSteppers(steppers []Stepper) (slots int, err error) {
	return e.RunSteppersContext(context.Background(), steppers)
}

// RunSteppersContext combines RunSteppers and RunContext.
func (e *Engine) RunSteppersContext(ctx context.Context, steppers []Stepper) (slots int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := e.field.N()
	if n == 0 {
		return 0, nil
	}
	if len(steppers) != n {
		return 0, fmt.Errorf("sim: %d steppers for %d nodes", len(steppers), n)
	}
	maxSlots := e.MaxSlots
	if maxSlots <= 0 {
		maxSlots = DefaultMaxSlots
	}
	nodeParams := e.field.Params()
	if e.NodeParams != nil {
		nodeParams = *e.NodeParams
	}
	sr := newSteppedRun(e, steppers, nodeParams)
	rec := &panicRecorder{}

	// nActive counts live nodes and decides termination. The wheel holds
	// every sleeping node keyed by the slot it acts again in.
	nActive := len(sr.awake)
	wheel := newWakeWheel()
	due := make([]int32, 0, 64)

	// The run's slot arena: action and reception buffers sized for every
	// node once up front, and the field's struct-of-arrays / grid-bin
	// scratch presized to match, so the steady-state slot pipeline —
	// step, collect, resolve, deliver — allocates nothing.
	txs := make([]phy.Tx, 0, n)
	rxs := make([]phy.Rx, 0, n)
	e.field.Reserve(n, n)

	slot := 0
	for {
		if nActive == 0 {
			return slot, nil
		}
		txs, rxs = txs[:0], rxs[:0]
		if len(sr.awake) > 0 {
			// Each awake node deposits its action for this slot into
			// pending.
			sr.stepAll(slot, rec)
			if pErr := rec.get(); pErr != nil {
				sr.abort()
				return slot, pErr
			}
			// Collect the slot while retiring finished nodes and
			// registering fresh IdleFor batches — one pass in node order.
			for i := 0; i < n; i++ {
				if sr.state[i] != stepAwake {
					continue
				}
				if sr.ctxs[i].ended {
					sr.state[i] = stepDead
					nActive--
					continue
				}
				switch sr.pending[i].kind {
				case actTransmit:
					txs = append(txs, phy.Tx{Node: i, Channel: sr.pending[i].ch, Msg: sr.pending[i].msg})
				case actListen:
					rxs = append(rxs, phy.Rx{Node: i, Channel: sr.pending[i].ch})
				case actIdleLong:
					// A fresh IdleFor batch: the node idles from this slot
					// through slot+count-1 and sleeps through those slots.
					wheel.add(i, slot+sr.pending[i].count)
					sr.pending[i].kind = actIdleHold
					sr.state[i] = stepSleeping
				}
			}
			sr.compact()
			if nActive == 0 {
				return slot, nil
			}
		}
		// else: every live node sleeps mid-IdleFor, so the engine advances
		// the (empty) slot directly.
		if err := ctx.Err(); err != nil {
			sr.abort()
			return slot, err
		}
		if slot >= maxSlots {
			sr.abort()
			return slot, fmt.Errorf("sim: exceeded MaxSlots = %d with %d nodes still live", maxSlots, nActive)
		}

		if e.Faults != nil {
			e.Faults.BeginSlot(slot, e.field)
			// Byzantine corruption point: each transmission may be rewritten
			// or removed before the SINR layer sees it. txs is in node order
			// (the collect pass scans nodes ascending), so the injector's
			// call sequence is identical across worker counts.
			kept := txs[:0]
			for _, tx := range txs {
				if ftx, ok := e.Faults.FilterTransmission(slot, tx); ok {
					kept = append(kept, ftx)
				}
			}
			txs = kept
		}
		recs := e.field.Resolve(txs, rxs)
		if e.Faults != nil {
			// Apply the loss process before Trace so observers and nodes
			// see the same post-fault world. recs is the field's scratch;
			// rewriting it in place is safe until the next Resolve.
			for k := range recs {
				recs[k] = e.Faults.FilterReception(slot, rxs[k].Node, rxs[k].Channel, recs[k])
			}
		}
		if e.Trace != nil {
			e.Trace(slot, txs, rxs, recs)
		}

		// Deliver outcomes: rxs is in node order, so listener k of the
		// slot gets recs[k]. Transmit and Idle discard their result slot,
		// so non-listen entries keep their stale contents untouched.
		for k, rx := range rxs {
			sr.results[rx.Node] = recs[k]
		}
		slot++

		// Sleepers due now rejoin the awake list and are stepped at the top
		// of the loop.
		due = wheel.pop(slot, due[:0])
		for _, id := range due {
			sr.state[id] = stepAwake
			sr.awake = append(sr.awake, id)
		}
	}
}
