package layers

import (
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"mcnet"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
	"mcnet/perfbench/harness"
)

// recorder timestamps the two hook boundaries the engine crosses every
// slot. It is installed as the engine's fault injector, passing everything
// through or wrapping a real injector, and as its Trace:
//
//   - step span of slot s: from Trace(s-1) returning to BeginSlot(s) —
//     node stepping, the barrier, collection and the wake-wheel;
//   - resolve span of slot s: from BeginSlot(s) returning to Trace(s),
//     minus the filter calls made in between.
//
// The filter loops are fault time when an injector is wrapped and trace
// overhead otherwise. All methods run on the engine goroutine.
type recorder struct {
	inner  sim.FaultInjector // nil: pass everything through
	stages []mcnet.StageReport
	pairs  *harness.PairCounter
	// decodes, when on, folds every listener's decoded sender into a
	// digest of the run's receptions.
	decodes     bool
	decodeState uint64

	last, beginExit     time.Time
	ftFirst, ftLastExit time.Time
	frFirst             time.Time
	ftSeen, frSeen      bool
	slot                int // the last slot begun, -1 before the first

	acc        []stageAcc // one per stage window; one in all when there are none
	fault      time.Duration
	hook       time.Duration
	maxResolve time.Duration
	listeners  int64
	decoded    int64
	actions    int64

	// Every sampleEvery slots the trace hook reads the heap in use and
	// the goroutine count from the engine goroutine: no sampler goroutine
	// or timer perturbs the run.
	heap           []metrics.Sample
	peakHeap       uint64
	peakGoroutines int
}

// sampleEvery is how many slots apart the trace hook samples the runtime.
const sampleEvery = 32

type stageAcc struct {
	step, resolve time.Duration
	slots, pairs  int64
}

// newRecorder records runs on a deployment with the given stage windows
// (nil: none) and channel count (0 for a recorder that only merges others),
// wrapping inner unless it is nil; decodes turns the decode digest on.
func newRecorder(inner sim.FaultInjector, stages []mcnet.StageReport, channels int, decodes bool) *recorder {
	return &recorder{
		inner:       inner,
		stages:      stages,
		pairs:       harness.NewPairCounter(channels),
		decodes:     decodes,
		decodeState: fnvOffset,
		slot:        -1,
		acc:         make([]stageAcc, max(len(stages), 1)),
		heap:        []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
}

// attach installs the recorder on e.
func (r *recorder) attach(e *sim.Engine) {
	e.Faults = r
	e.Trace = r.trace
}

// stage returns the accumulator of slot's stage window.
func (r *recorder) stage(slot int) *stageAcc {
	return &r.acc[max(harness.StageOf(r.stages, slot), 0)]
}

// run times one engine run. The time from the call to the first BeginSlot
// is the first slot's step; the time from the last Trace to the return is
// the step that found every node finished, attributed to the slot after.
func (r *recorder) run(f func() error) error {
	r.last = time.Now()
	err := f()
	end := time.Now()
	r.stage(r.slot + 1).step += end.Sub(r.last)
	return err
}

// BeginSlot implements sim.FaultInjector.
func (r *recorder) BeginSlot(slot int, field *phy.Field) {
	t := time.Now()
	r.stage(slot).step += t.Sub(r.last)
	r.slot = slot
	r.ftSeen, r.frSeen = false, false
	if r.inner != nil {
		r.inner.BeginSlot(slot, field)
		t2 := time.Now()
		r.fault += t2.Sub(t)
		t = t2
	}
	r.beginExit = t
}

// FilterTransmission implements sim.FaultInjector. Only a wrapped
// injector's calls are timed: a clock read costs more than a pass-through
// call, so the pass-through loop (a few ns per transmitter) stays in the
// resolve span.
func (r *recorder) FilterTransmission(slot int, tx phy.Tx) (phy.Tx, bool) {
	if r.inner == nil {
		return tx, true
	}
	if !r.ftSeen {
		r.ftFirst, r.ftSeen = time.Now(), true
	}
	tx, ok := r.inner.FilterTransmission(slot, tx)
	r.ftLastExit = time.Now()
	return tx, ok
}

// FilterReception implements sim.FaultInjector. The reception loop runs
// straight into Trace, so its first call's timestamp is enough to time it.
func (r *recorder) FilterReception(slot, node, channel int, rec phy.Reception) phy.Reception {
	if !r.frSeen {
		r.frFirst, r.frSeen = time.Now(), true
	}
	if r.inner != nil {
		return r.inner.FilterReception(slot, node, channel, rec)
	}
	return rec
}

// CrashSlot implements sim.FaultInjector.
func (r *recorder) CrashSlot(node int) int {
	if r.inner != nil {
		return r.inner.CrashSlot(node)
	}
	return math.MaxInt
}

// trace is the engine's Trace hook.
func (r *recorder) trace(slot int, txs []phy.Tx, rxs []phy.Rx, recs []phy.Reception) {
	t := time.Now()
	var filters time.Duration
	if r.ftSeen {
		filters += r.ftLastExit.Sub(r.ftFirst)
	}
	if r.frSeen {
		filters += t.Sub(r.frFirst)
	}
	if r.inner != nil {
		r.fault += filters
	} else {
		r.hook += filters
	}
	resolve := t.Sub(r.beginExit) - filters
	r.maxResolve = max(r.maxResolve, resolve)

	for _, tx := range txs {
		r.pairs.Tx(tx.Channel)
	}
	for k, rx := range rxs {
		r.pairs.Rx(rx.Channel)
		if recs[k].Decoded {
			r.decoded++
		}
	}
	if r.decodes {
		h := fnvMix(fnvMix(r.decodeState, uint64(slot)), uint64(len(rxs)))
		for k, rx := range rxs {
			from := -1
			if recs[k].Decoded {
				from = recs[k].From
			}
			h = fnvMix(fnvMix(h, uint64(rx.Node)), uint64(from))
		}
		r.decodeState = h
	}
	st := r.stage(slot)
	st.resolve += resolve
	st.slots++
	st.pairs += r.pairs.Take()
	r.listeners += int64(len(rxs))
	r.actions += int64(len(txs) + len(rxs))
	if slot%sampleEvery == 0 {
		metrics.Read(r.heap)
		r.peakHeap = max(r.peakHeap, r.heap[0].Value.Uint64())
		r.peakGoroutines = max(r.peakGoroutines, runtime.NumGoroutine())
	}

	r.last = time.Now()
	r.hook += r.last.Sub(t)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvMix folds one word into an FNV-1a style running hash.
func fnvMix(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

// totals sums the recorder's spans.
func (r *recorder) totals() (step, resolve time.Duration, slots, pairs int64) {
	for _, a := range r.acc {
		step += a.step
		resolve += a.resolve
		slots += a.slots
		pairs += a.pairs
	}
	return step, resolve, slots, pairs
}

// spans is the engine time the step, resolve and fault spans cover.
func (r *recorder) spans() time.Duration {
	step, resolve, _, _ := r.totals()
	return step + resolve + r.fault
}

// merge adds o's spans and counts into r (stage windows must agree).
func (r *recorder) merge(o *recorder) {
	for i := range r.acc {
		r.acc[i].step += o.acc[i].step
		r.acc[i].resolve += o.acc[i].resolve
		r.acc[i].slots += o.acc[i].slots
		r.acc[i].pairs += o.acc[i].pairs
	}
	r.fault += o.fault
	r.hook += o.hook
	r.maxResolve = max(r.maxResolve, o.maxResolve)
	r.listeners += o.listeners
	r.decoded += o.decoded
	r.actions += o.actions
	r.peakHeap = max(r.peakHeap, o.peakHeap)
	r.peakGoroutines = max(r.peakGoroutines, o.peakGoroutines)
}

// layerMetrics returns the engine, stage and phy metrics of the recorded
// runs.
func (r *recorder) layerMetrics() map[string]float64 {
	step, resolve, slots, pairs := r.totals()
	m := map[string]float64{
		"sim.step_s":              step.Seconds(),
		"sim.slots":               float64(slots),
		"sim.actions":             float64(r.actions),
		"sim.step_ns_per_slot":    ratio(float64(step.Nanoseconds()), float64(slots)),
		"phy.resolve_s":           resolve.Seconds(),
		"phy.pairs":               float64(pairs),
		"phy.resolve_ns_per_pair": ratio(float64(resolve.Nanoseconds()), float64(pairs)),
		"phy.decodes":             float64(r.decoded),
		"phy.decode_ratio":        ratio(float64(r.decoded), float64(r.listeners)),
		"phy.max_slot_s":          r.maxResolve.Seconds(),
		"fault.hook_s":            r.fault.Seconds(),
		"peak_heap_bytes":         float64(r.peakHeap),
		"go.goroutines_peak":      float64(r.peakGoroutines),
	}
	for i, st := range r.stages {
		a := r.acc[i]
		m["stage."+st.Name+".step_s"] = a.step.Seconds()
		m["stage."+st.Name+".resolve_s"] = a.resolve.Seconds()
		m["stage."+st.Name+".slots"] = float64(a.slots)
		m["stage."+st.Name+".pairs"] = float64(a.pairs)
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
