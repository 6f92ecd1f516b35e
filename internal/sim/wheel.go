package sim

// This file implements the idle wake-wheel: a calendar queue over future
// wake slots that generalizes the all-idle fast-forward to mixed
// active/idle populations.
//
// Every IdleFor batch registers its node here under the first slot at
// which the node acts again. Per slot the engine pops exactly one bucket
// instead of probing a map, and sleeping nodes are never touched in
// between — a sleeping node stays off the awake list (a Program's
// coroutine stays suspended) — so a slot's cost scales with the nodes that
// actually act in it.
//
// The wheel is sized so that protocol idles (TDMA strides, stage skips —
// tens to a few thousand slots) land in their bucket's first revolution;
// longer spans survive extra revolutions at one comparison per revolution.

// wheelBuckets is the wheel's bucket count (one slot per bucket per
// revolution). Must be a power of two; 1024 covers the pipeline's longest
// common stride idles in one revolution.
const wheelBuckets = 1024

// wheelEntry is one sleeping node: who to wake and at which slot.
type wheelEntry struct {
	node     int32
	wakeSlot int
}

// wakeWheel is the engine's calendar queue of sleeping nodes. Only the
// engine goroutine touches it, between step phases, so there is no
// locking.
type wakeWheel struct {
	buckets [wheelBuckets][]wheelEntry
	count   int
}

func newWakeWheel() *wakeWheel { return &wakeWheel{} }

// add registers node to be woken at wakeSlot (the first slot at which it
// acts again).
func (w *wakeWheel) add(node int, wakeSlot int) {
	b := &w.buckets[wakeSlot&(wheelBuckets-1)]
	*b = append(*b, wheelEntry{node: int32(node), wakeSlot: wakeSlot})
	w.count++
}

// pop appends to due the nodes whose wake slot is exactly slot, in their
// registration order, and removes them from the wheel. Entries due in a
// later revolution keep their order; each is touched once per revolution.
func (w *wakeWheel) pop(slot int, due []int32) []int32 {
	if w.count == 0 {
		return due
	}
	b := &w.buckets[slot&(wheelBuckets-1)]
	if len(*b) == 0 {
		return due
	}
	kept := (*b)[:0]
	for _, en := range *b {
		if en.wakeSlot == slot {
			due = append(due, en.node)
			w.count--
		} else {
			kept = append(kept, en)
		}
	}
	*b = kept
	return due
}
