package backbone

// The coloring and tree stages as sim.Frags (see internal/sim: Stepper,
// Frag): each phase's loop state is held explicitly, one slot per Feed.

import (
	"sort"

	"mcnet/internal/agg"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// ColorFrag executes the dominator side of the coloring stage, consuming
// exactly Cfg.SlotBudget slots. Out is valid once Feed returns true.
//
// Sub-stage 1 is neighbor discovery: random beacons, and receivers keep
// senders whose RSSI-estimated distance is within Radius. Sub-stage 2 is
// ID-ordered greedy resolution: once every smaller-ID neighbor has
// announced, the node takes the smallest color no neighbor announced and
// re-announces it for the rest of the stage. A node still waiting when the
// budget runs out colors itself greedily against what it knows (Forced).
type ColorFrag struct {
	Cfg ColorConfig
	Out ColorOutcome

	init                    bool
	stage                   uint8 // 0 discover, 1 resolve
	s                       int
	discoverLen, resolveLen int
	neighbors               map[int]bool
	smaller, taken          map[int]bool
	awaitBeacon, awaitFinal bool
}

// Feed implements sim.Frag.
func (f *ColorFrag) Feed(sc *sim.StepCtx) bool {
	p := sc.Params()
	if !f.init {
		f.init = true
		f.Out = ColorOutcome{Color: -1}
		f.neighbors = map[int]bool{}
		f.discoverLen = f.Cfg.discoverSlots(p)
		f.resolveLen = f.Cfg.resolveSlots(p)
	}
	if f.awaitBeacon {
		f.awaitBeacon = false
		rec := sc.Prev()
		if b, ok := rec.Msg.(Beacon); ok && phy.SenderWithin(rec, p, f.Cfg.Radius) {
			f.neighbors[b.From] = true
		}
	}
	if f.awaitFinal {
		f.awaitFinal = false
		rec := sc.Prev()
		if fin, ok := rec.Msg.(Final); ok && f.neighbors[fin.From] &&
			phy.SenderWithin(rec, p, f.Cfg.Radius) {
			f.taken[fin.Color] = true
			delete(f.smaller, fin.From)
		}
	}
	for {
		switch {
		case f.stage == 0 && f.s < f.discoverLen:
			f.s++
			if sc.Rand.Float64() < f.Cfg.BeaconProb {
				sc.Transmit(f.Cfg.Channel, Beacon{From: sc.ID()})
			} else {
				sc.Listen(f.Cfg.Channel)
				f.awaitBeacon = true
			}
			return false
		case f.stage == 0:
			// Discovery over: freeze the neighbor list, set up resolution.
			f.stage, f.s = 1, 0
			f.Out.Neighbors = make([]int, 0, len(f.neighbors))
			for id := range f.neighbors {
				f.Out.Neighbors = append(f.Out.Neighbors, id)
			}
			sort.Ints(f.Out.Neighbors)
			f.smaller, f.taken = map[int]bool{}, map[int]bool{}
			for _, id := range f.Out.Neighbors {
				if id < sc.ID() {
					f.smaller[id] = true
				}
			}
		case f.s < f.resolveLen:
			f.s++
			if f.Out.Color < 0 && len(f.smaller) == 0 {
				f.pickColor()
			}
			if f.Out.Color >= 0 && sc.Rand.Float64() < f.Cfg.AnnounceProb {
				sc.Transmit(f.Cfg.Channel, Final{From: sc.ID(), Color: f.Out.Color})
			} else {
				sc.Listen(f.Cfg.Channel)
				f.awaitFinal = true
			}
			return false
		default:
			if f.Out.Color < 0 {
				f.Out.Forced = true
				f.pickColor()
			}
			return true
		}
	}
}

func (f *ColorFrag) pickColor() {
	c := 0
	for f.taken[c] {
		c++
	}
	if c >= f.Cfg.PhiMax {
		f.Out.Overflowed = true
		c %= f.Cfg.PhiMax
	}
	f.Out.Color = c
}

// treeAwait tags which phase's listen the fragment's previous slot holds.
type treeAwait uint8

const (
	treeAwaitNone treeAwait = iota
	treeAwaitA
	treeAwaitB
	treeAwaitC
	treeAwaitD
)

// TreeFrag executes the dominator side of the inter-cluster stage,
// consuming exactly Cfg.SlotBudget slots: it elects a root, builds a
// BFS-ish tree, convergecasts the cluster values under Op, and floods the
// result back. Color is the node's cluster color (its TDMA sub-slot) and
// Value its cluster's aggregate from the intra-cluster phase. Out is valid
// once Feed returns true.
//
// In the convergecast a node sends its current aggregate once all known
// children have reported; parents keep each child's latest value and
// re-fold on change, re-opening their own transmission when their
// aggregate grows, so late or unannounced children are never dropped (the
// fold must be commutative and associative, which agg.Op requires).
type TreeFrag struct {
	Cfg   TreeConfig
	Color int
	Value int64
	Op    agg.Op
	Out   TreeOutcome

	init   bool
	phase  uint8 // 0 build, 1 children, 2 cast, 3 result, 4 done
	b, sub int
	await  treeAwait
	// Phase A
	parentPow float64
	// Phase B
	isRoot     bool
	childSet   map[int]bool
	ackQueue   []int
	childAcked bool
	// Phase C
	childVal map[int]int64
	upAcks   []int
	upAcked  bool
	sentVal  int64
	sentAny  bool
	emitted  bool
	// Phase D
	informed bool
}

func (f *TreeFrag) ownSlot(sub int) bool { return sub == f.Color%f.Cfg.PhiMax }

func (f *TreeFrag) recompute() int64 {
	v := f.Value
	for _, cv := range f.childVal {
		v = f.Op.Combine(v, cv)
	}
	return v
}

func (f *TreeFrag) ready() bool {
	for c := range f.childSet {
		if _, ok := f.childVal[c]; !ok {
			return false
		}
	}
	return true
}

// advance moves to the next (block, sub-slot) pair of the current phase.
func (f *TreeFrag) advance() {
	f.sub++
	if f.sub == f.Cfg.PhiMax {
		f.sub = 0
		f.b++
	}
}

// Feed implements sim.Frag.
func (f *TreeFrag) Feed(sc *sim.StepCtx) bool {
	p := sc.Params()
	if !f.init {
		f.init = true
		f.Out = TreeOutcome{Root: sc.ID(), Parent: -1}
	}
	switch f.await {
	case treeAwaitA:
		rec := sc.Prev()
		if st, ok := rec.Msg.(State); ok && phy.SenderWithin(rec, p, f.Cfg.Radius) {
			switch {
			case st.Root > f.Out.Root,
				st.Root == f.Out.Root && st.Hops+1 < f.Out.Depth,
				st.Root == f.Out.Root && f.Out.Parent >= 0 && st.Hops+1 == f.Out.Depth &&
					rec.SignalPower > f.parentPow:
				f.Out.Root = st.Root
				f.Out.Depth = st.Hops + 1
				f.Out.Parent = st.From
				f.parentPow = rec.SignalPower
			}
		}
	case treeAwaitB:
		rec := sc.Prev()
		switch m := rec.Msg.(type) {
		case Child:
			if m.Parent == sc.ID() {
				if !f.childSet[m.From] {
					f.childSet[m.From] = true
					f.Out.Children = append(f.Out.Children, m.From)
				}
				f.ackQueue = append(f.ackQueue, m.From)
			}
		case ChildAck:
			if m.To == sc.ID() {
				f.childAcked = true
			}
		}
	case treeAwaitC:
		rec := sc.Prev()
		switch m := rec.Msg.(type) {
		case Up:
			if m.Parent == sc.ID() {
				if old, ok := f.childVal[m.From]; !ok || old != m.Value {
					f.childVal[m.From] = m.Value
					if f.sentAny && f.recompute() != f.sentVal {
						f.upAcked = false // value grew: resend upward
					}
					if f.isRoot {
						sc.Emit(EventAggUpdate, int(f.recompute()))
					}
				}
				f.upAcks = append(f.upAcks, m.From)
			}
		case UpAck:
			if m.To == sc.ID() {
				f.upAcked = true
			}
		}
	case treeAwaitD:
		rec := sc.Prev()
		if m, ok := rec.Msg.(Result); ok && !f.informed {
			f.Out.Result = m.Value
			f.Out.Done = true
			f.informed = true
			sc.Emit(EventResult, int(m.Value))
		}
	}
	f.await = treeAwaitNone
	for {
		switch f.phase {
		case 0: // Phase A: root election + BFS tree.
			if f.b >= f.Cfg.BuildBlocks {
				f.isRoot = f.Out.Root == sc.ID()
				f.childSet = map[int]bool{}
				f.childAcked = f.isRoot
				f.phase, f.b, f.sub = 1, 0, 0
				continue
			}
			if f.ownSlot(f.sub) && sc.Rand.Float64() < f.Cfg.FloodProb {
				sc.Transmit(f.Cfg.Channel, State{Root: f.Out.Root, Hops: f.Out.Depth, From: sc.ID()})
			} else {
				sc.Listen(f.Cfg.Channel)
				f.await = treeAwaitA
			}
			f.advance()
			return false
		case 1: // Phase B: children discovery.
			if f.b >= f.Cfg.ChildBlocks {
				f.childVal = map[int]int64{}
				f.phase, f.b, f.sub = 2, 0, 0
				continue
			}
			if f.ownSlot(f.sub) {
				if len(f.ackQueue) > 0 && sc.Rand.Float64() < f.Cfg.AckProb {
					sc.Transmit(f.Cfg.Channel, ChildAck{To: f.ackQueue[0]})
					f.ackQueue = f.ackQueue[1:]
					f.advance()
					return false
				}
				if !f.childAcked && sc.Rand.Float64() < f.Cfg.FloodProb {
					sc.Transmit(f.Cfg.Channel, Child{Parent: f.Out.Parent, From: sc.ID()})
					f.advance()
					return false
				}
			}
			sc.Listen(f.Cfg.Channel)
			f.await = treeAwaitB
			f.advance()
			return false
		case 2: // Phase C: convergecast.
			if f.b >= f.Cfg.CastBlocks {
				have := f.recompute()
				f.informed = f.isRoot
				if f.isRoot {
					f.Out.Result = have
					f.Out.Done = true
				}
				f.phase, f.b, f.sub = 3, 0, 0
				continue
			}
			if f.isRoot && !f.emitted && f.ready() {
				f.emitted = true
				sc.Emit(EventAgg, int(f.recompute()))
			}
			if f.ownSlot(f.sub) {
				if len(f.upAcks) > 0 && sc.Rand.Float64() < f.Cfg.AckProb {
					sc.Transmit(f.Cfg.Channel, UpAck{To: f.upAcks[0]})
					f.upAcks = f.upAcks[1:]
					f.advance()
					return false
				}
				if !f.isRoot && !f.upAcked && f.ready() && sc.Rand.Float64() < f.Cfg.FloodProb {
					f.sentVal = f.recompute()
					f.sentAny = true
					sc.Transmit(f.Cfg.Channel, Up{Parent: f.Out.Parent, From: sc.ID(), Value: f.sentVal})
					f.advance()
					return false
				}
			}
			sc.Listen(f.Cfg.Channel)
			f.await = treeAwaitC
			f.advance()
			return false
		case 3: // Phase D: result flood.
			if f.b >= f.Cfg.ResultBlocks {
				f.phase = 4
				continue
			}
			if f.ownSlot(f.sub) && f.informed && sc.Rand.Float64() < f.Cfg.FloodProb {
				sc.Transmit(f.Cfg.Channel, Result{Value: f.Out.Result, From: sc.ID()})
			} else {
				sc.Listen(f.Cfg.Channel)
				f.await = treeAwaitD
			}
			f.advance()
			return false
		default:
			return true
		}
	}
}
