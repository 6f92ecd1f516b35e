package backbone

import (
	"mcnet/internal/agg"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// Event names emitted by the backbone stage.
const (
	// EventAgg fires when the backbone root completes the network-wide
	// aggregate.
	EventAgg = "backbone-agg"
	// EventAggUpdate fires when the root's aggregate is refined by a late
	// child contribution.
	EventAggUpdate = "backbone-agg-update"
	// EventResult fires when a dominator learns the final result over the
	// backbone.
	EventResult = "backbone-result"
)

// State is the tree-building flood message: the sender's current root and
// hop count.
type State struct {
	Root, Hops, From int
}

// Child announces "From is a tree child of Parent".
type Child struct {
	Parent, From int
}

// ChildAck confirms a Child announcement.
type ChildAck struct {
	To int
}

// Up carries a subtree aggregate from a child to its parent.
type Up struct {
	Parent, From int
	Value        int64
}

// PayloadValue exposes the subtree aggregate to the fault layer's Byzantine
// corruption hook (fault.Payload).
func (m Up) PayloadValue() int64 { return m.Value }

// WithPayloadValue returns the message with its value replaced.
func (m Up) WithPayloadValue(v int64) any { m.Value = v; return m }

// UpAck confirms receipt of a child's aggregate.
type UpAck struct {
	To int
}

// Result floods the final aggregate down the backbone.
type Result struct {
	Value int64
	From  int
}

// PayloadValue exposes the flooded aggregate to the fault layer's Byzantine
// corruption hook (fault.Payload).
func (m Result) PayloadValue() int64 { return m.Value }

// WithPayloadValue returns the message with its value replaced.
func (m Result) WithPayloadValue(v int64) any { m.Value = v; return m }

// TreeConfig parameterizes the inter-cluster stage (substrate for [2],
// Theorem 3; deviation D3 in DESIGN.md).
//
// All communication happens in TDMA blocks of PhiMax sub-slots: a dominator
// with cluster color c may transmit only in sub-slot c of each block and
// listens in the others, which keeps simultaneously transmitting dominators
// R_{ε/2}-separated (Lemma 2's regime) and makes backbone links decodable
// under concurrency.
type TreeConfig struct {
	// Channel used by the stage.
	Channel int
	// Radius is the maximum accepted link length (the pipeline passes
	// R_{ε/2}; adjacent clusters' dominators are within it).
	Radius float64
	// PhiMax is the TDMA period (must match the coloring stage).
	PhiMax int
	// FloodProb is the per-own-sub-slot transmission probability.
	FloodProb float64
	// AckProb is the probability of prioritizing a pending acknowledgement
	// over the node's own announcements.
	AckProb float64
	// BuildBlocks, ChildBlocks, CastBlocks and ResultBlocks are the phase
	// lengths in TDMA blocks.
	BuildBlocks, ChildBlocks, CastBlocks, ResultBlocks int
}

// DefaultTreeConfig sizes the phases for a backbone whose hop diameter is at
// most hopBound.
func DefaultTreeConfig(p model.Params, phiMax, hopBound int) TreeConfig {
	logn := int(p.LogN()) + 1
	return TreeConfig{
		Channel:      0,
		Radius:       p.REpsHalf(),
		PhiMax:       phiMax,
		FloodProb:    0.4,
		AckProb:      0.7,
		BuildBlocks:  6*hopBound + 10*logn,
		ChildBlocks:  12 * logn,
		CastBlocks:   6*hopBound + 12*logn,
		ResultBlocks: 6*hopBound + 10*logn,
	}
}

// SlotBudget returns the exact number of slots RunTree consumes.
func (c TreeConfig) SlotBudget() int {
	return c.PhiMax * (c.BuildBlocks + c.ChildBlocks + c.CastBlocks + c.ResultBlocks)
}

// TreeOutcome is the per-dominator result of the inter-cluster stage.
type TreeOutcome struct {
	// Root is the elected backbone root (max dominator ID, w.h.p.).
	Root int
	// Parent is the tree parent, or -1 for the root.
	Parent int
	// Depth is the node's hop distance from the root along the tree.
	Depth int
	// Children are the tree children discovered during the child phase.
	Children []int
	// Result is the final aggregate (valid when Done).
	Result int64
	// Done reports whether the node learned the final aggregate.
	Done bool
}

// RunTree executes the dominator side of the inter-cluster stage: it elects
// a root, builds a BFS-ish tree, convergecasts the cluster values under op,
// and floods the result back. value is this cluster's aggregate from the
// intra-cluster phase. It consumes exactly cfg.SlotBudget slots.
func RunTree(ctx *sim.Ctx, cfg TreeConfig, color int, value int64, op agg.Op) TreeOutcome {
	p := ctx.Params()
	out := TreeOutcome{Root: ctx.ID(), Parent: -1}

	// ownSlot reports whether the node may transmit in this sub-slot.
	ownSlot := func(sub int) bool { return sub == color%cfg.PhiMax }

	// Phase A: root election + BFS tree by State flooding.
	var parentPow float64
	for b := 0; b < cfg.BuildBlocks; b++ {
		for sub := 0; sub < cfg.PhiMax; sub++ {
			if ownSlot(sub) && ctx.Rand.Float64() < cfg.FloodProb {
				ctx.Transmit(cfg.Channel, State{Root: out.Root, Hops: out.Depth, From: ctx.ID()})
				continue
			}
			rec := ctx.Listen(cfg.Channel)
			st, ok := rec.Msg.(State)
			if !ok || !phy.SenderWithin(rec, p, cfg.Radius) {
				continue
			}
			switch {
			case st.Root > out.Root,
				st.Root == out.Root && st.Hops+1 < out.Depth,
				st.Root == out.Root && out.Parent >= 0 && st.Hops+1 == out.Depth &&
					rec.SignalPower > parentPow:
				out.Root = st.Root
				out.Depth = st.Hops + 1
				out.Parent = st.From
				parentPow = rec.SignalPower
			}
		}
	}

	// Phase B: children discovery with acknowledgements.
	var (
		isRoot     = out.Root == ctx.ID()
		childSet   = map[int]bool{}
		ackQueue   []int
		childAcked = isRoot // the root has nothing to announce
	)
	for b := 0; b < cfg.ChildBlocks; b++ {
		for sub := 0; sub < cfg.PhiMax; sub++ {
			if ownSlot(sub) {
				switch {
				case len(ackQueue) > 0 && ctx.Rand.Float64() < cfg.AckProb:
					ctx.Transmit(cfg.Channel, ChildAck{To: ackQueue[0]})
					ackQueue = ackQueue[1:]
					continue
				case !childAcked && ctx.Rand.Float64() < cfg.FloodProb:
					ctx.Transmit(cfg.Channel, Child{Parent: out.Parent, From: ctx.ID()})
					continue
				}
			}
			rec := ctx.Listen(cfg.Channel)
			switch m := rec.Msg.(type) {
			case Child:
				if m.Parent == ctx.ID() {
					if !childSet[m.From] {
						childSet[m.From] = true
						out.Children = append(out.Children, m.From)
					}
					ackQueue = append(ackQueue, m.From)
				}
			case ChildAck:
				if m.To == ctx.ID() {
					childAcked = true
				}
			}
		}
	}

	// Phase C: convergecast. A node sends its current aggregate once all
	// known children have reported; parents keep each child's latest value
	// and re-fold on change, re-opening their own transmission when their
	// aggregate grows, so late or unannounced children are never dropped
	// (the fold must be commutative and associative, which agg.Op requires).
	var (
		childVal = map[int]int64{}
		upAcks   []int
		upAcked  = false
		sentVal  int64
		sentAny  = false
		emitted  bool
	)
	recompute := func() int64 {
		v := value
		for _, cv := range childVal {
			v = op.Combine(v, cv)
		}
		return v
	}
	ready := func() bool {
		for c := range childSet {
			if _, ok := childVal[c]; !ok {
				return false
			}
		}
		return true
	}
	for b := 0; b < cfg.CastBlocks; b++ {
		for sub := 0; sub < cfg.PhiMax; sub++ {
			if isRoot && !emitted && ready() {
				emitted = true
				ctx.Emit(EventAgg, int(recompute()))
			}
			if ownSlot(sub) {
				switch {
				case len(upAcks) > 0 && ctx.Rand.Float64() < cfg.AckProb:
					ctx.Transmit(cfg.Channel, UpAck{To: upAcks[0]})
					upAcks = upAcks[1:]
					continue
				case !isRoot && !upAcked && ready() && ctx.Rand.Float64() < cfg.FloodProb:
					sentVal = recompute()
					sentAny = true
					ctx.Transmit(cfg.Channel, Up{Parent: out.Parent, From: ctx.ID(), Value: sentVal})
					continue
				}
			}
			rec := ctx.Listen(cfg.Channel)
			switch m := rec.Msg.(type) {
			case Up:
				if m.Parent == ctx.ID() {
					if old, ok := childVal[m.From]; !ok || old != m.Value {
						childVal[m.From] = m.Value
						if sentAny && recompute() != sentVal {
							upAcked = false // value grew: resend upward
						}
						if isRoot {
							// Timestamp every root-side update so harnesses
							// can measure true (not ready-check) completion.
							ctx.Emit(EventAggUpdate, int(recompute()))
						}
					}
					upAcks = append(upAcks, m.From)
				}
			case UpAck:
				if m.To == ctx.ID() {
					upAcked = true
				}
			}
		}
	}
	have := recompute()

	// Phase D: flood the result down.
	informed := isRoot
	if isRoot {
		out.Result = have
		out.Done = true
	}
	for b := 0; b < cfg.ResultBlocks; b++ {
		for sub := 0; sub < cfg.PhiMax; sub++ {
			if ownSlot(sub) && informed && ctx.Rand.Float64() < cfg.FloodProb {
				ctx.Transmit(cfg.Channel, Result{Value: out.Result, From: ctx.ID()})
				continue
			}
			rec := ctx.Listen(cfg.Channel)
			if m, ok := rec.Msg.(Result); ok && !informed {
				out.Result = m.Value
				out.Done = true
				informed = true
				ctx.Emit(EventResult, int(m.Value))
			}
		}
	}
	return out
}
