package backbone

import "mcnet/internal/model"

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

// SlotBudget returns the exact number of slots TreeFrag consumes.
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
