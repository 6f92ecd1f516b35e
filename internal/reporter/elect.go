// Package reporter implements the intra-cluster channel structure of
// Sec. 5.2.2: electing one reporter per (cluster, channel) and organizing
// the reporters into a complete binary tree keyed by channel number (a
// binary heap with the dominator as root), over which values are
// convergecast to the dominator (and, for the coloring algorithm of Sec. 7,
// ranges are distributed back down).
//
// Election uses min-ID gossip per (cluster, channel) instead of the paper's
// ruling-set invocation (deviation D7): all members of a cluster share one
// r_c-ball, so the channel population is a single-hop environment in which
// the smallest ID propagates to everyone in O(log n) rounds w.h.p. The
// postcondition is the paper's: exactly one reporter per non-empty channel.
//
// Tree role numbering: the dominator is role 0; the reporter elected on
// physical channel c has role c+1; the parent of role k is ⌊k/2⌋; role
// k ≥ 1 operates on channel k-1. Role 1 therefore talks to the dominator on
// channel 0, the paper's "special first channel".
package reporter

import (
	"math"

	"mcnet/internal/model"
	"mcnet/internal/sim"
)

// Cand is the election gossip message.
type Cand struct {
	From int
	Dom  int // cluster identity (dominator ID)
}

// ElectConfig parameterizes the per-channel leader election.
type ElectConfig struct {
	// ClusterRadius bounds the distance to co-members (the pipeline passes
	// 2·r_c); senders beyond it are ignored.
	ClusterRadius float64
	// TxProb is the per-round transmission probability of a node that still
	// believes itself the minimum.
	TxProb float64
	// RoundFactor scales the stage: rounds = ceil(RoundFactor·ln n̂).
	RoundFactor float64
	// Stride and Offset interleave clusters under the TDMA scheme.
	Stride, Offset int
}

// DefaultElectConfig returns the pipeline configuration.
func DefaultElectConfig(clusterRadius float64) ElectConfig {
	return ElectConfig{
		ClusterRadius: clusterRadius,
		TxProb:        0.25,
		RoundFactor:   10,
		Stride:        1,
	}
}

func (c ElectConfig) stride() int {
	if c.Stride < 1 {
		return 1
	}
	return c.Stride
}

// Rounds returns the number of election rounds.
func (c ElectConfig) Rounds(p model.Params) int {
	return int(math.Ceil(c.RoundFactor * p.LogN()))
}

// SlotBudget returns the exact number of slots ElectFrag and IdleElect
// consume.
func (c ElectConfig) SlotBudget(p model.Params) int {
	return c.stride() * c.Rounds(p)
}

// IdleElect consumes the stage budget without participating.
func IdleElect(ctx *sim.Ctx, cfg ElectConfig) {
	ctx.IdleFor(cfg.SlotBudget(ctx.Params()))
}
