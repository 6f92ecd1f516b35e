// Package backbone implements the global half of the aggregation structure:
// the coloring of dominators that spatially separates clusters (Sec. 5.1.2),
// the TDMA scheme derived from it (Lemma 9), and the inter-cluster
// aggregation tree over dominators (the substrate the paper imports from
// [2], Theorem 3).
package backbone

import (
	"math"

	"mcnet/internal/model"
	"mcnet/internal/sim"
)

// Beacon is the neighbor-discovery probe carrying the sender's ID.
type Beacon struct {
	From int
}

// Final announces a dominator's final color.
type Final struct {
	From  int
	Color int
}

// ColorConfig parameterizes the cluster coloring stage.
//
// The pipeline variant (deviation D7) colors the constant-density dominator
// set in two sub-stages: RSSI-filtered neighbor discovery, then ID-ordered
// greedy color resolution — each dominator waits for all smaller-ID
// neighbors within Radius to announce, then takes the smallest free color
// and announces it for the rest of the stage.
type ColorConfig struct {
	// Channel used by the stage.
	Channel int
	// Radius is the conflict radius: dominators within it must receive
	// distinct colors. The pipeline passes R_{ε/2}.
	Radius float64
	// PhiMax is the agreed TDMA period: colors are drawn from
	// {0, …, PhiMax-1}; the stage records an overflow if greedy needs more
	// (it then wraps, and Validate will report conflicts).
	PhiMax int
	// BeaconProb is the discovery transmission probability.
	BeaconProb float64
	// AnnounceProb is the per-slot probability that a colored dominator
	// re-announces its color.
	AnnounceProb float64
	// DiscoverFactor and ResolveFactor scale the two sub-stage lengths:
	// slots = ceil(factor · ln n̂).
	DiscoverFactor, ResolveFactor float64
}

// DefaultColorConfig returns the pipeline configuration.
//
// The probabilities are deliberately small: conflict edges run up to
// R_{ε/2} ≈ 0.85·R_T where the SINR headroom over β is only ~60%, so a
// beacon is decodable across such a link only when almost nothing else
// transmits network-wide. Low per-slot probability with a long (one-time)
// stage is the reliable operating point.
func DefaultColorConfig(p model.Params, phiMax int) ColorConfig {
	return ColorConfig{
		Channel:        0,
		Radius:         p.REpsHalf(),
		PhiMax:         phiMax,
		BeaconProb:     0.02,
		AnnounceProb:   0.02,
		DiscoverFactor: 150,
		ResolveFactor:  250,
	}
}

func (c ColorConfig) discoverSlots(p model.Params) int {
	return int(math.Ceil(c.DiscoverFactor * p.LogN()))
}

func (c ColorConfig) resolveSlots(p model.Params) int {
	return int(math.Ceil(c.ResolveFactor * p.LogN()))
}

// SlotBudget returns the exact number of slots ColorFrag and IdleColor
// consume.
func (c ColorConfig) SlotBudget(p model.Params) int {
	return c.discoverSlots(p) + c.resolveSlots(p)
}

// ColorOutcome is the per-dominator result of the coloring stage.
type ColorOutcome struct {
	// Color in {0, …, PhiMax-1}; -1 for non-participants.
	Color int
	// Neighbors lists the dominator IDs discovered within Radius.
	Neighbors []int
	// Forced reports that the node colored itself greedily at the stage end
	// without having heard all smaller-ID neighbors (possible conflict).
	Forced bool
	// Overflowed reports that greedy needed a color ≥ PhiMax and wrapped.
	Overflowed bool
}

// IdleColor consumes the stage budget for nodes that are not dominators.
func IdleColor(ctx *sim.Ctx, cfg ColorConfig) {
	ctx.IdleFor(cfg.SlotBudget(ctx.Params()))
}
