// Package csa implements Cluster-Size Approximation (Sec. 5.2.1 and
// Appendix A): every node of a well-separated cluster learns a constant-
// factor approximation of its cluster's size.
//
// Two variants are provided, exactly as in the paper:
//
//   - The large-Δ̂ variant (Sec. 5.2.1.1) uses a single channel. Dominatees
//     probe with a probability that starts at λ/Δ̂ and doubles each phase;
//     the dominator terminates the estimate when it hears enough probes in
//     one phase, inferring |C| ≈ λ/p from the probe probability p. Runtime
//     O(log Δ̂ · log n).
//
//   - The small-Δ̂ variant (Appendix A) spreads dominatees uniformly over
//     the F channels, elects a per-channel leader (reporter.ElectFrag), runs
//     the probing estimator per channel with the small per-channel bound,
//     aggregates the per-channel estimates to the dominator over the
//     reporter tree, and broadcasts the total. Runtime O(log n · log log n)
//     when Δ̂ ≤ F·polylog(n) (Lemma 13).
//
// Choose combines them per Lemma 14.
package csa

import (
	"math"

	"mcnet/internal/model"
	"mcnet/internal/reporter"
	"mcnet/internal/sim"
)

// Probe is a dominatee's counting transmission.
type Probe struct {
	From, Dom int
}

// Estimate is the dominator's (or channel leader's) termination notice
// carrying the cluster-size estimate.
type Estimate struct {
	Dom int
	Est int
}

// Config parameterizes the large-Δ̂ estimator (also used per channel by the
// small-Δ̂ variant).
type Config struct {
	// Channel the estimator runs on.
	Channel int
	// ClusterRadius bounds the distance to co-members (2·r_c).
	ClusterRadius float64
	// DeltaHat is the known upper bound Δ̂ on the cluster size.
	DeltaHat int
	// Lambda is the target contention λ (the paper uses 1/2).
	Lambda float64
	// CountFactor: the dominator terminates on ≥ CountFactor·ln n̂ probes in
	// a phase (the paper's ω₁).
	CountFactor float64
	// RoundFactor: probe rounds per phase = ceil(RoundFactor·ln n̂) (the
	// paper's γ₁).
	RoundFactor float64
	// Stride and Offset interleave clusters under the TDMA scheme.
	Stride, Offset int
}

// DefaultConfig returns the pipeline configuration of the large-Δ̂
// estimator.
func DefaultConfig(deltaHat int, clusterRadius float64) Config {
	return Config{
		Channel:       0,
		ClusterRadius: clusterRadius,
		DeltaHat:      deltaHat,
		Lambda:        0.5,
		CountFactor:   2,
		RoundFactor:   16,
		Stride:        1,
	}
}

func (c Config) stride() int {
	if c.Stride < 1 {
		return 1
	}
	return c.Stride
}

// Phases returns ⌈log₂ Δ̂⌉, the number of doubling phases.
func (c Config) Phases() int {
	if c.DeltaHat <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(c.DeltaHat))))
}

// RoundsPerPhase returns the probe rounds per phase.
func (c Config) RoundsPerPhase(p model.Params) int {
	return int(math.Ceil(c.RoundFactor * p.LogN()))
}

// SlotBudget returns the exact number of slots the estimator consumes:
// per phase, RoundsPerPhase probe rounds plus one notification round.
func (c Config) SlotBudget(p model.Params) int {
	return c.stride() * c.Phases() * (c.RoundsPerPhase(p) + 1)
}

// Idle consumes the estimator budget without participating.
func Idle(ctx *sim.Ctx, cfg Config) {
	ctx.IdleFor(cfg.SlotBudget(ctx.Params()))
}

// threshold is the termination count for the given parameters.
func (c Config) threshold(p model.Params) int {
	t := int(math.Ceil(c.CountFactor * p.LogN()))
	if t < 1 {
		return 1
	}
	return t
}

// SmallConfig parameterizes the Appendix A multichannel estimator.
type SmallConfig struct {
	// F is the number of channels to spread members over.
	F int
	// ClusterRadius bounds the distance to co-members (2·r_c).
	ClusterRadius float64
	// PerChannelBound is the Δ̂ used by the per-channel estimators (the
	// paper's γ₃·ln^c n; members per channel are O(polylog n) w.h.p.).
	PerChannelBound int
	// Elect configures the per-channel leader election.
	Elect reporter.ElectConfig
	// Probe configures the per-channel estimator (Channel is overridden).
	Probe Config
	// Stride and Offset interleave clusters under the TDMA scheme.
	Stride, Offset int
}

// DefaultSmallConfig returns the pipeline configuration of the small-Δ̂
// variant.
func DefaultSmallConfig(p model.Params, clusterRadius float64) SmallConfig {
	perChan := int(math.Ceil(8 * p.LogN()))
	probe := DefaultConfig(perChan, clusterRadius)
	return SmallConfig{
		F:               p.Channels,
		ClusterRadius:   clusterRadius,
		PerChannelBound: perChan,
		Elect:           reporter.DefaultElectConfig(clusterRadius),
		Probe:           probe,
		Stride:          1,
	}
}

func (c SmallConfig) stride() int {
	if c.Stride < 1 {
		return 1
	}
	return c.Stride
}

// SlotBudget returns the exact number of slots the small-Δ̂ estimator
// consumes: election + per-channel estimation + tree aggregation + one
// broadcast round.
func (c SmallConfig) SlotBudget(p model.Params) int {
	elect := c.Elect
	elect.Stride, elect.Offset = c.stride(), 0
	probe := c.Probe
	probe.Stride, probe.Offset = c.stride(), 0
	cast := reporter.DefaultCastConfig(c.F, c.ClusterRadius)
	cast.Stride, cast.Offset = c.stride(), 0
	return elect.SlotBudget(p) + probe.SlotBudget(p) + cast.SlotBudget() + c.stride()
}

// IdleSmall consumes the small-variant budget without participating.
func IdleSmall(ctx *sim.Ctx, cfg SmallConfig) {
	ctx.IdleFor(cfg.SlotBudget(ctx.Params()))
}

// UseSmall implements the Lemma 14 chooser: the small variant applies when
// Δ̂ ≤ F·log^{ĉ+2} n̂ (we use ĉ = 0, i.e. Δ̂/F ≤ log² n̂).
func UseSmall(p model.Params, deltaHat int) bool {
	return float64(deltaHat)/float64(p.Channels) <= p.LogN()*p.LogN()
}
