package core

import (
	"mcnet/internal/backbone"
	"mcnet/internal/csa"
	"mcnet/internal/dominate"
	"mcnet/internal/phy"
	"mcnet/internal/reporter"
	"mcnet/internal/sim"
)

// The stage functions in this file are the straight-line sim.Program form of
// pipeline stages, for the protocols that still run as goroutine programs
// and reuse the aggregation structure (the Sec. 7 colorer, Broadcast).
// Aggregation itself runs the Stepper form in stepper.go, which follows the
// same per-node random stream and slot timeline.

// Structure is a node's place in the aggregation structure after the build
// stages (Sec. 5): clustering, cluster color, size estimate, and channel
// role.
type Structure struct {
	// Dom is the dominating-set outcome (cluster head assignment).
	Dom dominate.Outcome
	// Color is the cluster's TDMA color; Off = Color mod PhiMax is the
	// node's TDMA offset.
	Color, Off int
	// Est is the cluster-size estimate from CSA.
	Est int
	// Fv is the number of channels the cluster uses.
	Fv int
	// Role is the node's reporter-tree role: 0 = dominator, ≥ 1 = reporter
	// on channel Role-1, -1 = follower.
	Role int
	// Channel is the channel the node chose at election (-1 for
	// dominators).
	Channel int
}

// IsDominator reports whether the node heads its cluster.
func (s Structure) IsDominator() bool { return s.Role == 0 }

// IsReporter reports whether the node is a channel reporter.
func (s Structure) IsReporter() bool { return s.Role >= 1 }

// BuildStage runs pipeline stages 1–5 (Theorem 10: structure construction)
// and returns the node's place in the structure. It consumes exactly
// Offsets.Followers slots.
func (pl *Plan) BuildStage(ctx *sim.Ctx) Structure {
	st := Structure{Channel: -1}

	// Stage 1: dominating set + clustering.
	st.Dom = dominate.Run(ctx, pl.Dominate)

	// Stage 2: cluster coloring (dominators only).
	var col backbone.ColorOutcome
	if st.Dom.IsDominator {
		col = backbone.RunColor(ctx, pl.Color)
	} else {
		backbone.IdleColor(ctx, pl.Color)
		col.Color = -1
	}

	// Stage 3: color dissemination.
	st.Color = pl.runAnnounce(ctx, st.Dom, col.Color)
	st.Off = st.Color % pl.Cfg.PhiMax
	if st.Off < 0 {
		st.Off = 0
	}

	// Stage 4: cluster-size approximation under TDMA.
	st.Est = pl.runCSA(ctx, st.Dom, st.Off)

	// Stage 5: reporter election on f_v channels.
	st.Fv = pl.fv(st.Est)
	elect := pl.Elect
	elect.Offset = st.Off
	st.Role = -1
	if st.Dom.IsDominator {
		reporter.IdleElect(ctx, elect)
		st.Role = 0
	} else {
		st.Channel = ctx.Rand.Intn(st.Fv)
		if reporter.RunElect(ctx, elect, st.Channel, st.Dom.Dominator) == ctx.ID() {
			st.Role = st.Channel + 1
		}
	}
	return st
}

// runAnnounce is stage 3: dominators repeatedly announce their color on
// channel 0; members learn their cluster's color. Returns the node's color
// (dominators: their own; members: the learned one, or 0 if missed).
func (pl *Plan) runAnnounce(ctx *sim.Ctx, dom dominate.Outcome, ownColor int) int {
	p := pl.Params
	if dom.IsDominator {
		for s := 0; s < pl.AnnounceSlots; s++ {
			if ctx.Rand.Float64() < 0.2 {
				ctx.Transmit(0, ColorMsg{Dom: ctx.ID(), Color: ownColor})
			} else {
				ctx.Idle()
			}
		}
		return ownColor
	}
	color := -1
	for s := 0; s < pl.AnnounceSlots; s++ {
		if color >= 0 {
			ctx.Idle()
			continue
		}
		rec := ctx.Listen(0)
		if m, ok := rec.Msg.(ColorMsg); ok && m.Dom == dom.Dominator &&
			phy.SenderWithin(rec, p, p.ClusterRadius()) {
			color = m.Color
		}
	}
	if color < 0 {
		color = 0 // degraded: TDMA misalignment possible, but keep going
	}
	return color
}

// runCSA is stage 4: the Lemma 14 chooser between the two CSA variants.
func (pl *Plan) runCSA(ctx *sim.Ctx, dom dominate.Outcome, off int) int {
	if pl.UseSmall {
		cfg := pl.CSASmall
		cfg.Offset = off
		if dom.IsDominator {
			return csa.RunSmallDominator(ctx, cfg)
		}
		return csa.RunSmallDominatee(ctx, cfg, dom.Dominator)
	}
	cfg := pl.CSALarge
	cfg.Offset = off
	if dom.IsDominator {
		return csa.RunDominator(ctx, cfg, ctx.ID()) + 1 // members + self
	}
	est := csa.RunDominatee(ctx, cfg, dom.Dominator)
	if est > 0 {
		est++
	}
	return est
}

// FollowerStage runs pipeline stage 6 (Sec. 6, first procedure): followers
// deliver their values to reporters under backoff-controlled contention.
// For reporters it returns the map of collected follower values keyed by
// follower ID; for followers, ackedOn is the channel whose reporter
// acknowledged the value (-1 if never acknowledged) — that reporter owns
// the follower in the Sec. 7 coloring. It consumes exactly
// Offsets.Tree − Offsets.Followers slots.
func (pl *Plan) FollowerStage(ctx *sim.Ctx, st Structure, value int64) (got map[int]int64, ackedOn int) {
	var (
		p        = pl.Params
		stride   = pl.Cfg.PhiMax
		isRep    = st.IsReporter()
		repChan  = st.Role - 1
		isDom    = st.IsDominator()
		follower = !isRep && !isDom
		acked    = false
		pu       = pl.Cfg.Lambda * float64(st.Fv) / float64(max2(st.Est, 1))
		memberR  = pl.ClusterRadius()
		off      = st.Off
	)
	ackedOn = -1
	if pu > 0.5 {
		pu = 0.5
	}
	if isRep {
		got = map[int]int64{}
	}
	for phase := 0; phase < pl.FollowerPhases; phase++ {
		count := 0
		heardBackoff := false
		for round := 0; round < pl.FollowerGamma; round++ {
			ctx.IdleFor(2 * off)
			sentOn, ackTo := -1, -1
			// Sub-slot 1: follower transmissions.
			switch {
			case follower && !acked && ctx.Rand.Float64() < pu:
				sentOn = ctx.Rand.Intn(st.Fv)
				ctx.Transmit(sentOn, FollowerMsg{From: ctx.ID(), Dom: st.Dom.Dominator, Value: value})
			case isRep:
				rec := ctx.Listen(repChan)
				if m, ok := rec.Msg.(FollowerMsg); ok && m.Dom == st.Dom.Dominator &&
					phy.SenderWithin(rec, p, memberR) {
					got[m.From] = m.Value
					ackTo = m.From
				}
			case isDom:
				rec := ctx.Listen(0)
				if m, ok := rec.Msg.(FollowerMsg); ok && m.Dom == ctx.ID() &&
					phy.SenderWithin(rec, p, memberR) {
					count++
				}
			default:
				ctx.Idle()
			}
			// Sub-slot 2: acknowledgements.
			switch {
			case isRep && ackTo >= 0:
				ctx.Transmit(repChan, FollowerAck{To: ackTo, Dom: st.Dom.Dominator})
			case follower && sentOn >= 0:
				rec := ctx.Listen(sentOn)
				if a, ok := rec.Msg.(FollowerAck); ok && a.To == ctx.ID() &&
					a.Dom == st.Dom.Dominator {
					acked = true
					ackedOn = sentOn
					ctx.Emit(EventAcked, phase)
				}
			default:
				ctx.Idle()
			}
			ctx.IdleFor(2 * (stride - 1 - off))
		}
		// Backoff round (two sub-slots to keep the stride uniform).
		ctx.IdleFor(2 * off)
		switch {
		case isDom && count >= pl.Omega && !pl.Cfg.DisableBackoff:
			ctx.Transmit(0, Backoff{Dom: ctx.ID()})
		case follower && !acked:
			rec := ctx.Listen(0)
			if b, ok := rec.Msg.(Backoff); ok && b.Dom == st.Dom.Dominator &&
				phy.SenderWithin(rec, p, memberR) {
				heardBackoff = true
			}
		default:
			ctx.Idle()
		}
		ctx.Idle()
		ctx.IdleFor(2 * (stride - 1 - off))
		if follower && !acked && !heardBackoff {
			pu *= 2
			if pu > 0.5 {
				pu = 0.5
			}
		}
	}
	return got, ackedOn
}

// CastConfig returns the reporter-tree cast configuration for the node's
// TDMA offset.
func (pl *Plan) CastConfig(off int) reporter.CastConfig {
	cast := reporter.DefaultCastConfig(pl.Params.Channels, pl.ClusterRadius())
	cast.Stride, cast.Offset = pl.Cfg.PhiMax, off
	return cast
}

// InformStage runs pipeline stage 9: dominators announce value within their
// clusters; members listen. Returns the (value, ok) the node ends with. It
// consumes exactly PhiMax slots.
func (pl *Plan) InformStage(ctx *sim.Ctx, st Structure, value int64, haveValue bool) (int64, bool) {
	p := pl.Params
	stride := pl.Cfg.PhiMax
	for sub := 0; sub < stride; sub++ {
		switch {
		case st.IsDominator() && sub == st.Off && haveValue:
			ctx.Transmit(0, FinalMsg{Dom: ctx.ID(), Value: value})
		case !st.IsDominator() && !haveValue:
			rec := ctx.Listen(0)
			if m, ok := rec.Msg.(FinalMsg); ok && m.Dom == st.Dom.Dominator &&
				phy.SenderWithin(rec, p, p.ClusterRadius()) {
				value, haveValue = m.Value, true
			}
		default:
			ctx.Idle()
		}
	}
	return value, haveValue
}
