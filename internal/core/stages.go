package core

import (
	"mcnet/internal/backbone"
	"mcnet/internal/csa"
	"mcnet/internal/dominate"
	"mcnet/internal/reporter"
	"mcnet/internal/sim"
)

// This file holds the structure-construction half of the pipeline as one
// fragment, shared by aggregation (pipelineStepper) and the protocols that
// reuse the structure from straight-line code through sim.Ctx.Run (the
// Sec. 7 colorer, Broadcast).

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

// Build stages, in slot order.
const (
	buildDominate uint8 = iota
	buildColor
	buildAnnounce
	buildCSA
	buildElect
	buildDone
)

// BuildFrag runs pipeline stages 1–5 (Theorem 10: structure construction)
// as one fragment: the per-stage fragments in slot order, with the
// structure bookkeeping (the cluster color and offset, the Lemma 14 CSA
// chooser, the member's election channel draw) at the stage boundaries.
// St is the node's place in the structure once Feed returns true. It
// consumes exactly Offsets.Followers slots.
type BuildFrag struct {
	Plan *Plan
	St   Structure

	stage    uint8
	cur      sim.Frag
	ownColor int

	// Stages every node (or every member — at crowd scale, nearly every
	// node) passes through live as values inside the fragment, so entering
	// them costs zero allocations: cur points at the embedded field. The
	// rare-role fragments (dominators are ~1 per cluster) stay heap
	// pointers to keep the pipeline's arena element lean.
	dom     dominate.RunFrag
	ann     announceFrag
	csaDee  csa.DominateeFrag
	csaSDee csa.SmallDominateeFrag
	elect   reporter.ElectFrag
	idle    sim.IdleFrag

	col     *backbone.ColorFrag
	csaDom  *csa.DominatorFrag
	csaSDom *csa.SmallDominatorFrag
}

// Feed implements sim.Frag: the active stage fragment acts; when it
// finalizes, the stage glue runs and the next stage starts within the same
// slot.
func (b *BuildFrag) Feed(sc *sim.StepCtx) bool {
	for {
		if b.cur != nil {
			if !b.cur.Feed(sc) {
				return false
			}
			b.cur = nil
			b.leave(sc)
		}
		if b.stage == buildDone {
			return true
		}
		b.enter(sc)
	}
}

// enterIdle points cur at the embedded idle fragment, reset for a k-slot
// idle stretch.
func (b *BuildFrag) enterIdle(k int) {
	b.idle = sim.IdleFrag{K: k}
	b.cur = &b.idle
}

// enter builds the fragment for the current stage.
func (b *BuildFrag) enter(sc *sim.StepCtx) {
	pl := b.Plan
	p := sc.Params()
	switch b.stage {
	case buildDominate:
		b.dom = dominate.RunFrag{Cfg: pl.Dominate}
		b.cur = &b.dom
	case buildColor:
		if b.St.Dom.IsDominator {
			b.col = &backbone.ColorFrag{Cfg: pl.Color}
			b.cur = b.col
		} else {
			b.enterIdle(pl.Color.SlotBudget(p))
		}
	case buildAnnounce:
		b.ann = announceFrag{pl: pl, dom: b.St.Dom, ownColor: b.ownColor}
		b.cur = &b.ann
	case buildCSA:
		// Stage 4: the Lemma 14 chooser between the two CSA variants.
		if pl.UseSmall {
			cfg := pl.CSASmall
			cfg.Offset = b.St.Off
			if b.St.Dom.IsDominator {
				b.csaSDom = &csa.SmallDominatorFrag{Cfg: cfg}
				b.cur = b.csaSDom
			} else {
				b.csaSDee = csa.SmallDominateeFrag{Cfg: cfg, Dom: b.St.Dom.Dominator}
				b.cur = &b.csaSDee
			}
		} else {
			cfg := pl.CSALarge
			cfg.Offset = b.St.Off
			if b.St.Dom.IsDominator {
				b.csaDom = &csa.DominatorFrag{Cfg: cfg, Dom: sc.ID()}
				b.cur = b.csaDom
			} else {
				b.csaDee = csa.DominateeFrag{Cfg: cfg, Dom: b.St.Dom.Dominator}
				b.cur = &b.csaDee
			}
		}
	case buildElect:
		// Stage 5: reporter election on f_v channels.
		b.St.Fv = pl.fv(b.St.Est)
		elect := pl.Elect
		elect.Offset = b.St.Off
		b.St.Role = -1
		if b.St.Dom.IsDominator {
			b.enterIdle(elect.SlotBudget(p))
		} else {
			b.St.Channel = sc.Rand.Intn(b.St.Fv)
			b.elect = reporter.ElectFrag{Cfg: elect, Channel: b.St.Channel, Dom: b.St.Dom.Dominator}
			b.cur = &b.elect
		}
	}
}

// leave consumes the finished stage's result.
func (b *BuildFrag) leave(sc *sim.StepCtx) {
	pl := b.Plan
	switch b.stage {
	case buildDominate:
		b.St = Structure{Dom: b.dom.Out, Channel: -1}
	case buildColor:
		if b.St.Dom.IsDominator {
			b.ownColor = b.col.Out.Color
		} else {
			b.ownColor = -1
		}
		b.col = nil
	case buildAnnounce:
		b.St.Color = b.ann.Color
		b.St.Off = b.St.Color % pl.Cfg.PhiMax
		if b.St.Off < 0 {
			b.St.Off = 0
		}
	case buildCSA:
		switch {
		case pl.UseSmall && b.St.Dom.IsDominator:
			b.St.Est = b.csaSDom.Estimate
		case pl.UseSmall:
			b.St.Est = b.csaSDee.Estimate
		case b.St.Dom.IsDominator:
			b.St.Est = b.csaDom.Estimate + 1 // members + self
		default:
			est := b.csaDee.Estimate
			if est > 0 {
				est++
			}
			b.St.Est = est
		}
		b.csaDom, b.csaSDom = nil, nil
		b.csaSDee = csa.SmallDominateeFrag{} // drops its internal sub-fragments
	case buildElect:
		if b.St.Dom.IsDominator {
			b.St.Role = 0
		} else if b.elect.Min == sc.ID() {
			b.St.Role = b.St.Channel + 1
		}
	}
	b.stage++
}

// CastConfig returns the reporter-tree cast configuration for the node's
// TDMA offset.
func (pl *Plan) CastConfig(off int) reporter.CastConfig {
	cast := reporter.DefaultCastConfig(pl.Params.Channels, pl.ClusterRadius())
	cast.Stride, cast.Offset = pl.Cfg.PhiMax, off
	return cast
}
