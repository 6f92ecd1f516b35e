package core

import (
	"mcnet/internal/agg"
	"mcnet/internal/backbone"
	"mcnet/internal/dominate"
	"mcnet/internal/phy"
	"mcnet/internal/reporter"
	"mcnet/internal/sim"
)

// This file is the pipeline in the engine's Stepper form (see internal/sim:
// Stepper, Frag). pipelineStepper chains the structure build (BuildFrag)
// and the per-stage fragments of the aggregation half; the stage-glue code
// (result bookkeeping, the cast-value fold) runs at the fragment
// boundaries. Recorded digests in testdata/golden_aggregate.json pin the
// transcripts.

// Pipeline stages, in slot order.
const (
	stBuild uint8 = iota
	stFollower
	stCast
	stTree
	stInform
	stDone
)

// pipelineStepper is one node's pipeline as a sim.Stepper: the active
// fragment acts each slot; when it finalizes, the stage glue runs and the
// next fragment starts within the same Step call.
type pipelineStepper struct {
	pl    *Plan
	value int64
	op    agg.Op
	res   []Result

	stage uint8
	st    Structure
	cur   sim.Frag

	// As in BuildFrag, the stages every node passes through are embedded
	// values and the dominator-only ones heap pointers.
	build BuildFrag
	fol   FollowerFrag
	inf   informFrag
	idle  sim.IdleFrag

	cast *reporter.CastUpFrag
	tree *backbone.TreeFrag

	clusterAgg int64
}

// Step implements sim.Stepper.
func (ps *pipelineStepper) Step(sc *sim.StepCtx) {
	for {
		if ps.cur != nil {
			if !ps.cur.Feed(sc) {
				return
			}
			ps.cur = nil
			ps.leave(sc)
		}
		if ps.stage == stDone {
			sc.Done()
			return
		}
		ps.enter()
	}
}

// enterIdle points cur at the embedded idle fragment, reset for a k-slot
// idle stretch.
func (ps *pipelineStepper) enterIdle(k int) {
	ps.idle = sim.IdleFrag{K: k}
	ps.cur = &ps.idle
}

// enter builds the fragment for the current stage, running its pre-stage
// glue (the reporter's cast-value fold).
func (ps *pipelineStepper) enter() {
	pl := ps.pl
	switch ps.stage {
	case stBuild:
		ps.build = BuildFrag{Plan: pl}
		ps.cur = &ps.build
	case stFollower:
		ps.fol = FollowerFrag{Plan: pl, St: ps.st, Value: ps.value}
		ps.cur = &ps.fol
	case stCast:
		cast := pl.CastConfig(ps.st.Off)
		if ps.st.Role >= 0 {
			castVal := ps.value
			for _, v := range ps.fol.Got {
				castVal = ps.op.Combine(castVal, v)
			}
			ps.cast = &reporter.CastUpFrag{
				Cfg: cast, Role: ps.st.Role, Dom: ps.st.Dom.Dominator,
				Value: castVal, Op: ps.op,
			}
			ps.cur = ps.cast
		} else {
			ps.enterIdle(cast.SlotBudget())
		}
	case stTree:
		if ps.st.IsDominator() {
			ps.tree = &backbone.TreeFrag{Cfg: pl.Tree, Color: ps.st.Off, Value: ps.clusterAgg, Op: ps.op}
			ps.cur = ps.tree
		} else {
			ps.enterIdle(pl.Tree.SlotBudget())
		}
	case stInform:
		ps.inf = informFrag{pl: pl, st: ps.st}
		if ps.st.IsDominator() && ps.tree != nil {
			ps.inf.Value, ps.inf.Have = ps.tree.Out.Result, ps.tree.Out.Done
		}
		ps.cur = &ps.inf
	}
}

// leave consumes the finished stage's result, including the stage's Emits.
func (ps *pipelineStepper) leave(sc *sim.StepCtx) {
	switch ps.stage {
	case stBuild:
		ps.st = ps.build.St
		r := &ps.res[sc.ID()]
		r.IsDominator = ps.st.IsDominator()
		r.Dominator = ps.st.Dom.Dominator
		r.Color = ps.st.Color
		r.SizeEst = ps.st.Est
		r.Channel = ps.st.Channel
		r.IsReporter = ps.st.IsReporter()
	case stCast:
		if ps.st.Role == 0 {
			ps.clusterAgg = ps.cast.St.Value
			sc.Emit(EventClusterAgg, 0)
		}
		ps.fol = FollowerFrag{} // drops the reporter's Got map
		ps.cast = nil
	case stInform:
		if ps.inf.Have {
			r := &ps.res[sc.ID()]
			r.Value, r.Ok = ps.inf.Value, true
			sc.Emit(EventInformed, 0)
		}
		ps.tree = nil
	}
	ps.stage++
}

// announceFrag is stage 3, color dissemination: dominators repeatedly
// announce their color on channel 0 and members learn their cluster's
// color. Color — the dominator's own, the learned one, or 0 if a member
// missed it — is valid once Feed returns true.
type announceFrag struct {
	pl       *Plan
	dom      dominate.Outcome
	ownColor int
	Color    int

	init  bool
	s     int
	color int
	await bool
}

// Feed implements sim.Frag.
func (f *announceFrag) Feed(sc *sim.StepCtx) bool {
	if !f.init {
		f.init = true
		f.color = -1
	}
	p := f.pl.Params
	if f.await {
		f.await = false
		rec := sc.Prev()
		if m, ok := rec.Msg.(ColorMsg); ok && m.Dom == f.dom.Dominator &&
			phy.SenderWithin(rec, p, p.ClusterRadius()) {
			f.color = m.Color
		}
	}
	if f.s >= f.pl.AnnounceSlots {
		if f.dom.IsDominator {
			f.Color = f.ownColor
		} else {
			f.Color = f.color
			if f.Color < 0 {
				f.Color = 0 // degraded: TDMA misalignment possible, but keep going
			}
		}
		return true
	}
	f.s++
	if f.dom.IsDominator {
		if sc.Rand.Float64() < 0.2 {
			sc.Transmit(0, ColorMsg{Dom: sc.ID(), Color: f.ownColor})
		} else {
			sc.Idle()
		}
		return false
	}
	if f.color >= 0 {
		sc.Idle()
		return false
	}
	sc.Listen(0)
	f.await = true
	return false
}

// folAwait tags which listen, if any, the follower fragment's previous slot
// holds.
type folAwait uint8

const (
	folAwaitNone folAwait = iota
	folAwaitRep
	folAwaitDom
	folAwaitAck
	folAwaitBackoff
)

// FollowerFrag runs pipeline stage 6 (Sec. 6, first procedure) for a node
// at St in the structure: followers deliver Value to reporters under
// backoff-controlled contention. Once Feed returns true, a reporter's Got
// maps follower IDs to their collected values, and a follower's AckedOn is
// the channel whose reporter acknowledged its value (-1 if none did) — that
// reporter owns the follower in the Sec. 7 coloring. It consumes exactly
// Offsets.Tree − Offsets.Followers slots.
type FollowerFrag struct {
	Plan  *Plan
	St    Structure
	Value int64

	Got     map[int]int64
	AckedOn int

	init                   bool
	stride, off            int
	isRep, isDom, follower bool
	repChan                int
	acked                  bool
	pu                     float64
	memberR                float64
	phase, round           int
	pos                    uint8 // 0-3 value rounds, 4-7 backoff round
	count                  int
	heardBackoff           bool
	sentOn, ackTo          int
	await                  folAwait
}

// Feed implements sim.Frag.
func (f *FollowerFrag) Feed(sc *sim.StepCtx) bool {
	pl := f.Plan
	p := pl.Params
	if !f.init {
		f.init = true
		f.stride = pl.Cfg.PhiMax
		f.isRep = f.St.IsReporter()
		f.repChan = f.St.Role - 1
		f.isDom = f.St.IsDominator()
		f.follower = !f.isRep && !f.isDom
		f.pu = pl.Cfg.Lambda * float64(f.St.Fv) / float64(max2(f.St.Est, 1))
		if f.pu > 0.5 {
			f.pu = 0.5
		}
		f.memberR = pl.ClusterRadius()
		f.off = f.St.Off
		f.AckedOn = -1
		f.sentOn, f.ackTo = -1, -1
		if f.isRep {
			f.Got = map[int]int64{}
		}
	}
	switch f.await {
	case folAwaitRep:
		rec := sc.Prev()
		if m, ok := rec.Msg.(FollowerMsg); ok && m.Dom == f.St.Dom.Dominator &&
			phy.SenderWithin(rec, p, f.memberR) {
			f.Got[m.From] = m.Value
			f.ackTo = m.From
		}
	case folAwaitDom:
		rec := sc.Prev()
		if m, ok := rec.Msg.(FollowerMsg); ok && m.Dom == sc.ID() &&
			phy.SenderWithin(rec, p, f.memberR) {
			f.count++
		}
	case folAwaitAck:
		rec := sc.Prev()
		if a, ok := rec.Msg.(FollowerAck); ok && a.To == sc.ID() &&
			a.Dom == f.St.Dom.Dominator {
			f.acked = true
			f.AckedOn = f.sentOn
			sc.Emit(EventAcked, f.phase)
		}
	case folAwaitBackoff:
		rec := sc.Prev()
		if b, ok := rec.Msg.(Backoff); ok && b.Dom == f.St.Dom.Dominator &&
			phy.SenderWithin(rec, p, f.memberR) {
			f.heardBackoff = true
		}
	}
	f.await = folAwaitNone
	for {
		if f.phase >= pl.FollowerPhases {
			return true
		}
		switch f.pos {
		case 0: // value-round pre-idle
			if f.round >= pl.FollowerGamma {
				f.pos = 4
				continue
			}
			f.pos = 1
			if k := 2 * f.off; k > 0 {
				sc.IdleFor(k)
				return false
			}
		case 1: // sub-slot 1: follower transmissions
			f.pos = 2
			f.sentOn, f.ackTo = -1, -1
			switch {
			case f.follower && !f.acked && sc.Rand.Float64() < f.pu:
				f.sentOn = sc.Rand.Intn(f.St.Fv)
				sc.Transmit(f.sentOn, FollowerMsg{From: sc.ID(), Dom: f.St.Dom.Dominator, Value: f.Value})
			case f.isRep:
				sc.Listen(f.repChan)
				f.await = folAwaitRep
			case f.isDom:
				sc.Listen(0)
				f.await = folAwaitDom
			default:
				sc.Idle()
			}
			return false
		case 2: // sub-slot 2: acknowledgements
			f.pos = 3
			switch {
			case f.isRep && f.ackTo >= 0:
				sc.Transmit(f.repChan, FollowerAck{To: f.ackTo, Dom: f.St.Dom.Dominator})
			case f.follower && f.sentOn >= 0:
				sc.Listen(f.sentOn)
				f.await = folAwaitAck
			default:
				sc.Idle()
			}
			return false
		case 3: // value-round post-idle
			f.pos = 0
			f.round++
			if k := 2 * (f.stride - 1 - f.off); k > 0 {
				sc.IdleFor(k)
				return false
			}
		case 4: // backoff-round pre-idle
			f.pos = 5
			if k := 2 * f.off; k > 0 {
				sc.IdleFor(k)
				return false
			}
		case 5: // backoff signal
			f.pos = 6
			switch {
			case f.isDom && f.count >= pl.Omega && !pl.Cfg.DisableBackoff:
				sc.Transmit(0, Backoff{Dom: sc.ID()})
			case f.follower && !f.acked:
				sc.Listen(0)
				f.await = folAwaitBackoff
			default:
				sc.Idle()
			}
			return false
		case 6: // stride parity
			f.pos = 7
			sc.Idle()
			return false
		default: // backoff-round post-idle + phase advance
			f.pos = 0
			f.round = 0
			if f.follower && !f.acked && !f.heardBackoff {
				f.pu *= 2
				if f.pu > 0.5 {
					f.pu = 0.5
				}
			}
			f.phase++
			f.count = 0
			f.heardBackoff = false
			if k := 2 * (f.stride - 1 - f.off); k > 0 {
				sc.IdleFor(k)
				return false
			}
		}
	}
}

// informFrag is pipeline stage 9: dominators announce Value within their
// clusters while members without a value listen. Value and Have are the
// stage's in/out value pair; it consumes exactly PhiMax slots.
type informFrag struct {
	pl *Plan
	st Structure

	Value int64
	Have  bool

	sub   int
	await bool
}

// Feed implements sim.Frag.
func (f *informFrag) Feed(sc *sim.StepCtx) bool {
	p := f.pl.Params
	if f.await {
		f.await = false
		rec := sc.Prev()
		if m, ok := rec.Msg.(FinalMsg); ok && m.Dom == f.st.Dom.Dominator &&
			phy.SenderWithin(rec, p, p.ClusterRadius()) {
			f.Value, f.Have = m.Value, true
		}
	}
	if f.sub >= f.pl.Cfg.PhiMax {
		return true
	}
	sub := f.sub
	f.sub++
	switch {
	case f.st.IsDominator() && sub == f.st.Off && f.Have:
		sc.Transmit(0, FinalMsg{Dom: sc.ID(), Value: f.Value})
	case !f.st.IsDominator() && !f.Have:
		sc.Listen(0)
		f.await = true
	default:
		sc.Idle()
	}
	return false
}
