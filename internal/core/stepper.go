package core

import (
	"mcnet/internal/agg"
	"mcnet/internal/backbone"
	"mcnet/internal/csa"
	"mcnet/internal/dominate"
	"mcnet/internal/phy"
	"mcnet/internal/reporter"
	"mcnet/internal/sim"
)

// This file is the pipeline in the engine's Stepper form (see internal/sim:
// Stepper, Frag). pipelineStepper chains the per-stage fragments; the
// stage-glue code (structure bookkeeping, the elect channel draw, the
// cast-value fold) runs at the fragment boundaries. Recorded digests in
// testdata/golden_aggregate.json pin the transcripts.

// Pipeline stages, in slot order.
const (
	stDominate uint8 = iota
	stColor
	stAnnounce
	stCSA
	stElect
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

	// Stages every node (or every member — at crowd scale, nearly every
	// node) passes through live as values inside the stepper, so entering
	// them costs zero allocations: cur points at the embedded field. The
	// rare-role fragments (dominators are ~1 per cluster) stay heap
	// pointers to keep the arena element lean.
	dom     dominate.RunFrag
	ann     announceFrag
	csaDee  csa.DominateeFrag
	csaSDee csa.SmallDominateeFrag
	elect   reporter.ElectFrag
	fol     followerFrag
	inf     informFrag
	idle    sim.IdleFrag

	col     *backbone.ColorFrag
	csaDom  *csa.DominatorFrag
	csaSDom *csa.SmallDominatorFrag
	cast    *reporter.CastUpFrag
	tree    *backbone.TreeFrag

	ownColor   int
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
		ps.enter(sc)
	}
}

// enterIdle points cur at the embedded idle fragment, reset for a k-slot
// idle stretch.
func (ps *pipelineStepper) enterIdle(k int) {
	ps.idle = sim.IdleFrag{K: k}
	ps.cur = &ps.idle
}

// enter builds the fragment for the current stage, running its pre-stage
// glue (the member's elect channel draw, the reporter's cast-value fold).
func (ps *pipelineStepper) enter(sc *sim.StepCtx) {
	pl := ps.pl
	p := sc.Params()
	switch ps.stage {
	case stDominate:
		ps.dom = dominate.RunFrag{Cfg: pl.Dominate}
		ps.cur = &ps.dom
	case stColor:
		if ps.st.Dom.IsDominator {
			ps.col = &backbone.ColorFrag{Cfg: pl.Color}
			ps.cur = ps.col
		} else {
			ps.enterIdle(pl.Color.SlotBudget(p))
		}
	case stAnnounce:
		ps.ann = announceFrag{pl: pl, dom: ps.st.Dom, ownColor: ps.ownColor}
		ps.cur = &ps.ann
	case stCSA:
		if pl.UseSmall {
			cfg := pl.CSASmall
			cfg.Offset = ps.st.Off
			if ps.st.Dom.IsDominator {
				ps.csaSDom = &csa.SmallDominatorFrag{Cfg: cfg}
				ps.cur = ps.csaSDom
			} else {
				ps.csaSDee = csa.SmallDominateeFrag{Cfg: cfg, Dom: ps.st.Dom.Dominator}
				ps.cur = &ps.csaSDee
			}
		} else {
			cfg := pl.CSALarge
			cfg.Offset = ps.st.Off
			if ps.st.Dom.IsDominator {
				ps.csaDom = &csa.DominatorFrag{Cfg: cfg, Dom: sc.ID()}
				ps.cur = ps.csaDom
			} else {
				ps.csaDee = csa.DominateeFrag{Cfg: cfg, Dom: ps.st.Dom.Dominator}
				ps.cur = &ps.csaDee
			}
		}
	case stElect:
		ps.st.Fv = pl.fv(ps.st.Est)
		elect := pl.Elect
		elect.Offset = ps.st.Off
		ps.st.Role = -1
		if ps.st.Dom.IsDominator {
			ps.enterIdle(elect.SlotBudget(p))
		} else {
			ps.st.Channel = sc.Rand.Intn(ps.st.Fv)
			ps.elect = reporter.ElectFrag{Cfg: elect, Channel: ps.st.Channel, Dom: ps.st.Dom.Dominator}
			ps.cur = &ps.elect
		}
	case stFollower:
		ps.fol = followerFrag{pl: pl, st: ps.st, value: ps.value}
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
	pl := ps.pl
	switch ps.stage {
	case stDominate:
		ps.st = Structure{Channel: -1}
		ps.st.Dom = ps.dom.Out
		ps.stage = stColor
	case stColor:
		if ps.st.Dom.IsDominator {
			ps.ownColor = ps.col.Out.Color
		} else {
			ps.ownColor = -1
		}
		ps.col = nil
		ps.stage = stAnnounce
	case stAnnounce:
		ps.st.Color = ps.ann.Color
		ps.st.Off = ps.st.Color % pl.Cfg.PhiMax
		if ps.st.Off < 0 {
			ps.st.Off = 0
		}
		ps.stage = stCSA
	case stCSA:
		switch {
		case pl.UseSmall && ps.st.Dom.IsDominator:
			ps.st.Est = ps.csaSDom.Estimate
		case pl.UseSmall:
			ps.st.Est = ps.csaSDee.Estimate
		case ps.st.Dom.IsDominator:
			ps.st.Est = ps.csaDom.Estimate + 1 // members + self
		default:
			est := ps.csaDee.Estimate
			if est > 0 {
				est++
			}
			ps.st.Est = est
		}
		ps.csaDom, ps.csaSDom = nil, nil
		ps.csaSDee = csa.SmallDominateeFrag{} // drops its internal sub-fragments
		ps.stage = stElect
	case stElect:
		if ps.st.Dom.IsDominator {
			ps.st.Role = 0
		} else if ps.elect.Min == sc.ID() {
			ps.st.Role = ps.st.Channel + 1
		}
		r := &ps.res[sc.ID()]
		r.IsDominator = ps.st.IsDominator()
		r.Dominator = ps.st.Dom.Dominator
		r.Color = ps.st.Color
		r.SizeEst = ps.st.Est
		r.Channel = ps.st.Channel
		r.IsReporter = ps.st.IsReporter()
		ps.stage = stFollower
	case stFollower:
		ps.stage = stCast
	case stCast:
		if ps.st.Role == 0 {
			ps.clusterAgg = ps.cast.St.Value
			sc.Emit(EventClusterAgg, 0)
		}
		ps.fol = followerFrag{} // drops the reporter's Got map
		ps.cast = nil
		ps.stage = stTree
	case stTree:
		ps.stage = stInform
	case stInform:
		if ps.inf.Have {
			r := &ps.res[sc.ID()]
			r.Value, r.Ok = ps.inf.Value, true
			sc.Emit(EventInformed, 0)
		}
		ps.tree = nil
		ps.stage = stDone
	}
}

// announceFrag is the sim.Frag form of runAnnounce. Color is valid once
// Feed returns true.
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

// followerFrag is the sim.Frag form of FollowerStage. Got and AckedOn are
// valid once Feed returns true.
type followerFrag struct {
	pl    *Plan
	st    Structure
	value int64

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
func (f *followerFrag) Feed(sc *sim.StepCtx) bool {
	pl := f.pl
	p := pl.Params
	if !f.init {
		f.init = true
		f.stride = pl.Cfg.PhiMax
		f.isRep = f.st.IsReporter()
		f.repChan = f.st.Role - 1
		f.isDom = f.st.IsDominator()
		f.follower = !f.isRep && !f.isDom
		f.pu = pl.Cfg.Lambda * float64(f.st.Fv) / float64(max2(f.st.Est, 1))
		if f.pu > 0.5 {
			f.pu = 0.5
		}
		f.memberR = pl.ClusterRadius()
		f.off = f.st.Off
		f.AckedOn = -1
		f.sentOn, f.ackTo = -1, -1
		if f.isRep {
			f.Got = map[int]int64{}
		}
	}
	switch f.await {
	case folAwaitRep:
		rec := sc.Prev()
		if m, ok := rec.Msg.(FollowerMsg); ok && m.Dom == f.st.Dom.Dominator &&
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
			a.Dom == f.st.Dom.Dominator {
			f.acked = true
			f.AckedOn = f.sentOn
			sc.Emit(EventAcked, f.phase)
		}
	case folAwaitBackoff:
		rec := sc.Prev()
		if b, ok := rec.Msg.(Backoff); ok && b.Dom == f.st.Dom.Dominator &&
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
				f.sentOn = sc.Rand.Intn(f.st.Fv)
				sc.Transmit(f.sentOn, FollowerMsg{From: sc.ID(), Dom: f.st.Dom.Dominator, Value: f.value})
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
				sc.Transmit(f.repChan, FollowerAck{To: f.ackTo, Dom: f.st.Dom.Dominator})
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

// informFrag is the sim.Frag form of InformStage. Value and Have are the
// stage's in/out value pair.
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
