package reporter

// Election and the reporter-tree up pass as sim.Frags (see internal/sim:
// Stepper, Frag): each round loop's state is held explicitly, one slot per
// Feed.

import (
	"mcnet/internal/agg"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// ElectFrag executes the election on physical channel Channel for a member
// of cluster Dom, consuming exactly Cfg.SlotBudget slots: a node that still
// believes itself the minimum transmits its candidacy with TxProb, everyone
// else listens and adopts smaller IDs. Min is the node's current minimum;
// once Feed returns true it is the elected reporter's ID — the minimum ID
// among members that chose the channel, w.h.p. — which equals the node's
// own ID exactly when it is the reporter.
type ElectFrag struct {
	Cfg          ElectConfig
	Channel, Dom int
	Min          int

	init      bool
	rounds    int
	round     int
	pos       uint8 // 0 pre-idle, 1 act, 2 post-idle
	awaitCand bool
}

// Feed implements sim.Frag.
func (f *ElectFrag) Feed(sc *sim.StepCtx) bool {
	p := sc.Params()
	if !f.init {
		f.init = true
		f.rounds = f.Cfg.Rounds(p)
		f.Min = sc.ID()
	}
	if f.awaitCand {
		f.awaitCand = false
		rec := sc.Prev()
		if c, ok := rec.Msg.(Cand); ok && c.Dom == f.Dom && c.From < f.Min &&
			phy.SenderWithin(rec, p, f.Cfg.ClusterRadius) {
			f.Min = c.From
		}
	}
	stride := f.Cfg.stride()
	for {
		if f.round >= f.rounds {
			return true
		}
		switch f.pos {
		case 0:
			f.pos = 1
			if f.Cfg.Offset > 0 {
				sc.IdleFor(f.Cfg.Offset)
				return false
			}
		case 1:
			f.pos = 2
			if f.Min == sc.ID() && sc.Rand.Float64() < f.Cfg.TxProb {
				sc.Transmit(f.Channel, Cand{From: sc.ID(), Dom: f.Dom})
			} else {
				sc.Listen(f.Channel)
				f.awaitCand = true
			}
			return false
		default:
			f.pos = 0
			f.round++
			if k := stride - 1 - f.Cfg.Offset; k > 0 {
				sc.IdleFor(k)
				return false
			}
		}
	}
}

// castAwait tags which sub-slot listen the fragment's previous slot holds.
type castAwait uint8

const (
	castAwaitNone castAwait = iota
	castAwaitSub0Parent
	castAwaitSub1Sender
	castAwaitSub2Parent
	castAwaitSub2StandIn
	castAwaitSub3Sender
)

// CastUpFrag executes one up pass of the reporter tree for tree role Role
// in cluster Dom, folding Value with the child values under Op. St is
// valid once Feed returns true.
//
// Role 0 is the dominator; roles 1..F are channel reporters (role k on
// physical channel k-1); bystanders use IdleCast. Missing roles (empty
// channels) are healed by the Appendix A rules: an unacknowledged left
// child stands in for its missing parent, absorbing its sibling's
// transmission directly; an unacknowledged right child takes over only
// when the left sibling is absent too (a present left sibling would have
// acknowledged it).
//
// Sub-slots per level: 0 = left child transmits, 1 = ack to left child,
// 2 = right child transmits, 3 = ack to right child. Role 1 (the root's
// only child) uses the right-child sub-slots. The pass consumes exactly
// Cfg.SlotBudget slots.
type CastUpFrag struct {
	Cfg       CastConfig
	Role, Dom int
	Value     int64
	Op        agg.Op
	St        CastState

	init   bool
	lvl    int
	pos    uint8 // 0 pre-idle, 1..4 sub-slots 0..3, 5 level end + post-idle
	acting int
	done   bool
	await  castAwait
	// Per-level state, reset at each level's sub-slot 0.
	isSender, isParent    bool
	sendsLeft, sendsRight bool
	parentRole            int
	sendCh, ownCh         int
	gotAck, standIn       bool
	sibValue              int64
	sibSeen               bool
}

func (f *CastUpFrag) recordChild(j, side int, v int64) {
	cv, cs := f.St.ChildVals[j], f.St.ChildSeen[j]
	cv[side], cs[side] = v, true
	f.St.ChildVals[j], f.St.ChildSeen[j] = cv, cs
}

// Feed implements sim.Frag.
func (f *CastUpFrag) Feed(sc *sim.StepCtx) bool {
	p := sc.Params()
	if !f.init {
		f.init = true
		f.St = CastState{
			Value:       f.Value,
			DeliveredAs: -1,
			ChildVals:   map[int][2]int64{},
			ChildSeen:   map[int][2]bool{},
		}
		f.acting = f.Role
		if f.Role >= 0 {
			f.St.Chain = append(f.St.Chain, f.Role)
		}
		f.lvl = f.Cfg.Levels()
	}
	switch f.await {
	case castAwaitSub0Parent:
		rec := sc.Prev()
		if m, ok := rec.Msg.(UpMsg); ok && m.ToRole == f.acting && m.Dom == f.Dom &&
			m.From == 2*f.acting && phy.SenderWithin(rec, p, f.Cfg.ClusterRadius) {
			f.recordChild(f.acting, 0, m.Value)
		}
	case castAwaitSub1Sender:
		rec := sc.Prev()
		if a, ok := rec.Msg.(UpAck); ok && a.ToRole == f.acting && a.Dom == f.Dom {
			f.gotAck = true
		}
		f.standIn = !f.gotAck // parent absent: stand in for it
	case castAwaitSub2Parent:
		rec := sc.Prev()
		if m, ok := rec.Msg.(UpMsg); ok && m.ToRole == f.acting && m.Dom == f.Dom &&
			m.From == 2*f.acting+1 && phy.SenderWithin(rec, p, f.Cfg.ClusterRadius) {
			f.recordChild(f.acting, 1, m.Value)
		}
	case castAwaitSub2StandIn:
		rec := sc.Prev()
		if m, ok := rec.Msg.(UpMsg); ok && m.ToRole == f.parentRole && m.Dom == f.Dom &&
			m.From == f.acting+1 && phy.SenderWithin(rec, p, f.Cfg.ClusterRadius) {
			f.sibValue, f.sibSeen = m.Value, true
		}
	case castAwaitSub3Sender:
		rec := sc.Prev()
		if a, ok := rec.Msg.(UpAck); ok && a.ToRole == f.acting && a.Dom == f.Dom {
			f.gotAck = true
		}
	}
	f.await = castAwaitNone

	stride := f.Cfg.stride()
	for {
		if f.lvl < 1 {
			return true
		}
		switch f.pos {
		case 0:
			f.pos = 1
			if k := 4 * f.Cfg.Offset; k > 0 {
				sc.IdleFor(k)
				return false
			}
		case 1: // Sub-slot 0: left children transmit.
			f.isSender = !f.done && f.acting >= 1 && levelOf(f.acting) == f.lvl
			f.isParent = !f.done && f.acting >= 0 && levelOf(f.acting) == f.lvl-1
			f.sendsLeft = f.isSender && f.acting%2 == 0 && f.acting != 1
			f.sendsRight = f.isSender && (f.acting%2 == 1 || f.acting == 1)
			f.parentRole = f.acting / 2
			f.sendCh = chanOf(f.parentRole)
			f.ownCh = chanOf(f.acting)
			f.gotAck, f.standIn, f.sibSeen = false, false, false
			f.sibValue = 0
			f.pos = 2
			switch {
			case f.sendsLeft:
				sc.Transmit(f.sendCh, UpMsg{ToRole: f.parentRole, Dom: f.Dom, From: f.acting, Value: f.St.Value})
			case f.isParent:
				sc.Listen(f.ownCh)
				f.await = castAwaitSub0Parent
			default:
				sc.Idle()
			}
			return false
		case 2: // Sub-slot 1: parents ack their left child.
			f.pos = 3
			switch {
			case f.isParent && f.St.ChildSeen[f.acting][0]:
				sc.Transmit(f.ownCh, UpAck{ToRole: 2 * f.acting, Dom: f.Dom})
			case f.sendsLeft:
				sc.Listen(f.sendCh)
				f.await = castAwaitSub1Sender
			default:
				sc.Idle()
			}
			return false
		case 3: // Sub-slot 2: right children transmit; stand-ins absorb.
			f.pos = 4
			switch {
			case f.sendsRight:
				sc.Transmit(f.sendCh, UpMsg{ToRole: f.parentRole, Dom: f.Dom, From: f.acting, Value: f.St.Value})
			case f.isParent:
				sc.Listen(f.ownCh)
				f.await = castAwaitSub2Parent
			case f.standIn:
				sc.Listen(f.sendCh)
				f.await = castAwaitSub2StandIn
			default:
				sc.Idle()
			}
			return false
		case 4: // Sub-slot 3: parents (or stand-ins) ack the right child.
			f.pos = 5
			switch {
			case f.isParent && f.St.ChildSeen[f.acting][1]:
				sc.Transmit(f.ownCh, UpAck{ToRole: 2*f.acting + 1, Dom: f.Dom})
			case f.standIn && f.sibSeen:
				sc.Transmit(f.sendCh, UpAck{ToRole: f.acting + 1, Dom: f.Dom})
			case f.sendsRight:
				sc.Listen(f.sendCh)
				f.await = castAwaitSub3Sender
			default:
				sc.Idle()
			}
			return false
		default: // Fold, resolve takeovers, post-idle, next level.
			if f.isParent {
				if f.St.ChildSeen[f.acting][0] {
					f.St.Value = f.Op.Combine(f.St.Value, f.St.ChildVals[f.acting][0])
				}
				if f.St.ChildSeen[f.acting][1] {
					f.St.Value = f.Op.Combine(f.St.Value, f.St.ChildVals[f.acting][1])
				}
			}
			if f.isSender {
				switch {
				case f.gotAck:
					f.St.DeliveredAs = f.acting
					f.done = true
				default:
					f.St.Chain = append(f.St.Chain, f.parentRole)
					f.acting = f.parentRole
					if f.standIn {
						f.recordChild(f.parentRole, 0, f.St.Value)
						if f.sibSeen {
							f.St.Value = f.Op.Combine(f.St.Value, f.sibValue)
							f.recordChild(f.parentRole, 1, f.sibValue)
						}
					} else {
						f.recordChild(f.parentRole, 1, f.St.Value)
					}
				}
			}
			f.lvl--
			f.pos = 0
			if k := 4 * (stride - 1 - f.Cfg.Offset); k > 0 {
				sc.IdleFor(k)
				return false
			}
		}
	}
}
