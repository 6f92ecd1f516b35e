package csa

// The cluster-size estimators as sim.Frags (see internal/sim: Stepper,
// Frag): each round loop's state is held explicitly, one slot per Feed.

import (
	"math"

	"mcnet/internal/agg"
	"mcnet/internal/phy"
	"mcnet/internal/reporter"
	"mcnet/internal/sim"
)

// DominatorFrag executes the counting side of the estimator for cluster
// head Dom (usually the node itself; channel leaders in the small-Δ̂
// variant pass their own ID), consuming exactly Cfg.SlotBudget slots. Per
// phase it counts the probes heard in the probe rounds; the first phase
// whose count reaches the threshold fixes the estimate Δ̂/2^phase, which
// it then announces in every notification round. Estimate — the number of
// PROBING members, excluding the head itself, constant-factor accurate
// w.h.p. — is valid once Feed returns true (0 if the cluster appears
// empty).
type DominatorFrag struct {
	Cfg      Config
	Dom      int
	Estimate int

	init                   bool
	phases, rounds, thresh int
	phase, round           int
	pos                    uint8 // 0/1/2 probe round, 3/4/5 notification
	count                  int
	terminated             bool
	awaitProbe             bool
}

// Feed implements sim.Frag.
func (f *DominatorFrag) Feed(sc *sim.StepCtx) bool {
	p := sc.Params()
	if !f.init {
		f.init = true
		f.phases = f.Cfg.Phases()
		f.rounds = f.Cfg.RoundsPerPhase(p)
		f.thresh = f.Cfg.threshold(p)
	}
	if f.awaitProbe {
		f.awaitProbe = false
		rec := sc.Prev()
		if m, ok := rec.Msg.(Probe); ok && m.Dom == f.Dom &&
			phy.SenderWithin(rec, p, f.Cfg.ClusterRadius) {
			f.count++
		}
	}
	stride := f.Cfg.stride()
	off := f.Cfg.Offset
	for {
		if f.phase >= f.phases {
			return true
		}
		switch f.pos {
		case 0: // probe-round pre-idle
			if f.round >= f.rounds {
				f.pos = 3
				continue
			}
			f.pos = 1
			if off > 0 {
				sc.IdleFor(off)
				return false
			}
		case 1: // probe-round listen
			f.pos = 2
			sc.Listen(f.Cfg.Channel)
			f.awaitProbe = true
			return false
		case 2: // probe-round post-idle
			f.pos = 0
			f.round++
			if k := stride - 1 - off; k > 0 {
				sc.IdleFor(k)
				return false
			}
		case 3: // notification pre-idle
			f.pos = 4
			if off > 0 {
				sc.IdleFor(off)
				return false
			}
		case 4: // notification act
			f.pos = 5
			if !f.terminated && f.count >= f.thresh {
				f.terminated = true
				f.Estimate = f.Cfg.DeltaHat >> f.phase
				if f.Estimate < 1 {
					f.Estimate = 1
				}
			}
			if f.terminated {
				sc.Transmit(f.Cfg.Channel, Estimate{Dom: f.Dom, Est: f.Estimate})
			} else {
				sc.Idle()
			}
			return false
		default: // notification post-idle + phase advance
			f.pos = 0
			f.round = 0
			f.count = 0
			f.phase++
			if k := stride - 1 - off; k > 0 {
				sc.IdleFor(k)
				return false
			}
		}
	}
}

// DominateeFrag executes the probing side of the estimator for a member of
// cluster Dom, consuming exactly Cfg.SlotBudget slots: it probes with a
// probability that starts at λ/Δ̂ and doubles per phase (capped at λ) until
// it hears the head's notification. Estimate is valid once Feed returns
// true (0 if no notification arrived).
type DominateeFrag struct {
	Cfg      Config
	Dom      int
	Estimate int

	init           bool
	phases, rounds int
	phase, round   int
	pos            uint8 // 0/1/2 probe round, 3/4/5 notification
	prob           float64
	awaitEst       bool
}

// Feed implements sim.Frag.
func (f *DominateeFrag) Feed(sc *sim.StepCtx) bool {
	p := sc.Params()
	if !f.init {
		f.init = true
		f.phases = f.Cfg.Phases()
		f.rounds = f.Cfg.RoundsPerPhase(p)
		f.prob = f.Cfg.Lambda / float64(f.Cfg.DeltaHat)
	}
	if f.awaitEst {
		f.awaitEst = false
		rec := sc.Prev()
		if m, ok := rec.Msg.(Estimate); ok && m.Dom == f.Dom &&
			phy.SenderWithin(rec, p, f.Cfg.ClusterRadius) && f.Estimate == 0 {
			f.Estimate = m.Est
		}
	}
	stride := f.Cfg.stride()
	off := f.Cfg.Offset
	for {
		if f.phase >= f.phases {
			return true
		}
		switch f.pos {
		case 0: // probe-round pre-idle
			if f.round >= f.rounds {
				f.pos = 3
				continue
			}
			f.pos = 1
			if off > 0 {
				sc.IdleFor(off)
				return false
			}
		case 1: // probe-round act
			f.pos = 2
			if f.Estimate == 0 && sc.Rand.Float64() < f.prob {
				sc.Transmit(f.Cfg.Channel, Probe{From: sc.ID(), Dom: f.Dom})
			} else {
				sc.Idle()
			}
			return false
		case 2: // probe-round post-idle
			f.pos = 0
			f.round++
			if k := stride - 1 - off; k > 0 {
				sc.IdleFor(k)
				return false
			}
		case 3: // notification pre-idle
			f.pos = 4
			if off > 0 {
				sc.IdleFor(off)
				return false
			}
		case 4: // notification listen
			f.pos = 5
			sc.Listen(f.Cfg.Channel)
			f.awaitEst = true
			return false
		default: // notification post-idle + phase advance
			f.pos = 0
			f.round = 0
			f.phase++
			f.prob = math.Min(f.prob*2, f.Cfg.Lambda)
			if k := stride - 1 - off; k > 0 {
				sc.IdleFor(k)
				return false
			}
		}
	}
}

// smallCastCfg builds the reporter-tree config the small variant uses.
func smallCastCfg(cfg SmallConfig) reporter.CastConfig {
	cast := reporter.DefaultCastConfig(cfg.F, cfg.ClusterRadius)
	cast.Stride, cast.Offset = cfg.stride(), cfg.Offset
	return cast
}

// SmallDominatorFrag executes the dominator side of the Appendix A variant,
// consuming exactly Cfg.SlotBudget slots: it sits out the election and the
// probing, collects the per-channel counts up the reporter tree, and
// broadcasts the total. Estimate — members plus the dominator itself — is
// valid once Feed returns true.
type SmallDominatorFrag struct {
	Cfg      SmallConfig
	Estimate int

	init  bool
	stage uint8 // 0 idle-elect, 1 idle-probe, 2 cast up, 3/4/5 broadcast
	idle  sim.IdleFrag
	cast  *reporter.CastUpFrag
}

// Feed implements sim.Frag.
func (f *SmallDominatorFrag) Feed(sc *sim.StepCtx) bool {
	p := sc.Params()
	for {
		switch f.stage {
		case 0: // sit out the election
			if !f.init {
				f.init = true
				elect := f.Cfg.Elect
				elect.Stride, elect.Offset = f.Cfg.stride(), f.Cfg.Offset
				f.idle = sim.IdleFrag{K: elect.SlotBudget(p)}
			}
			if !f.idle.Feed(sc) {
				return false
			}
			probe := f.Cfg.Probe
			probe.Stride, probe.Offset = f.Cfg.stride(), f.Cfg.Offset
			f.idle = sim.IdleFrag{K: probe.SlotBudget(p)}
			f.stage = 1
		case 1: // sit out the probing
			if !f.idle.Feed(sc) {
				return false
			}
			f.cast = &reporter.CastUpFrag{
				Cfg: smallCastCfg(f.Cfg), Role: 0, Dom: sc.ID(), Value: 0, Op: agg.Sum,
			}
			f.stage = 2
		case 2: // aggregate channel counts up the reporter tree
			if !f.cast.Feed(sc) {
				return false
			}
			f.Estimate = int(f.cast.St.Value) + 1 // members + self
			f.stage = 3
		case 3: // broadcast pre-idle
			f.stage = 4
			if k := f.Cfg.Offset; k > 0 {
				sc.IdleFor(k)
				return false
			}
		case 4: // broadcast
			f.stage = 5
			sc.Transmit(0, Estimate{Dom: sc.ID(), Est: f.Estimate})
			return false
		case 5: // broadcast post-idle
			f.stage = 6
			if k := f.Cfg.stride() - 1 - f.Cfg.Offset; k > 0 {
				sc.IdleFor(k)
				return false
			}
		default:
			return true
		}
	}
}

// SmallDominateeFrag executes the member side of the Appendix A variant
// for cluster Dom, consuming exactly Cfg.SlotBudget slots: pick a channel,
// elect a leader, estimate per channel (the leader counts, the others
// probe), report the leader's count up the reporter tree, and learn the
// total from the dominator's broadcast. Estimate is valid once Feed
// returns true (0 if the broadcast was missed).
type SmallDominateeFrag struct {
	Cfg      SmallConfig
	Dom      int
	Estimate int

	init    bool
	stage   uint8 // 0 elect, 1 lead probe, 2 lead cast, 3 member probe, 4 idle cast, 5/6/7 broadcast
	channel int
	elect   *reporter.ElectFrag
	domFrag *DominatorFrag
	deeFrag *DominateeFrag
	cast    *reporter.CastUpFrag
	idle    sim.IdleFrag
	await   bool
}

// Feed implements sim.Frag.
func (f *SmallDominateeFrag) Feed(sc *sim.StepCtx) bool {
	p := sc.Params()
	if f.await {
		f.await = false
		rec := sc.Prev()
		if m, ok := rec.Msg.(Estimate); ok && m.Dom == f.Dom &&
			phy.SenderWithin(rec, p, f.Cfg.ClusterRadius) {
			f.Estimate = m.Est
		}
	}
	for {
		switch f.stage {
		case 0: // channel choice + election
			if !f.init {
				f.init = true
				f.channel = sc.Rand.Intn(f.Cfg.F)
				elect := f.Cfg.Elect
				elect.Stride, elect.Offset = f.Cfg.stride(), f.Cfg.Offset
				f.elect = &reporter.ElectFrag{Cfg: elect, Channel: f.channel, Dom: f.Dom}
			}
			if !f.elect.Feed(sc) {
				return false
			}
			probe := f.Cfg.Probe
			probe.Stride, probe.Offset = f.Cfg.stride(), f.Cfg.Offset
			probe.Channel = f.channel
			if f.elect.Min == sc.ID() {
				f.domFrag = &DominatorFrag{Cfg: probe, Dom: sc.ID()}
				f.stage = 1
			} else {
				f.deeFrag = &DominateeFrag{Cfg: probe, Dom: f.elect.Min}
				f.stage = 3
			}
		case 1: // channel leader: count own channel
			if !f.domFrag.Feed(sc) {
				return false
			}
			f.cast = &reporter.CastUpFrag{
				Cfg: smallCastCfg(f.Cfg), Role: f.channel + 1, Dom: f.Dom,
				Value: int64(f.domFrag.Estimate) + 1, Op: agg.Sum, // + leader
			}
			f.stage = 2
		case 2: // channel leader: report up the tree
			if !f.cast.Feed(sc) {
				return false
			}
			f.stage = 5
		case 3: // member: probe
			if !f.deeFrag.Feed(sc) {
				return false
			}
			f.idle = sim.IdleFrag{K: smallCastCfg(f.Cfg).SlotBudget()}
			f.stage = 4
		case 4: // member: sit out the cast
			if !f.idle.Feed(sc) {
				return false
			}
			f.stage = 5
		case 5: // broadcast pre-idle
			f.stage = 6
			if k := f.Cfg.Offset; k > 0 {
				sc.IdleFor(k)
				return false
			}
		case 6: // broadcast listen on channel 0
			f.stage = 7
			sc.Listen(0)
			f.await = true
			return false
		case 7: // broadcast post-idle
			f.stage = 8
			if k := f.Cfg.stride() - 1 - f.Cfg.Offset; k > 0 {
				sc.IdleFor(k)
				return false
			}
		default:
			return true
		}
	}
}
