package dominate

// The dominating-set protocol as a sim.Frag (see internal/sim: Stepper,
// Frag): the round loop's state is held explicitly, one slot per Feed.

import (
	"math"

	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// runAwait tags which listen, if any, the fragment's previous slot holds.
type runAwait uint8

const (
	awaitNone runAwait = iota
	awaitHello
	awaitAck
	awaitIn
)

// RunFrag executes the node's side of the dominating-set construction,
// consuming exactly Cfg.SlotBudget slots. Out is valid once Feed returns
// true.
//
// Each round has three slots. HELLO: an uncovered candidate probes with
// the phase probability; everyone else listens and notes a clear prober.
// ACK: a prober listens; a clear receiver confirms with AckProb. IN: an
// acknowledged prober becomes a dominator and announces; established
// dominators re-announce with ReannounceProb; everyone else listens for
// coverage. The probability doubles per phase up to 1/(2µ); a node still
// uncovered at the end appoints itself dominator.
type RunFrag struct {
	Cfg Config
	Out Outcome

	init              bool
	phases, rounds    int
	prob, probCap     float64
	phase, round, sub int
	sentHello         bool
	clearFrom         int
	gotAck            bool
	await             runAwait
}

// Feed implements sim.Frag.
func (f *RunFrag) Feed(sc *sim.StepCtx) bool {
	p := sc.Params()
	if !f.init {
		f.init = true
		f.phases = f.Cfg.phases(p)
		f.rounds = f.Cfg.roundsPerPhase(p)
		f.prob = 1 / float64(p.NEstimate)
		f.probCap = 1 / (2 * f.Cfg.Mu)
		f.Out = Outcome{Dominator: -1}
		f.clearFrom = -1
	}
	// Consume the previous slot's reception first.
	switch f.await {
	case awaitHello:
		rec := sc.Prev()
		if h, ok := rec.Msg.(Hello); ok && !f.Out.IsDominator &&
			phy.Clear(rec, p, f.Cfg.R) {
			f.clearFrom = h.From
		}
	case awaitAck:
		rec := sc.Prev()
		if a, ok := rec.Msg.(Ack); ok && a.To == sc.ID() &&
			phy.SenderWithin(rec, p, f.Cfg.R) {
			f.gotAck = true
		}
	case awaitIn:
		rec := sc.Prev()
		if in, ok := rec.Msg.(In); ok && f.Out.Dominator == -1 &&
			phy.SenderWithin(rec, p, f.Cfg.R) {
			f.Out.Dominator = in.From
		}
	}
	f.await = awaitNone

	if f.phase >= f.phases {
		if f.Out.Dominator == -1 {
			f.Out.IsDominator = true
			f.Out.SelfAppointed = true
			f.Out.Dominator = sc.ID()
		}
		return true
	}

	ch := f.Cfg.Channel
	switch f.sub {
	case 0: // HELLO
		candidate := f.Out.Dominator == -1 && !f.Out.IsDominator
		f.sentHello = candidate && sc.Rand.Float64() < f.prob
		f.clearFrom = -1
		if f.sentHello {
			sc.Transmit(ch, Hello{From: sc.ID()})
		} else {
			sc.Listen(ch)
			f.await = awaitHello
		}
	case 1: // ACK
		f.gotAck = false
		switch {
		case f.sentHello:
			sc.Listen(ch)
			f.await = awaitAck
		case f.clearFrom >= 0 && sc.Rand.Float64() < f.Cfg.AckProb:
			sc.Transmit(ch, Ack{To: f.clearFrom})
		default:
			sc.Listen(ch)
		}
	case 2: // IN
		switch {
		case f.sentHello && f.gotAck:
			f.Out.IsDominator = true
			f.Out.Dominator = sc.ID()
			sc.Transmit(ch, In{From: sc.ID()})
		case f.Out.IsDominator && sc.Rand.Float64() < f.Cfg.ReannounceProb:
			sc.Transmit(ch, In{From: sc.ID()})
		default:
			sc.Listen(ch)
			f.await = awaitIn
		}
	}
	f.sub++
	if f.sub == 3 {
		f.sub = 0
		f.round++
		if f.round == f.rounds {
			f.round = 0
			f.phase++
			f.prob = math.Min(f.prob*2, f.probCap)
		}
	}
	return false
}
