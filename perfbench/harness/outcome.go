package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"regexp"
	"strconv"

	"mcnet"
)

// NodeOutcome is the part of one node's Aggregate result the digest covers.
type NodeOutcome struct {
	Value        int64
	Informed     bool
	Dominator    int
	Channel      int
	SizeEstimate int
}

// AggOutcome is the part of an Aggregate result the digest covers: the slot
// count, the milestone events per stage window, and every node's outcome.
type AggOutcome struct {
	Slots       int
	StageEvents []int
	Nodes       []NodeOutcome
}

// AggOutcomeOf extracts the digested fields from a facade result.
func AggOutcomeOf(res *mcnet.AggregateResult) AggOutcome {
	out := AggOutcome{Slots: res.Slots, StageEvents: make([]int, len(res.Stages)), Nodes: make([]NodeOutcome, len(res.Nodes))}
	for i, st := range res.Stages {
		out.StageEvents[i] = st.Events
	}
	for i, nr := range res.Nodes {
		out.Nodes[i] = NodeOutcome{Value: nr.Value, Informed: nr.Informed, Dominator: nr.Dominator, Channel: nr.Channel, SizeEstimate: nr.SizeEstimate}
	}
	return out
}

// Digest hashes the outcome.
func (o AggOutcome) Digest() string {
	var d digest
	d.ints(o.Slots, len(o.StageEvents))
	d.ints(o.StageEvents...)
	d.ints(len(o.Nodes))
	for _, nd := range o.Nodes {
		informed := 0
		if nd.Informed {
			informed = 1
		}
		d.i64(nd.Value)
		d.ints(informed, nd.Dominator, nd.Channel, nd.SizeEstimate)
	}
	return d.sum()
}

// CheckAllExact reports an error unless every node learned want.
func (o AggOutcome) CheckAllExact(want int64) error {
	informed, exact := 0, 0
	for _, nd := range o.Nodes {
		if nd.Informed {
			informed++
			if nd.Value == want {
				exact++
			}
		}
	}
	if informed != len(o.Nodes) || exact != len(o.Nodes) {
		return fmt.Errorf("informed %d, exact %d of %d nodes", informed, exact, len(o.Nodes))
	}
	return nil
}

// ColorOutcome is the part of one backend's Color + VerifyTDMA result the
// digest covers.
type ColorOutcome struct {
	Backend   string
	Colors    []int
	Cycle     int
	Conflicts int
	TDMA      mcnet.TDMAReport
}

// Check reports an error if a backend that promises a proper coloring
// produced conflicts. sec7's cross-cluster conflicts are documented
// behaviour of the paper's procedures: the digest pins their count instead.
func (o ColorOutcome) Check() error {
	if o.Backend != "sec7" && o.Conflicts != 0 {
		return fmt.Errorf("%s: %d coloring conflicts, want 0", o.Backend, o.Conflicts)
	}
	return nil
}

// ColorDigest hashes the outcomes of one color operation.
func ColorDigest(outs []ColorOutcome) string {
	var d digest
	for _, o := range outs {
		d.text(o.Backend)
		d.ints(len(o.Colors))
		d.ints(o.Colors...)
		d.ints(o.Cycle, o.Conflicts, o.TDMA.Cycle, o.TDMA.Delivered, o.TDMA.Links, o.TDMA.Unscheduled)
	}
	return d.sum()
}

// TextDigest hashes a rendered table or an error message.
func TextDigest(s string) string {
	var d digest
	d.text(s)
	return d.sum()
}

// digest accumulates a canonical byte encoding and hashes it.
type digest struct{ buf []byte }

func (d *digest) i64(v int64) { d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(v)) }

func (d *digest) ints(vs ...int) {
	for _, v := range vs {
		d.i64(int64(v))
	}
}

func (d *digest) text(s string) {
	d.ints(len(s))
	d.buf = append(d.buf, s...)
}

func (d *digest) sum() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:16])
}

// budgetError is the engine's slot-budget abort, the one error storm's
// operations are expected to end with.
var budgetError = regexp.MustCompile(`^sim: exceeded MaxSlots = (\d+) with \d+ nodes still live$`)

// IsBudgetError reports whether err is exactly the engine's abort at a
// budget of maxSlots slots.
func IsBudgetError(err error, maxSlots int) bool {
	if err == nil {
		return false
	}
	m := budgetError.FindStringSubmatch(err.Error())
	return m != nil && m[1] == strconv.Itoa(maxSlots)
}

// StageOf returns the index of the stage window holding slot. Slots at or
// past the final window's end belong to the final stage, the same clamping
// the facade applies to milestone events; slots before the first window
// give -1.
func StageOf(stages []mcnet.StageReport, slot int) int {
	for i, st := range stages {
		if slot >= st.Start && (slot < st.End || i == len(stages)-1) {
			return i
		}
	}
	return -1
}

// PairCounter counts one slot's nominal transmitter–listener pairs: the sum
// over channels of transmitters × listeners on that channel. It is the work
// a resolver that evaluates every pair would do, not what any resolver
// actually evaluates.
type PairCounter struct{ tx, rx []int64 }

// NewPairCounter counts pairs over the given number of channels.
func NewPairCounter(channels int) *PairCounter {
	return &PairCounter{tx: make([]int64, channels), rx: make([]int64, channels)}
}

// Tx and Rx record a transmitter or listener on channel ch; channels
// outside the counter's range are ignored.
func (p *PairCounter) Tx(ch int) {
	if ch >= 0 && ch < len(p.tx) {
		p.tx[ch]++
	}
}

func (p *PairCounter) Rx(ch int) {
	if ch >= 0 && ch < len(p.rx) {
		p.rx[ch]++
	}
}

// Take returns the slot's pair count and resets the counter.
func (p *PairCounter) Take() int64 {
	var pairs int64
	for c := range p.tx {
		pairs += p.tx[c] * p.rx[c]
		p.tx[c], p.rx[c] = 0, 0
	}
	return pairs
}
