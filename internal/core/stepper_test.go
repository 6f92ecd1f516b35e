package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"mcnet/internal/agg"
	"mcnet/internal/fault"
	"mcnet/internal/geo"
	"mcnet/internal/golden"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
	"mcnet/internal/topology"
)

var updateGolden = flag.Bool("update-golden", false, "record the pipeline transcript digests from current output")

// goldenAggregatePath is the module-root digest file shared with the
// facade's Aggregate cases.
var goldenAggregatePath = filepath.Join("..", "..", "testdata", "golden_aggregate.json")

// txRec is one transcript entry: who transmitted and who decoded what.
type txRec struct {
	Slot    int
	Txs     []phy.Tx
	Listens []int
	Decoded []bool
}

// captureTrace returns a TraceFn that appends deep copies of every resolved
// slot to *dst (Trace slices are engine scratch).
func captureTrace(dst *[]txRec) sim.TraceFn {
	return func(slot int, txs []phy.Tx, rxs []phy.Rx, recs []phy.Reception) {
		r := txRec{Slot: slot, Txs: append([]phy.Tx(nil), txs...)}
		for i, rx := range rxs {
			r.Listens = append(r.Listens, rx.Node)
			r.Decoded = append(r.Decoded, recs[i].Msg != nil)
		}
		*dst = append(*dst, r)
	}
}

func sortedEvents(evs []sim.Event) []sim.Event {
	out := append([]sim.Event(nil), evs...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Slot != out[b].Slot {
			return out[a].Slot < out[b].Slot
		}
		if out[a].Node != out[b].Node {
			return out[a].Node < out[b].Node
		}
		if out[a].Name != out[b].Name {
			return out[a].Name < out[b].Name
		}
		return out[a].Value < out[b].Value
	})
	return out
}

// runIdentityCase runs the pipeline on (topology, seed, faults) and checks
// its per-node results, events and transcript against the digest recorded
// from the retired goroutine-program pipeline.
func runIdentityCase(t *testing.T, name string, pos []geo.Point, p model.Params, cfg Config, values []int64, op agg.Op, seed uint64, spec fault.Spec) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		pl := NewPlan(p, cfg)
		e := sim.NewEngine(phy.NewField(p, pos), seed)
		if !spec.Zero() {
			e.Faults = fault.NewInjector(spec, seed+1, len(pos), p.Channels, pl.Offsets.End)
		}
		var trace []txRec
		e.Trace = captureTrace(&trace)
		res, err := Run(e, pl, values, op, seed)
		if err != nil {
			t.Fatal(err)
		}
		checkPipelineGolden(t, "pipeline/"+name, res, sortedEvents(e.Events()), trace)
	})
}

// checkPipelineGolden digests a canonical text encoding of a pipeline run —
// per-node results, sorted events, and the per-slot transmit/listen/decode
// trace with each message's dynamic type — against the recorded entry.
func checkPipelineGolden(t *testing.T, key string, res []Result, events []sim.Event, trace []txRec) {
	t.Helper()
	h := sha256.New()
	for i, r := range res {
		fmt.Fprintf(h, "res %d %+v\n", i, r)
	}
	writeTranscript(h, events, trace)
	golden.Check(t, goldenAggregatePath, key, h, *updateGolden)
}

// writeTranscript writes the sorted events and the per-slot
// transmit/listen/decode trace, each message with its dynamic type.
func writeTranscript(w io.Writer, events []sim.Event, trace []txRec) {
	for _, ev := range events {
		fmt.Fprintf(w, "ev %+v\n", ev)
	}
	for _, rec := range trace {
		fmt.Fprintf(w, "slot %d\n", rec.Slot)
		for _, tx := range rec.Txs {
			fmt.Fprintf(w, "tx %d %d %T%+v\n", tx.Node, tx.Channel, tx.Msg, tx.Msg)
		}
		fmt.Fprintf(w, "rx %v %v\n", rec.Listens, rec.Decoded)
	}
}

// clusterPositions places n-1 nodes uniformly within a half-r_c box around
// the origin node.
func clusterPositions(n int, p model.Params, src int64) []geo.Point {
	rc := p.ClusterRadius()
	rnd := rand.New(rand.NewSource(src))
	pos := make([]geo.Point, n)
	for i := 1; i < n; i++ {
		pos[i] = geo.Point{
			X: (rnd.Float64()*2 - 1) * rc / 2,
			Y: (rnd.Float64()*2 - 1) * rc / 2,
		}
	}
	return pos
}

// TestRunIdentity pins the pipeline's transcripts at the stage level: every
// stage reproduces the recorded goroutine-pipeline transcript bit for bit —
// across both CSA variants, multi-cluster fields, and fault injection.
func TestRunIdentity(t *testing.T) {
	values := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(3*i + 1)
		}
		return v
	}

	{
		// Small-Δ̂ CSA variant (UseSmall): dense single cluster.
		const n = 40
		p := model.Default(4, 64)
		cfg := DefaultConfig(p)
		cfg.DeltaHat = n
		runIdentityCase(t, "small-csa", clusterPositions(n, p, 1), p, cfg, values(n), agg.Sum, 7, fault.Spec{})
	}
	{
		// Large-Δ̂ CSA variant: Δ̂/F above log²n̂ forces the single-channel
		// estimator.
		const n = 30
		p := model.Default(2, 64)
		cfg := DefaultConfig(p)
		cfg.DeltaHat = 64
		cfg.PhiMax = 4
		cfg.HopBound = 2
		runIdentityCase(t, "large-csa", clusterPositions(n, p, 2), p, cfg, values(n), agg.Max, 11, fault.Spec{})
	}
	{
		// Faults: message loss plus deterministic and seeded crashes, so
		// crash retirement is exercised mid-pipeline.
		const n = 36
		p := model.Default(4, 64)
		cfg := DefaultConfig(p)
		cfg.DeltaHat = n
		spec := fault.Spec{
			LossProb:  0.02,
			CrashAt:   map[int]int{3: 40, 11: 2000, 17: 0},
			CrashRate: 0.05,
			CrashFrom: 100,
		}
		runIdentityCase(t, "faults", clusterPositions(n, p, 3), p, cfg, values(n), agg.Sum, 13, spec)
	}
	if !testing.Short() {
		// Sparse connected field spanning several clusters and backbone hops.
		const n = 80
		p := model.Default(4, 128)
		rnd := rand.New(rand.NewSource(5))
		pos := topology.UniformDegree(rnd, n, p.REps(), 14)
		cfg := DefaultConfig(p)
		cfg.DeltaHat = 32
		cfg.HopBound = 14
		cfg.PhiMax = 24
		runIdentityCase(t, "multi-cluster", pos, p, cfg, values(n), agg.Sum, 17, fault.Spec{})
	}
}

// TestRunSlotCount pins that the pipeline consumes exactly the plan's slot
// budget.
func TestRunSlotCount(t *testing.T) {
	const n = 12
	p := model.Default(2, 64)
	pos := clusterPositions(n, p, 9)
	pl := NewPlan(p, DefaultConfig(p))
	e := sim.NewEngine(phy.NewField(p, pos), 13)
	res := make([]Result, n)
	steppers := make([]sim.Stepper, n)
	for i := 0; i < n; i++ {
		steppers[i] = &pipelineStepper{pl: pl, value: 0, op: agg.Sum, res: res}
	}
	slots, err := e.RunSteppers(steppers)
	if err != nil {
		t.Fatal(err)
	}
	if slots != pl.Offsets.End {
		t.Errorf("pipeline consumed %d slots, plan says %d", slots, pl.Offsets.End)
	}
}
