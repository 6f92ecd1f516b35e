// Package layers is the benchmark's per-layer trace. It rebuilds each
// workload's operation from the internal packages' exported functions —
// the same field, plan, engine, colorer and fault injector the facade
// builds — and times the hook boundaries the engine already crosses every
// slot. No program code is instrumented; the harness rejects a traced
// operation whose outcome digest differs from the facade's.
package layers

import (
	"context"
	"fmt"
	"time"

	"mcnet"
	"mcnet/internal/agg"
	"mcnet/internal/batch"
	"mcnet/internal/coloring"
	"mcnet/internal/core"
	"mcnet/internal/fault"
	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
	"mcnet/internal/sim"
	"mcnet/perfbench/harness"
)

// Tracer implements harness.Tracer.
type Tracer struct{}

// Op runs one traced operation of the setup's workload.
func (Tracer) Op(ctx context.Context, s *harness.Setup) (*harness.Traced, error) {
	switch s.Spec.Name {
	case harness.CrowdFull, harness.Storm:
		return aggregateOp(ctx, s)
	case harness.FaultSweep:
		return sweepOp(ctx, s)
	case harness.Color:
		return colorOp(ctx, s)
	}
	return nil, fmt.Errorf("workload %q has no traced operation", s.Spec.Name)
}

// deployment is what the facade derives from a Network for one run.
type deployment struct {
	params   model.Params
	plan     *core.Plan
	pos      []geo.Point
	stages   []mcnet.StageReport
	seed     uint64
	maxSlots int
}

// deploymentOf rebuilds nw's parameters and plan from its public sizing
// (default SINR parameters, ExecAuto) and checks that the rebuilt schedule
// matches the facade's stage windows slot for slot.
func deploymentOf(nw *mcnet.Network, maxSlots int) (*deployment, error) {
	n := nw.N()
	p := model.Default(nw.Channels(), n)
	info := nw.Plan()
	cfg := core.DefaultConfig(p)
	cfg.DeltaHat, cfg.PhiMax, cfg.HopBound = info.DeltaHat, info.PhiMax, info.HopBound
	pl := core.NewPlan(p, cfg)
	o := pl.Offsets
	starts := []int{o.Dominate, o.Color, o.Announce, o.CSA, o.Elect, o.Followers, o.Tree, o.Backbone, o.Inform, o.End}
	if len(info.Stages) != len(starts)-1 {
		return nil, fmt.Errorf("rebuilt plan has %d stages, facade %d", len(starts)-1, len(info.Stages))
	}
	for i, st := range info.Stages {
		if st.Start != starts[i] || st.End != starts[i+1] {
			return nil, fmt.Errorf("rebuilt plan's stage %s is [%d, %d), facade's [%d, %d)", st.Name, starts[i], starts[i+1], st.Start, st.End)
		}
	}
	if p.REps() != nw.Geometry().CommRadius {
		return nil, fmt.Errorf("rebuilt SINR parameters give R_eps %v, facade %v", p.REps(), nw.Geometry().CommRadius)
	}
	pts := nw.Positions()
	pos := make([]geo.Point, len(pts))
	for i, pt := range pts {
		pos[i] = geo.Point{X: pt.X, Y: pt.Y}
	}
	return &deployment{params: p, plan: pl, pos: pos, stages: info.Stages, seed: nw.Seed(), maxSlots: maxSlots}, nil
}

// engine builds the run's engine as the facade does (default resolver,
// parallelism from GOMAXPROCS) with rec attached.
func (d *deployment) engine(rec *recorder) *sim.Engine {
	f := phy.NewField(d.params, d.pos)
	f.SetParallelism(0)
	e := sim.NewEngine(f, d.seed)
	if d.maxSlots > 0 {
		e.MaxSlots = d.maxSlots
	}
	rec.attach(e)
	return e
}

// aggregate runs the pipeline under rec and returns the per-node results
// with the milestone events the facade reports from.
func (d *deployment) aggregate(ctx context.Context, values []int64, rec *recorder) ([]core.Result, []sim.Event, error) {
	e := d.engine(rec)
	var res []core.Result
	err := rec.run(func() error {
		var err error
		res, err = core.RunContext(ctx, e, d.plan, values, agg.Sum, d.seed)
		return err
	})
	return res, e.Events(), err
}

// outcome converts a run into the digested form of the facade's result.
func (d *deployment) outcome(res []core.Result, events []sim.Event, slots int64) harness.AggOutcome {
	out := harness.AggOutcome{Slots: int(slots), StageEvents: make([]int, len(d.stages)), Nodes: make([]harness.NodeOutcome, len(res))}
	for _, ev := range events {
		if i := harness.StageOf(d.stages, ev.Slot); i >= 0 {
			out.StageEvents[i]++
		}
	}
	for i, r := range res {
		out.Nodes[i] = harness.NodeOutcome{Value: r.Value, Informed: r.Ok, Dominator: r.Dominator, Channel: r.Channel, SizeEstimate: r.SizeEst}
	}
	return out
}

// aggregateOp is one crowd-full or storm operation.
func aggregateOp(ctx context.Context, s *harness.Setup) (*harness.Traced, error) {
	start := time.Now()
	d, err := deploymentOf(s.Nets[0], s.Spec.MaxSlots)
	if err != nil {
		return nil, err
	}
	storm := s.Spec.Name == harness.Storm
	rec := newRecorder(nil, d.stages, d.params.Channels, storm)
	res, events, err := d.aggregate(ctx, s.Values, rec)
	var digest string
	switch {
	case storm:
		if !harness.IsBudgetError(err, s.Spec.MaxSlots) {
			return nil, fmt.Errorf("want the %d-slot budget error, got %v", s.Spec.MaxSlots, err)
		}
		digest = harness.TextDigest(err.Error())
	case err != nil:
		return nil, err
	default:
		_, _, slots, _ := rec.totals()
		out := d.outcome(res, events, slots)
		if err := out.CheckAllExact(agg.Sum.Fold(s.Values)); err != nil {
			return nil, err
		}
		digest = out.Digest()
	}
	wall := time.Since(start)
	t := &harness.Traced{Digest: digest, Wall: wall, Covered: wall, Spans: rec.spans(), Hook: rec.hook, Layers: rec.layerMetrics()}
	if storm {
		t.Decode = fmt.Sprintf("%016x", rec.decodeState)
	}
	return t, nil
}

// faultSpec is the internal fault spec of a sweep item, built as the
// facade's RunSpec conversion builds it.
func faultSpec(rs mcnet.RunSpec) fault.Spec {
	var fs fault.Spec
	fs.LossProb = rs.Loss
	fs.JamChannels = rs.Jam
	fs.JamModel = fault.JamModel(rs.JamModel)
	if len(rs.Churn.CrashAt) > 0 {
		fs.CrashAt = make(map[int]int, len(rs.Churn.CrashAt))
		for id, slot := range rs.Churn.CrashAt {
			fs.CrashAt[id] = slot
		}
	}
	fs.CrashRate = rs.Churn.Rate
	fs.CrashFrom, fs.CrashUntil = rs.Churn.From, rs.Churn.Until
	fs.Byz.Fraction = rs.Byz
	fs.Byz.Strategy = fault.ByzStrategy(rs.ByzStrategy)
	return fs
}

// sweepItem is one traced sweep run.
type sweepItem struct {
	rec    *recorder
	report fault.Report
	wall   time.Duration
}

// sweepOp is one fault-sweep operation: every item rebuilt and traced on
// the batch pool the facade's sweep uses, then folded into the table.
func sweepOp(ctx context.Context, s *harness.Setup) (*harness.Traced, error) {
	start := time.Now()
	specs := s.Sweep.Specs()
	deps := map[uint64]*deployment{}
	for _, rs := range specs {
		if deps[rs.Seed] != nil {
			continue
		}
		nw, err := mcnet.New(s.Spec.N, append(s.Spec.Options(), mcnet.Seed(rs.Seed))...)
		if err != nil {
			return nil, err
		}
		if deps[rs.Seed], err = deploymentOf(nw, 0); err != nil {
			return nil, err
		}
	}
	items := make([]sweepItem, len(specs))
	results, err := batch.Map(ctx, batch.Pool{Workers: s.Workers}, len(specs), func(ctx context.Context, i int) (mcnet.RunResult, error) {
		t := time.Now()
		rr, err := sweepRun(ctx, deps[specs[i].Seed], specs[i], &items[i])
		items[i].wall = time.Since(t)
		return rr, err
	})
	if err != nil {
		return nil, err
	}
	tab, err := s.Sweep.Fold(results)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)

	total := newRecorder(nil, items[0].rec.stages, 0, false)
	itemWalls := make([]float64, len(items))
	var busy time.Duration
	var lost, corrupted, dropped int
	for i, it := range items {
		total.merge(it.rec)
		itemWalls[i] = it.wall.Seconds()
		busy += it.wall
		lost += it.report.Lost
		corrupted += it.report.Corrupted
		dropped += it.report.Dropped
	}
	m := total.layerMetrics()
	m["fault.lost"] = float64(lost)
	m["fault.corrupted"] = float64(corrupted)
	m["fault.dropped"] = float64(dropped)
	m["batch.item_s"], _ = harness.Median(itemWalls)
	m["batch.busy_frac"] = ratio(busy.Seconds(), float64(s.Workers)*wall.Seconds())
	return &harness.Traced{Digest: harness.TextDigest(tab.Render()), Wall: wall, Covered: busy, Spans: total.spans(), Hook: total.hook, Layers: m}, nil
}

// sweepRun is one sweep item: the facade's Aggregate with the item's fault
// layer, summarized as the sweep's fold consumes it.
func sweepRun(ctx context.Context, d *deployment, rs mcnet.RunSpec, it *sweepItem) (mcnet.RunResult, error) {
	n := len(d.pos)
	spec := faultSpec(rs)
	if err := spec.Validate(n, d.params.Channels); err != nil {
		return mcnet.RunResult{}, err
	}
	inj := fault.NewInjector(spec, d.seed, n, d.params.Channels, d.plan.Offsets.End)
	it.rec = newRecorder(inj, d.stages, d.params.Channels, false)
	values := make([]int64, n)
	for j := range values {
		values[j] = int64(j + 1)
	}
	res, events, err := d.aggregate(ctx, values, it.rec)
	if err != nil {
		return mcnet.RunResult{}, err
	}
	want := agg.Sum.Fold(values)
	rr := mcnet.RunResult{Nodes: n, Faulted: true}
	for _, r := range res {
		if r.Ok {
			rr.Informed++
			if r.Value == want {
				rr.Exact++
			}
		}
	}
	aggStart := d.plan.Offsets.Followers
	lastAck, lastDone := 0, 0
	for _, ev := range events {
		switch ev.Name {
		case mcnet.EventAcked:
			lastAck = max(lastAck, ev.Slot)
		case mcnet.EventBackboneAgg, mcnet.EventBackboneResult:
			lastDone = max(lastDone, ev.Slot)
		}
	}
	if lastAck > 0 {
		rr.AckSlots = lastAck - aggStart
	}
	if lastDone > 0 {
		rr.AggSlots = lastDone - aggStart
	}
	it.report = inj.Report()
	tally := it.report.TallySurvivors(n, func(i int) (bool, int64) { return res[i].Ok, res[i].Value }, want)
	rr.Lost = it.report.Lost
	rr.Crashed = len(it.report.CrashedNodes)
	rr.Survivors = tally.Survivors
	rr.SurvivorsAgreeing = tally.Agreeing
	rr.SurvivorsExact = tally.Exact
	rr.Byzantine = len(it.report.ByzantineNodes)
	rr.Corrupted = it.report.Corrupted
	rr.Dropped = it.report.Dropped
	return rr, nil
}

// colorOp is one color operation: each backend's Color and VerifyTDMA.
func colorOp(ctx context.Context, s *harness.Setup) (*harness.Traced, error) {
	start := time.Now()
	total := newRecorder(nil, nil, 0, false)
	m := map[string]float64{}
	outs := make([]harness.ColorOutcome, len(s.Nets))
	var verify time.Duration
	for i, nw := range s.Nets {
		name := s.Spec.Backends[i]
		backend, err := coloring.ByName(name)
		if err != nil {
			return nil, err
		}
		d, err := deploymentOf(nw, 0)
		if err != nil {
			return nil, err
		}
		rec := newRecorder(nil, nil, d.params.Channels, false)
		e := d.engine(rec)
		var res []coloring.Result
		var st coloring.Stats
		t := time.Now()
		err = rec.run(func() error {
			var err error
			res, st, err = backend.Color(ctx, e, d.plan)
			return err
		})
		wall := time.Since(t)
		if err != nil {
			return nil, err
		}
		conflicts, _, _ := coloring.Validate(d.pos, d.params.REps(), res)
		colors := make([]int, len(res))
		for j, r := range res {
			colors[j] = r.Color
		}
		t = time.Now()
		rep, err := nw.VerifyTDMA(colors)
		if err != nil {
			return nil, err
		}
		verify += time.Since(t)
		outs[i] = harness.ColorOutcome{Backend: backend.Name(), Colors: colors, Cycle: st.Cycle, Conflicts: conflicts, TDMA: rep}
		if err := outs[i].Check(); err != nil {
			return nil, err
		}
		step, _, _, _ := rec.totals()
		m["coloring."+name+".wall_s"] = wall.Seconds()
		m["coloring."+name+".step_s"] = step.Seconds()
		m["coloring."+name+".color_slots"] = float64(st.ColorSlots)
		total.merge(rec)
	}
	for k, v := range total.layerMetrics() {
		m[k] = v
	}
	m["tdma.verify_s"] = verify.Seconds()
	wall := time.Since(start)
	return &harness.Traced{Digest: harness.ColorDigest(outs), Wall: wall, Covered: wall - verify, Spans: total.spans(), Hook: total.hook, Layers: m}, nil
}
