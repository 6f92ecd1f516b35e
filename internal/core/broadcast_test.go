package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
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

// bcastDeployment is one broadcast scenario: a plan over a field, the
// engine seed, and the source with its payload.
type bcastDeployment struct {
	pl      *Plan
	pos     []geo.Point
	seed    uint64
	source  int
	payload int64
}

func (d bcastDeployment) run(t *testing.T, faults sim.FaultInjector, trace sim.TraceFn) ([]BroadcastResult, *sim.Engine) {
	t.Helper()
	e := sim.NewEngine(phy.NewField(d.pl.Params, d.pos), d.seed)
	e.Faults = faults
	e.Trace = trace
	res, err := Broadcast(e, d.pl, d.source, d.payload, d.seed)
	if err != nil {
		t.Fatal(err)
	}
	return res, e
}

// bcastSingleCluster is a 32-node crowd inside one cluster radius.
func bcastSingleCluster() bcastDeployment {
	const n = 32
	p := model.Default(4, 64)
	rc := p.ClusterRadius()
	rnd := rand.New(rand.NewSource(3))
	pos := make([]geo.Point, n)
	for i := 1; i < n; i++ {
		pos[i] = geo.Point{
			X: (rnd.Float64()*2 - 1) * rc / 2,
			Y: (rnd.Float64()*2 - 1) * rc / 2,
		}
	}
	cfg := DefaultConfig(p)
	cfg.DeltaHat = n
	cfg.PhiMax = 4
	cfg.HopBound = 2
	return bcastDeployment{pl: NewPlan(p, cfg), pos: pos, seed: 5, source: 7, payload: 424242}
}

// bcastMultiHop is a sparse 60-node field spanning several clusters.
func bcastMultiHop() bcastDeployment {
	const n = 60
	p := model.Default(2, 128)
	rnd := rand.New(rand.NewSource(7))
	pos := topology.UniformDegree(rnd, n, p.REps(), 14)
	cfg := DefaultConfig(p)
	cfg.DeltaHat = 24
	cfg.PhiMax = 24
	cfg.HopBound = 12
	return bcastDeployment{pl: NewPlan(p, cfg), pos: pos, seed: 9, source: 0, payload: 99}
}

// bcastSingleton is one node that is its own dominator and the source.
func bcastSingleton() bcastDeployment {
	p := model.Default(2, 64)
	return bcastDeployment{pl: NewPlan(p, DefaultConfig(p)), pos: []geo.Point{{X: 0}}, seed: 1, source: 0, payload: 7}
}

func TestBroadcastSingleCluster(t *testing.T) {
	res, _ := bcastSingleCluster().run(t, nil, nil)
	for i, r := range res {
		if !r.Ok || r.Value != 424242 {
			t.Errorf("node %d: %+v", i, r)
		}
	}
}

func TestBroadcastMultiHop(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hop broadcast integration is slow")
	}
	d := bcastMultiHop()
	res, _ := d.run(t, nil, nil)
	informed := 0
	for _, r := range res {
		if r.Ok {
			informed++
			if r.Value != 99 {
				t.Errorf("wrong payload %d", r.Value)
			}
		}
	}
	if n := len(d.pos); informed < n*9/10 {
		t.Errorf("only %d/%d informed", informed, n)
	}
}

func TestBroadcastFromDominator(t *testing.T) {
	// Source that ends up a dominator: stage B1 degenerates gracefully.
	res, _ := bcastSingleton().run(t, nil, nil)
	if !res[0].Ok || res[0].Value != 7 {
		t.Errorf("singleton broadcast: %+v", res[0])
	}
}

// TestBroadcastGolden pins Broadcast's per-node results, sorted events and
// per-slot transmit/listen/decode transcript for the TestBroadcast*
// deployments, plus the single-cluster deployment with crashes during
// structure construction, at the build/broadcast boundary and inside the
// backbone flood. The crash-boundary case crashes the dominator exactly at
// the end of structure construction and a member exactly at the slot after
// its last primitive: the code a Program runs between its last primitive
// and the crash slot (recording the role, the result and its event) must
// still run there.
func TestBroadcastGolden(t *testing.T) {
	single := bcastSingleCluster()
	off := single.pl.Offsets
	dom := 0
	plain, _ := single.run(t, nil, nil)
	for i, r := range plain {
		if r.IsDominator {
			dom = i
			break
		}
	}
	stride := single.pl.Cfg.PhiMax
	end := off.Followers + single.pl.sourceUpBlocks()*stride + single.pl.floodBlocks()/stride*stride + 2*stride
	cases := []struct {
		name  string
		d     bcastDeployment
		crash map[int]int
	}{
		{"single-cluster", single, nil},
		{"multi-hop", bcastMultiHop(), nil},
		{"singleton", bcastSingleton(), nil},
		{"single-cluster-crash", single, map[int]int{
			2: 40, 9: off.Announce + 3, 14: off.Followers, 21: off.Followers + 17,
		}},
		{"single-cluster-crash-boundary", single, map[int]int{dom: off.Followers, 5: end}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "multi-hop" && testing.Short() {
				t.Skip("multi-hop broadcast integration is slow")
			}
			var faults sim.FaultInjector
			if tc.crash != nil {
				faults = fault.NewInjector(fault.Spec{CrashAt: tc.crash}, 1, len(tc.d.pos), tc.d.pl.Params.Channels, off.End)
			}
			var trace []txRec
			res, e := tc.d.run(t, faults, captureTrace(&trace))
			h := sha256.New()
			for i, r := range res {
				fmt.Fprintf(h, "res %d %+v\n", i, r)
			}
			writeTranscript(h, sortedEvents(e.Events()), trace)
			golden.Check(t, goldenAggregatePath, "broadcast/"+tc.name, h, *updateGolden)
		})
	}
}

// runWithCrashes runs the pipeline with each node in crashAt powering off
// at its slot — a stage's start offset from pl.Offsets, so the node dies
// just before that stage. The run always completes; the caller inspects how
// gracefully the structure degraded.
func runWithCrashes(e *sim.Engine, pl *Plan, values []int64, crashAt map[int]int) ([]Result, error) {
	n := e.Field().N()
	e.Faults = fault.NewInjector(fault.Spec{CrashAt: crashAt}, 1, n, pl.Params.Channels, pl.Offsets.End)
	return Run(e, pl, values, agg.Sum, 1)
}

func TestFailuresBeforeBuild(t *testing.T) {
	// A fifth of the nodes never start; the rest must still build a
	// structure and aggregate their own values without deadlock.
	const n = 30
	p := model.Default(4, 64)
	rc := p.ClusterRadius()
	rnd := rand.New(rand.NewSource(11))
	pos := make([]geo.Point, n)
	for i := 1; i < n; i++ {
		pos[i] = geo.Point{
			X: (rnd.Float64()*2 - 1) * rc / 2,
			Y: (rnd.Float64()*2 - 1) * rc / 2,
		}
	}
	cfg := DefaultConfig(p)
	cfg.DeltaHat = n
	cfg.PhiMax = 4
	cfg.HopBound = 2
	pl := NewPlan(p, cfg)
	values := make([]int64, n)
	var aliveSum int64
	dead := map[int]int{}
	for i := 0; i < n; i++ {
		values[i] = int64(i + 1)
		if i%5 == 0 {
			dead[i] = pl.Offsets.Dominate
		} else {
			aliveSum += values[i]
		}
	}
	e := sim.NewEngine(phy.NewField(p, pos), 13)
	res, err := runWithCrashes(e, pl, values, dead)
	if err != nil {
		t.Fatal(err)
	}
	informed, exact := 0, 0
	for i, r := range res {
		if _, isDead := dead[i]; isDead {
			if r.Ok {
				t.Errorf("dead node %d reported a result", i)
			}
			continue
		}
		if r.Ok {
			informed++
			if r.Value == aliveSum {
				exact++
			}
		}
	}
	alive := n - len(dead)
	if informed < alive*9/10 {
		t.Errorf("informed %d/%d alive nodes", informed, alive)
	}
	if exact < informed {
		t.Errorf("%d/%d informed nodes missed the alive-sum %d", informed-exact, informed, aliveSum)
	}
}

func TestFailuresMidPipeline(t *testing.T) {
	// Followers dying after delivering their value must not corrupt the
	// total; a reporter dying before the tree pass loses only its channel's
	// values (the takeover rules keep the tree connected).
	const n = 24
	p := model.Default(4, 64)
	rc := p.ClusterRadius()
	rnd := rand.New(rand.NewSource(17))
	pos := make([]geo.Point, n)
	for i := 1; i < n; i++ {
		pos[i] = geo.Point{
			X: (rnd.Float64()*2 - 1) * rc / 2,
			Y: (rnd.Float64()*2 - 1) * rc / 2,
		}
	}
	values := make([]int64, n)
	var want int64
	for i := range values {
		values[i] = int64(i + 1)
		want += values[i]
	}
	cfg := DefaultConfig(p)
	cfg.DeltaHat = n
	cfg.PhiMax = 4
	cfg.HopBound = 2
	pl := NewPlan(p, cfg)
	dead := map[int]int{3: pl.Offsets.Tree, 9: pl.Offsets.Backbone}
	e := sim.NewEngine(phy.NewField(p, pos), 19)
	res, err := runWithCrashes(e, pl, values, dead)
	if err != nil {
		t.Fatal(err)
	}
	informed := 0
	for i, r := range res {
		if _, isDead := dead[i]; isDead {
			continue
		}
		if r.Ok {
			informed++
			// The total may be short by the dead nodes' subtree values but
			// never inflated.
			if r.Value > want || r.Value < want-int64(3+1+9+1+n) {
				t.Errorf("node %d value %d implausible (want ≤ %d)", i, r.Value, want)
			}
		}
	}
	if informed < (n-2)*8/10 {
		t.Errorf("informed %d/%d survivors", informed, n-2)
	}
}
