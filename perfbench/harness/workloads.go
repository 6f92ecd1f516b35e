// Package harness runs the repository benchmark: it generates each
// workload's inputs from a seed, runs operations through the public mcnet
// facade, checks every output, and prints the metrics. It imports no
// internal package, so the end-to-end binary keeps building when internals
// change; the per-layer trace plugs in through the Tracer interface.
package harness

import (
	"context"
	"fmt"
	"runtime"

	"mcnet"
)

// Workload names.
const (
	CrowdFull  = "crowd-full"
	Storm      = "storm"
	FaultSweep = "fault-sweep"
	Color      = "color"
)

// Spec is a workload's fixed shape; the seed supplies everything else.
type Spec struct {
	Name     string
	N        int
	Channels int
	// UniformDegree selects Uniform(UniformDegree) placement; 0 is Crowd.
	UniformDegree float64
	// MaxSlots cuts every run at that many slots (0: run to completion).
	MaxSlots int
	// Backends are the coloring backends one color operation runs in turn.
	Backends []string
	// Loss, Jam and Byz are the fault-sweep grid; SweepSeeds the seeds
	// per grid point (repetition r uses seed + r).
	Loss       []float64
	Jam        []int
	Byz        []float64
	SweepSeeds int
	// Deployments is how many deployments a run builds from its seed. Its
	// operations cycle through them, and op_wall_s is the median over them
	// of each one's fastest operation. The listed workloads have few enough
	// that a run repeats each about three times; crowd-full and storm, whose
	// deployments' costs differ up to tenfold (storm: 0.4–5 s), span many
	// and repeat few.
	Deployments int
	// DefaultSeed is the seed used while a change is written; HeldOutSeed
	// is kept back to confirm a claimed gain on inputs not tuned against.
	DefaultSeed, HeldOutSeed uint64
}

// DeploymentSeeds returns the deployment seeds a run with seed uses:
// seed·D … seed·D + D − 1, so runs with different seeds share none.
func (sp *Spec) DeploymentSeeds(seed uint64) []uint64 {
	seeds := make([]uint64, sp.Deployments)
	for j := range seeds {
		seeds[j] = seed*uint64(sp.Deployments) + uint64(j)
	}
	return seeds
}

// Specs lists the workloads. Why each was chosen, and which layer each is
// meant to move, is documented in perfbench/README.md; crowd-full and storm
// are runnable but not in BENCHMARK.json's list, for the reasons given
// there.
var Specs = []*Spec{
	{
		Name: CrowdFull, N: 512, Channels: 8,
		Deployments: 32, DefaultSeed: 1, HeldOutSeed: 9,
	},
	{
		Name: Storm, N: 16384, Channels: 8, MaxSlots: 256,
		Deployments: 16, DefaultSeed: 1, HeldOutSeed: 9,
	},
	{
		Name: FaultSweep, N: 128, Channels: 4, UniformDegree: 12,
		Loss: []float64{0, 0.1}, Jam: []int{0, 1}, Byz: []float64{0, 0.2}, SweepSeeds: 1,
		Deployments: 4, DefaultSeed: 1, HeldOutSeed: 9,
	},
	{
		Name: Color, N: 256, Channels: 4, UniformDegree: 12,
		Backends:    []string{"sec7", "dplus1", "hsb"},
		Deployments: 16, DefaultSeed: 1, HeldOutSeed: 9,
	},
}

// SpecByName resolves a workload name.
func SpecByName(name string) (*Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, len(Specs))
	for i, s := range Specs {
		names[i] = s.Name
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// Options returns the construction options every deployment of the spec
// shares; the caller adds the seed.
func (sp *Spec) Options() []mcnet.Option {
	opts := []mcnet.Option{mcnet.Channels(sp.Channels)}
	if sp.UniformDegree > 0 {
		opts = append(opts, mcnet.WithTopology(mcnet.Uniform(sp.UniformDegree)))
	}
	if sp.MaxSlots > 0 {
		opts = append(opts, mcnet.MaxSlots(sp.MaxSlots))
	}
	return opts
}

// Setup is one deployment of a workload: the inputs of its operations,
// built before the timed operations.
type Setup struct {
	Spec *Spec
	// Seed is the deployment seed; a fault-sweep deployment's scenario
	// repeats each grid point at seeds Seed·SweepSeeds + 1 onwards.
	Seed    uint64
	Workers int
	// Nets holds the deployment (one per backend on color; none on
	// fault-sweep, whose scenario builds its own).
	Nets   []*mcnet.Network
	Values []int64
	// Scenario and Sweep are the fault-sweep's scenario and its compiled
	// form, whose Specs and Fold the traced rebuild reuses.
	Scenario mcnet.Scenario
	Sweep    *mcnet.Sweep
}

// NewSetup builds the deployment of spec with the given deployment seed.
// The fault-sweep pool has one worker per processor the process may use
// (one: see Run).
func NewSetup(sp *Spec, seed uint64) (*Setup, error) {
	s := &Setup{Spec: sp, Seed: seed, Workers: runtime.GOMAXPROCS(0)}
	switch sp.Name {
	case FaultSweep:
		s.Scenario = mcnet.Scenario{
			Name:     sp.Name,
			N:        sp.N,
			Options:  sp.Options(),
			Loss:     sp.Loss,
			Jam:      sp.Jam,
			Byz:      sp.Byz,
			Seeds:    sp.SweepSeeds,
			BaseSeed: seed*uint64(sp.SweepSeeds) + 1,
			Workers:  s.Workers,
		}
		sw, err := s.Scenario.Compile()
		if err != nil {
			return nil, err
		}
		s.Sweep = sw
		return s, nil
	case Color:
		for _, b := range sp.Backends {
			nw, err := mcnet.New(sp.N, append(sp.Options(), mcnet.Seed(seed), mcnet.Colorer(b))...)
			if err != nil {
				return nil, err
			}
			s.Nets = append(s.Nets, nw)
		}
		return s, nil
	}
	nw, err := mcnet.New(sp.N, append(sp.Options(), mcnet.Seed(seed))...)
	if err != nil {
		return nil, err
	}
	s.Nets = []*mcnet.Network{nw}
	s.Values = make([]int64, nw.N())
	for i := range s.Values {
		s.Values[i] = int64(i + 1)
	}
	return s, nil
}

// Runs is the number of simulation runs one operation performs.
func (s *Setup) Runs() int {
	switch s.Spec.Name {
	case FaultSweep:
		return s.Sweep.Len()
	case Color:
		return len(s.Spec.Backends)
	}
	return 1
}

// Op runs one untraced operation through the facade and returns the digest
// of its outcome. An error means the operation failed: the facade returned
// an unexpected error or the outcome broke a workload invariant.
func (s *Setup) Op(ctx context.Context) (string, error) {
	switch s.Spec.Name {
	case CrowdFull:
		res, err := s.Nets[0].Aggregate(ctx, s.Values, mcnet.Sum)
		if err != nil {
			return "", err
		}
		out := AggOutcomeOf(res)
		if err := out.CheckAllExact(res.Value); err != nil {
			return "", err
		}
		return out.Digest(), nil
	case Storm:
		_, err := s.Nets[0].Aggregate(ctx, s.Values, mcnet.Sum)
		if !IsBudgetError(err, s.Spec.MaxSlots) {
			return "", fmt.Errorf("want the %d-slot budget error, got %v", s.Spec.MaxSlots, err)
		}
		return TextDigest(err.Error()), nil
	case FaultSweep:
		tab, err := mcnet.RunScenario(ctx, s.Scenario)
		if err != nil {
			return "", err
		}
		return TextDigest(tab.Render()), nil
	case Color:
		outs := make([]ColorOutcome, len(s.Nets))
		for i, nw := range s.Nets {
			cr, err := nw.Color(ctx)
			if err != nil {
				return "", err
			}
			colors := cr.Colors()
			rep, err := nw.VerifyTDMA(colors)
			if err != nil {
				return "", err
			}
			outs[i] = ColorOutcome{Backend: cr.Backend, Colors: colors, Cycle: cr.Cycle, Conflicts: cr.Conflicts, TDMA: rep}
			if err := outs[i].Check(); err != nil {
				return "", err
			}
		}
		return ColorDigest(outs), nil
	}
	return "", fmt.Errorf("workload %q has no operation", s.Spec.Name)
}
