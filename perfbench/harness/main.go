package harness

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Tracer times one operation layer by layer. The traced binary supplies
// one; the end-to-end binary runs without.
type Tracer interface {
	Op(ctx context.Context, s *Setup) (*Traced, error)
}

// Traced is the outcome of one traced operation.
type Traced struct {
	// Digest must equal the untraced operation's digest; Decode is storm's
	// per-slot decode digest (empty elsewhere).
	Digest, Decode string
	// Wall is the whole operation. Spans (step + resolve + fault time) and
	// Hook (the trace's own time inside the engine's hooks) must together
	// cover Covered: the operation's wall time less any part spent outside
	// the simulation, summed over runs where a pool overlaps them.
	Wall, Covered, Spans, Hook time.Duration
	// Layers holds the per-layer metrics the tracer measures.
	Layers map[string]float64
}

// coverageTolerance is the share of a traced operation's wall time, net of
// the trace's own hook time, that the step, resolve and fault spans may
// leave uncovered: building the deployment and engine and reading out the
// results, which run outside the engine.
const coverageTolerance = 0.05

// Coverage is the share of out's wall time, net of the trace's own hook
// time, that its spans cover.
func (out *Traced) Coverage() float64 {
	return ratio(out.Spans.Seconds(), (out.Covered - out.Hook).Seconds())
}

// setupReps is how many times a run builds all its deployments before its
// first operation; it builds them once more before each operation, so that
// setup_s, the median over all of these of the mean time per deployment,
// samples the whole run and not only the moment before it.
const setupReps = 5

// setUp builds the deployments of depSeeds from a collected heap, as each
// operation starts from one (a set-up that a collection fell in took twice
// as long), and returns them with the mean time per deployment.
func setUp(sp *Spec, depSeeds []uint64) ([]*Setup, float64, error) {
	runtime.GC()
	deps := make([]*Setup, len(depSeeds))
	t := time.Now()
	for j, ds := range depSeeds {
		var err error
		if deps[j], err = NewSetup(sp, ds); err != nil {
			return nil, 0, fmt.Errorf("setup of deployment %d: %w", ds, err)
		}
	}
	return deps, time.Since(t).Seconds() / float64(len(depSeeds)), nil
}

// Ref is the recorded outcome of one deployment.
type Ref struct {
	Op     string `json:"op"`
	Decode string `json:"decode,omitempty"`
}

// refsJSON maps workload → deployment seed → recorded outcome. It is
// written only by the record command.
//
//go:embed refs.json
var refsJSON []byte

// RefsPath is where the record command writes, relative to the checkout
// root.
const RefsPath = "perfbench/harness/refs.json"

func loadRefs(data []byte) (map[string]map[string]Ref, error) {
	refs := map[string]map[string]Ref{}
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("parse references: %w", err)
	}
	return refs, nil
}

// Metric is one reported metric.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Main runs the benchmark command line and exits.
func Main(tr Tracer) {
	os.Exit(Run(context.Background(), os.Args[1:], os.Stdout, os.Stderr, tr))
}

// Run executes one command line and returns the exit code: 0 when a result
// line was printed, 1 when the run could not start, 2 on bad usage.
func Run(ctx context.Context, args []string, stdout, stderr io.Writer, tr Tracer) int {
	// One processor: on a small shared machine a run that needs two
	// processors at once is slowed whenever either is taken away, which
	// moved consecutive runs of the same inputs by 10%.
	runtime.GOMAXPROCS(1)
	if len(args) > 0 && args[0] == "record" {
		if tr == nil {
			fmt.Fprintln(stderr, "perfbench: record needs the traced binary")
			return 2
		}
		return record(ctx, args[1:], stdout, stderr, tr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 0, "input seed")
	seconds := fs.Int("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 runs traced operations and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := SpecByName(*workload)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload, -seconds ≥ 1 and -trace 0|1 (%v)\n", err)
		return 2
	}
	if *trace == 1 && tr == nil {
		fmt.Fprintln(stderr, "perfbench: -trace 1 needs the traced binary")
		return 2
	}
	if *trace == 0 {
		tr = nil
	}
	refs, err := loadRefs(refsJSON)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := measure(ctx, sp, *seed, time.Duration(*seconds)*time.Second, tr, refs[sp.Name], stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// checker compares each operation's outcome with its deployment's
// recorded reference or, for a deployment without one, with the first
// outcome the run saw for it.
type checker struct {
	stderr    io.Writer
	attempted int
	failed    int
}

// check counts a failure, and reports false, when err is set or got
// differs from want; an empty want adopts got.
func (c *checker) check(kind, got string, want *string, err error) bool {
	if err == nil && *want == "" {
		*want = got
	}
	if err == nil && got != *want {
		err = fmt.Errorf("digest %s, want %s", got, *want)
	}
	if err != nil {
		c.failed++
		fmt.Fprintf(c.stderr, "perfbench: %s operation %d failed: %v\n", kind, c.attempted, err)
	}
	return err == nil
}

// measure builds the run's deployments, runs operations on them in turn
// until the next one would overrun the measurement time, and computes the
// metrics.
func measure(ctx context.Context, sp *Spec, seed uint64, budget time.Duration, tr Tracer, refs map[string]Ref, stdout, stderr io.Writer) (*Result, error) {
	depSeeds := sp.DeploymentSeeds(seed)
	var deps []*Setup
	var setups []float64
	for range setupReps {
		d, secs, err := setUp(sp, depSeeds)
		if err != nil {
			return nil, err
		}
		deps, setups = d, append(setups, secs)
	}
	want := make([]Ref, len(depSeeds))
	recorded := 0
	for j, ds := range depSeeds {
		var ok bool
		if want[j], ok = refs[strconv.FormatUint(ds, 10)]; ok {
			recorded++
		}
	}

	c := &checker{stderr: stderr}
	var walls, tracedWalls, coverage, hooks, allocs, gcs []float64
	byDep := make([][]float64, len(deps))
	var goroutines int
	layers := map[string][]float64{}
	start := time.Now()
	for k := 0; ; k++ {
		_, secs, err := setUp(sp, depSeeds)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		s, w := deps[k%len(deps)], &want[k%len(deps)]
		untraced := func() {
			runtime.GC()
			a0, g0 := runtimeCounters()
			probe := probeGoroutines()
			t := time.Now()
			d, err := s.Op(ctx)
			wall := time.Since(t)
			goroutines = max(goroutines, probe())
			a1, g1 := runtimeCounters()
			c.attempted++
			c.check("untraced", d, &w.Op, err)
			walls = append(walls, wall.Seconds())
			byDep[k%len(deps)] = append(byDep[k%len(deps)], wall.Seconds())
			allocs = append(allocs, float64(a1-a0))
			gcs = append(gcs, float64(g1-g0))
		}
		traced := func() {
			runtime.GC()
			out, err := tr.Op(ctx, s)
			c.attempted++
			if err == nil {
				if cov := out.Coverage(); cov < 1-coverageTolerance || cov > 1 {
					err = fmt.Errorf("spans cover %.4f of %.3f s, want [%.2f, 1]", cov, (out.Covered - out.Hook).Seconds(), 1-coverageTolerance)
				}
			}
			if err == nil && sp.Name == Storm {
				if w.Decode == "" {
					w.Decode = out.Decode
				} else if out.Decode != w.Decode {
					err = fmt.Errorf("decode digest %s, want %s", out.Decode, w.Decode)
				}
			}
			var got string
			if out != nil {
				got = out.Digest
			}
			if c.check("traced", got, &w.Op, err) {
				tracedWalls = append(tracedWalls, out.Wall.Seconds())
				coverage = append(coverage, out.Coverage())
				hooks = append(hooks, ratio(out.Hook.Seconds(), out.Covered.Seconds()))
				for name, v := range out.Layers {
					layers[name] = append(layers[name], v)
				}
			}
		}
		switch {
		case tr == nil:
			untraced()
		case k%2 == 0:
			untraced()
			traced()
		default:
			// Alternate which of the pair goes first, so that an order
			// effect does not read as trace overhead.
			traced()
			untraced()
		}

		round := Mean(walls)
		if tr != nil {
			round += Mean(tracedWalls)
		}
		if time.Since(start)+time.Duration(round*float64(time.Second)) > budget {
			break
		}
	}

	wallMean, nWalls := Mean(walls), len(walls)
	opWall, nDeps := Median(Fastest(byDep))
	setupMed, _ := Median(setups)
	mode := "stepped"
	if goroutines >= sp.N {
		mode = "goroutines"
	}
	env := map[string]any{
		"workload": sp.Name, "seed": seed, "deployment_seeds": depSeeds, "params": sp, "trace": tr != nil,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
		"sweep_workers": deps[0].Workers, "exec_mode_observed": mode,
		"references": fmt.Sprintf("%d of %d deployments recorded; the others are checked for determinism within the run and for the invariants", recorded, len(deps)),
	}
	envLine, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "env %s\n", envLine)
	fmt.Fprintf(stdout, "op_wall_s %.4f s: median over %d deployments of each one's fastest of %d operations in all (mean %.4f s), %d simulation runs each; setup_s median %.7f s over %d set-ups of all %d deployments\n",
		opWall, nDeps, nWalls, wallMean, deps[0].Runs(), setupMed, len(setups), len(deps))
	fmt.Fprintf(stdout, "op_wall_s samples %.4f\n", walls)
	fmt.Fprintf(stdout, "setup_s samples %.3g\n", setups)

	res := &Result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]Metric{}}
	put := func(defs []MetricDef, name string, v float64) {
		i := slices.IndexFunc(defs, func(d MetricDef) bool { return d.Name == name })
		if i < 0 {
			fmt.Fprintf(stderr, "perfbench: metric %q is not declared\n", name)
			return
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = Metric{Value: v, Unit: defs[i].Unit}
	}
	if tr == nil {
		e2e := EndToEnd()
		put(e2e, "op_wall_s", opWall)
		put(e2e, "setup_s", setupMed)
		return res, nil
	}
	per := PerLayer()
	for _, d := range per {
		res.Metrics[d.Name] = Metric{Value: 0, Unit: d.Unit}
	}
	for name, vs := range layers {
		put(per, name, Mean(vs))
	}
	tracedMean, cov := Mean(tracedWalls), Mean(coverage)
	put(per, "go.allocs_per_op", Mean(allocs))
	put(per, "go.gc_cycles", Mean(gcs))
	put(per, "trace_overhead_frac", ratio(tracedMean, wallMean)-1)
	put(per, "trace_span_coverage", cov)
	fmt.Fprintf(stdout, "traced: mean %.4f s over %d operations against %.4f s untraced; the trace's hooks take %.4f of it, the spans cover %.4f of the rest\n",
		tracedMean, len(tracedWalls), wallMean, Mean(hooks), cov)
	fmt.Fprintf(stdout, "traced samples %.4f\n", tracedWalls)
	return res, nil
}

// record runs one untraced and one traced operation on every deployment of
// the given seeds and stores their digests as references. A deployment
// whose outcome breaks an invariant, or differs between the two, is
// reported and left unrecorded.
func record(ctx context.Context, args []string, stdout, stderr io.Writer, tr Tracer) int {
	fs := flag.NewFlagSet("perfbench record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name")
	seedList := fs.String("seeds", "", "seeds to record: a comma-separated list of values or lo-hi ranges")
	path := fs.String("refs", RefsPath, "reference file to update")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := SpecByName(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	seeds, err := ParseSeeds(*seedList)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	data, err := os.ReadFile(*path)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	refs, err := loadRefs(data)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if refs[sp.Name] == nil {
		refs[sp.Name] = map[string]Ref{}
	}
	code := 0
	for _, seed := range seeds {
		for _, ds := range sp.DeploymentSeeds(seed) {
			ref, err := recordSeed(ctx, sp, ds, tr)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s deployment %d (seed %d) not recorded: %v\n", sp.Name, ds, seed, err)
				code = 1
				continue
			}
			refs[sp.Name][strconv.FormatUint(ds, 10)] = ref
			fmt.Fprintf(stdout, "%s deployment %d (seed %d): op %s decode %q\n", sp.Name, ds, seed, ref.Op, ref.Decode)
		}
	}
	out, err := json.MarshalIndent(refs, "", "  ")
	if err == nil {
		err = os.WriteFile(*path, append(out, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return code
}

// recordSeed records the deployment with deployment seed ds.
func recordSeed(ctx context.Context, sp *Spec, ds uint64, tr Tracer) (Ref, error) {
	s, err := NewSetup(sp, ds)
	if err != nil {
		return Ref{}, err
	}
	op, err := s.Op(ctx)
	if err != nil {
		return Ref{}, err
	}
	out, err := tr.Op(ctx, s)
	if err != nil {
		return Ref{}, fmt.Errorf("traced: %w", err)
	}
	if out.Digest != op {
		return Ref{}, fmt.Errorf("traced digest %s differs from untraced %s", out.Digest, op)
	}
	return Ref{Op: op, Decode: out.Decode}, nil
}

// maxSeedRange bounds one lo-hi range of the record command.
const maxSeedRange = 1 << 16

// ParseSeeds parses a comma-separated list of seeds and lo-hi ranges.
func ParseSeeds(list string) ([]uint64, error) {
	var seeds []uint64
	for _, part := range strings.Split(list, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseUint(lo, 10, 64)
		b := a
		if err == nil && isRange {
			b, err = strconv.ParseUint(hi, 10, 64)
		}
		if err != nil || b < a || b-a > maxSeedRange {
			return nil, errors.New("seeds: want a comma-separated list of seeds or lo-hi ranges, e.g. 0-15,21")
		}
		for v := a; v <= b; v++ {
			seeds = append(seeds, v)
		}
	}
	return seeds, nil
}
