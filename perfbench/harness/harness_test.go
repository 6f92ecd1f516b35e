package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"testing"

	"mcnet"
)

func TestStageOfClampsToFinalStage(t *testing.T) {
	stages := []mcnet.StageReport{{Name: "a", Start: 0, End: 10}, {Name: "b", Start: 10, End: 20}, {Name: "c", Start: 20, End: 30}}
	for _, tc := range []struct{ slot, want int }{
		{-1, -1}, {0, 0}, {9, 0}, {10, 1}, {19, 1}, {20, 2}, {29, 2}, {30, 2}, {1000, 2},
	} {
		if got := StageOf(stages, tc.slot); got != tc.want {
			t.Errorf("StageOf(slot %d) = %d, want %d", tc.slot, got, tc.want)
		}
	}
	if got := StageOf(nil, 5); got != -1 {
		t.Errorf("StageOf with no stages = %d, want -1", got)
	}
}

func TestPairCounterCountsPerChannel(t *testing.T) {
	p := NewPairCounter(3)
	for _, ch := range []int{0, 0, 1, -1, 3} {
		p.Tx(ch)
	}
	for _, ch := range []int{0, 0, 0, 2, 2, 7} {
		p.Rx(ch)
	}
	// Channel 0: 2 transmitters × 3 listeners; channel 1 has no listener,
	// channel 2 no transmitter; -1, 3 and 7 are out of range.
	if got := p.Take(); got != 6 {
		t.Fatalf("pairs = %d, want 6", got)
	}
	if got := p.Take(); got != 0 {
		t.Fatalf("pairs after Take = %d, want 0", got)
	}
}

func TestMedianReportsSampleCount(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{5}, 5}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := slices.Clone(tc.xs)
		got, n := Median(tc.xs)
		if got != tc.want || n != len(tc.xs) {
			t.Errorf("Median(%v) = %v over %d, want %v over %d", in, got, n, tc.want, len(tc.xs))
		}
		if !slices.Equal(in, tc.xs) {
			t.Errorf("Median reordered its input: %v", tc.xs)
		}
	}
}

func TestFastestSkipsUnrunDeployments(t *testing.T) {
	got := Fastest([][]float64{{3, 1.5, 2}, nil, {4}, {}})
	if !slices.Equal(got, []float64{1.5, 4}) {
		t.Errorf("Fastest = %v, want [1.5 4]", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
}

func TestIsBudgetErrorAcceptsOnlyTheSlotBudgetCut(t *testing.T) {
	budget := errors.New("sim: exceeded MaxSlots = 256 with 16384 nodes still live")
	if !IsBudgetError(budget, 256) {
		t.Errorf("rejected the 256-slot budget error")
	}
	for _, err := range []error{
		nil,
		errors.New("sim: exceeded MaxSlots = 255 with 16384 nodes still live"),
		errors.New("mcnet: sim: exceeded MaxSlots = 256 with 16384 nodes still live"),
		errors.New("sim: exceeded MaxSlots = 256 with 16384 nodes still live; and more"),
		errors.New("context deadline exceeded"),
		fmt.Errorf("wrapped: %w", budget),
	} {
		if IsBudgetError(err, 256) {
			t.Errorf("accepted %v", err)
		}
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := ParseSeeds("0-3,9")
	if err != nil || !slices.Equal(got, []uint64{0, 1, 2, 3, 9}) {
		t.Fatalf("ParseSeeds = %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "3-1", "1-", "0-99999999"} {
		if _, err := ParseSeeds(bad); err == nil {
			t.Errorf("ParseSeeds(%q) accepted", bad)
		}
	}
}

func TestDigestsSeeEveryCoveredField(t *testing.T) {
	base := AggOutcome{Slots: 10, StageEvents: []int{1, 2}, Nodes: []NodeOutcome{{Value: 3, Informed: true, Dominator: 0, Channel: 1, SizeEstimate: 2}}}
	mutations := []func(o *AggOutcome){
		func(o *AggOutcome) { o.Slots++ },
		func(o *AggOutcome) { o.StageEvents[1]++ },
		func(o *AggOutcome) { o.Nodes[0].Value++ },
		func(o *AggOutcome) { o.Nodes[0].Informed = false },
		func(o *AggOutcome) { o.Nodes[0].Dominator++ },
		func(o *AggOutcome) { o.Nodes[0].Channel++ },
		func(o *AggOutcome) { o.Nodes[0].SizeEstimate++ },
	}
	for i, mutate := range mutations {
		o := AggOutcome{Slots: base.Slots, StageEvents: slices.Clone(base.StageEvents), Nodes: slices.Clone(base.Nodes)}
		mutate(&o)
		if o.Digest() == base.Digest() {
			t.Errorf("mutation %d left the aggregate digest unchanged", i)
		}
	}
	if err := base.CheckAllExact(3); err != nil {
		t.Errorf("CheckAllExact: %v", err)
	}
	if err := base.CheckAllExact(4); err == nil {
		t.Errorf("CheckAllExact accepted a wrong value")
	}

	col := ColorOutcome{Backend: "dplus1", Colors: []int{0, 1}, Cycle: 2, TDMA: mcnet.TDMAReport{Cycle: 2, Delivered: 2, Links: 2}}
	moved := col
	moved.TDMA.Delivered = 1
	if ColorDigest([]ColorOutcome{col}) == ColorDigest([]ColorOutcome{moved}) {
		t.Errorf("color digest ignores the TDMA report")
	}
	col.Conflicts = 1
	if col.Check() == nil {
		t.Errorf("a dplus1 conflict passed the check")
	}
	col.Backend = "sec7"
	if col.Check() != nil {
		t.Errorf("sec7's pinned conflicts failed the check")
	}
}

// TestBenchmarkJSONDeclaresTheMetrics keeps BENCHMARK.json and the metric
// lists the harness prints in step.
func TestBenchmarkJSONDeclaresTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if _, err := SpecByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []MetricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, harness %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, EndToEnd())
	check("per_layer", bench.PerLayer, PerLayer())
}

func TestRunRejectsBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", Storm, "-seconds", "0"},
		{"-workload", Storm, "-trace", "2"},
		{"-workload", Storm, "-trace", "1"}, // no tracer in this binary
		{"record", "-workload", Storm, "-seeds", "1"},
	} {
		if code := Run(context.Background(), args, io.Discard, io.Discard, nil); code == 0 {
			t.Errorf("Run(%v) exited 0", args)
		}
	}
}
