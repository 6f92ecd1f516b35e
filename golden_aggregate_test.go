package mcnet

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"mcnet/internal/golden"
)

// goldenAggregatePath holds the recorded transcript digests of the
// aggregation pipeline, shared with internal/core's pipeline-level cases.
var goldenAggregatePath = filepath.Join("testdata", "golden_aggregate.json")

// runExecIdentity runs Aggregate on one network and checks the result and
// the sorted event stream against the digest recorded from the retired
// goroutine-per-node engine. Everything a caller can observe — per-node
// results, stage reports, channel utilization, fault reports, milestone
// events — must stay byte-identical to it.
func runExecIdentity(t *testing.T, name string, n int, opts ...Option) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		nw, err := New(n, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var (
			mu     sync.Mutex
			events []Event
		)
		nw.Events(func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		})
		values := make([]int64, nw.N())
		for i := range values {
			values[i] = int64(2*i + 1)
		}
		res, err := nw.Aggregate(context.Background(), values, Sum)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(events, func(a, b int) bool {
			if events[a].Slot != events[b].Slot {
				return events[a].Slot < events[b].Slot
			}
			if events[a].Node != events[b].Node {
				return events[a].Node < events[b].Node
			}
			if events[a].Name != events[b].Name {
				return events[a].Name < events[b].Name
			}
			return events[a].Value < events[b].Value
		})
		// The digest covers the canonical JSON encoding of both.
		h := sha256.New()
		if err := json.NewEncoder(h).Encode(struct {
			Result *AggregateResult
			Events []Event
		}{res, events}); err != nil {
			t.Fatal(err)
		}
		key := "aggregate/" + t.Name()[strings.IndexByte(t.Name(), '/')+1:]
		golden.Check(t, goldenAggregatePath, key, h, *updateGolden)
	})
}

// TestAggregateExecIdentity is the facade-level golden of the stepped
// engine: AggregateResults and event streams across topologies, seeds and
// fault layers match the transcripts recorded from the goroutine engine it
// replaced. Run under -cpu 1,2,8 in CI so worker-count schedulings are
// covered too.
func TestAggregateExecIdentity(t *testing.T) {
	for _, seed := range []uint64{3, 8} {
		runExecIdentity(t, "crowd", 48, Seed(seed), Channels(4))
	}
	runExecIdentity(t, "uniform", 72, Seed(5), Channels(8), WithTopology(Uniform(12)))
	runExecIdentity(t, "faults", 56, Seed(9), Channels(4),
		Loss(0.02),
		Jamming(1, JamOblivious),
		Churn(ChurnSpec{CrashAt: map[int]int{7: 40}, Rate: 0.05, From: 100}))
	runExecIdentity(t, "byzantine", 56, Seed(13), Channels(4),
		Byzantine(0.2, ByzEquivocate),
		Jamming(1, JamReactive))
	// Crash one of the Byzantine nodes mid-run (slot 40 falls inside the
	// build phase, where nodes spend most slots asleep in IdleFor): the
	// crash hook, the corruption hook and the adaptive jammer must compose
	// exactly as they did in the goroutine engine. The membership is
	// discovered from a scout run so the test stays honest if the seeded
	// selection changes.
	scout, err := New(56, Seed(13), Channels(4), Byzantine(0.2, ByzCorrupt))
	if err != nil {
		t.Fatal(err)
	}
	res, err := scout.Aggregate(context.Background(), seqValues(56), Sum)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == nil || len(res.Faults.ByzantineNodes) == 0 {
		t.Fatal("scout run reported no Byzantine nodes")
	}
	byzNode := res.Faults.ByzantineNodes[0]
	runExecIdentity(t, "byzantine-crash", 56, Seed(13), Channels(4),
		Byzantine(0.2, ByzCorrupt),
		Jamming(1, JamAdaptive),
		Churn(ChurnSpec{CrashAt: map[int]int{byzNode: 40}}))
	if !testing.Short() {
		runExecIdentity(t, "grid", 100, Seed(11), Channels(8), WithTopology(Grid))
	}
}
