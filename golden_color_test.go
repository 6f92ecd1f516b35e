package mcnet

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"mcnet/internal/coloring"
	"mcnet/internal/golden"
	"mcnet/internal/phy"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the coloring golden file from current output")

// goldenColorRun freezes everything observable about one default-backend
// Color run: the full per-node result vector plus the validation summary and
// slot accounting. The sec7 backend must keep reproducing these bytes
// exactly — the refactor behind the Colorer interface is required to leave
// the default path bit-identical.
type goldenColorRun struct {
	Name       string      `json:"name"`
	Nodes      []NodeColor `json:"nodes"`
	Palette    int         `json:"palette"`
	Conflicts  int         `json:"conflicts"`
	Uncolored  int         `json:"uncolored"`
	Slots      int         `json:"slots"`
	ColorSlots int         `json:"color_slots"`
}

// goldenColorCases spans the topology suite at mixed channel counts and
// seeds, so the frozen transcript covers every structure-construction shape.
func goldenColorCases(t *testing.T) []struct {
	name string
	n    int
	opts []Option
} {
	t.Helper()
	return []struct {
		name string
		n    int
		opts []Option
	}{
		{"crowd_n40_f4_s11", 40, []Option{Seed(11), Channels(4)}},
		{"uniform_n64_f4_s3", 64, []Option{Seed(3), Channels(4), WithTopology(Uniform(12))}},
		{"grid_n49_f2_s5", 49, []Option{Seed(5), Channels(2), WithTopology(Grid)}},
		{"line_n32_f4_s7", 32, []Option{Seed(7), Channels(4), WithTopology(Line(0.7))}},
		{"ring_n32_f2_s9", 32, []Option{Seed(9), Channels(2), WithTopology(Ring(0.7))}},
	}
}

// TestColorGoldenSec7 runs the default coloring backend over the golden
// cases and compares every per-node color, index, cluster color and role —
// plus palette/conflict/slot accounting — against the committed pre-refactor
// output. Regenerate with -update-golden (only when an intentional behavior
// change to the default path is being made).
func TestColorGoldenSec7(t *testing.T) {
	path := filepath.Join("testdata", "golden_color_sec7.json")
	var runs []goldenColorRun
	for _, tc := range goldenColorCases(t) {
		nw, err := New(tc.n, tc.opts...)
		if err != nil {
			t.Fatalf("%s: New: %v", tc.name, err)
		}
		res, err := nw.Color(context.Background())
		if err != nil {
			t.Fatalf("%s: Color: %v", tc.name, err)
		}
		runs = append(runs, goldenColorRun{
			Name:       tc.name,
			Nodes:      res.Nodes,
			Palette:    res.Palette,
			Conflicts:  res.Conflicts,
			Uncolored:  res.Uncolored,
			Slots:      res.Slots,
			ColorSlots: res.ColorSlots,
		})
	}

	if *updateGolden {
		data, err := json.MarshalIndent(runs, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d runs)", path, len(runs))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	var want []goldenColorRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decoding golden file: %v", err)
	}
	if len(want) != len(runs) {
		t.Fatalf("golden file has %d runs, current suite has %d", len(want), len(runs))
	}
	for i, w := range want {
		g := runs[i]
		if g.Name != w.Name {
			t.Errorf("run %d: name %q, golden %q", i, g.Name, w.Name)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			if !reflect.DeepEqual(g.Nodes, w.Nodes) {
				for j := range w.Nodes {
					if j < len(g.Nodes) && g.Nodes[j] != w.Nodes[j] {
						t.Errorf("%s: node %d = %+v, golden %+v", w.Name, j, g.Nodes[j], w.Nodes[j])
						break
					}
				}
			}
			t.Errorf("%s: summary {palette %d conflicts %d uncolored %d slots %d colorSlots %d}, golden {%d %d %d %d %d}",
				w.Name, g.Palette, g.Conflicts, g.Uncolored, g.Slots, g.ColorSlots,
				w.Palette, w.Conflicts, w.Uncolored, w.Slots, w.ColorSlots)
		}
	}
}

// TestColorGoldenBackends pins the dplus1 and hsb backends over the golden
// cases: the SHA-256 of each run's JSON-encoded ColorResult must match the
// digest recorded in testdata/golden_color.json.
func TestColorGoldenBackends(t *testing.T) {
	path := filepath.Join("testdata", "golden_color.json")
	for _, backend := range []string{"dplus1", "hsb"} {
		for _, tc := range goldenColorCases(t) {
			t.Run(backend+"/"+tc.name, func(t *testing.T) {
				nw, err := New(tc.n, append(tc.opts, Colorer(backend))...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := nw.Color(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				if err := json.NewEncoder(h).Encode(res); err != nil {
					t.Fatal(err)
				}
				golden.Check(t, path, "color/"+backend+"/"+tc.name, h, *updateGolden)
			})
		}
	}
}

// TestColorGoldenSec7Trace pins the sec7 backend's slot-level behaviour over
// the golden cases, which golden_color_sec7.json (colors and summaries only)
// does not: the SHA-256 of every resolved slot's transmissions (with each
// message's dynamic type), listens and decode outcomes, followed by the
// per-node results and the sorted event log, must match the digest recorded
// in testdata/golden_color.json.
func TestColorGoldenSec7Trace(t *testing.T) {
	path := filepath.Join("testdata", "golden_color.json")
	for _, tc := range goldenColorCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			nw, err := New(tc.n, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			e, _ := nw.newEngine()
			e.Trace = func(slot int, txs []phy.Tx, rxs []phy.Rx, recs []phy.Reception) {
				fmt.Fprintf(h, "slot %d\n", slot)
				for _, tx := range txs {
					fmt.Fprintf(h, "tx %d %d %T%+v\n", tx.Node, tx.Channel, tx.Msg, tx.Msg)
				}
				for k, rx := range rxs {
					fmt.Fprintf(h, "rx %d %d %v %d\n", rx.Node, rx.Channel, recs[k].Decoded, recs[k].From)
				}
			}
			res, _, err := coloring.Sec7{}.Color(context.Background(), e, nw.plan)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range res {
				fmt.Fprintf(h, "res %d %+v\n", i, r)
			}
			evs := e.Events()
			sort.Slice(evs, func(a, b int) bool {
				if evs[a].Slot != evs[b].Slot {
					return evs[a].Slot < evs[b].Slot
				}
				if evs[a].Node != evs[b].Node {
					return evs[a].Node < evs[b].Node
				}
				if evs[a].Name != evs[b].Name {
					return evs[a].Name < evs[b].Name
				}
				return evs[a].Value < evs[b].Value
			})
			for _, ev := range evs {
				fmt.Fprintf(h, "ev %+v\n", ev)
			}
			golden.Check(t, path, "sec7-trace/"+tc.name, h, *updateGolden)
		})
	}
}
