package layers

import (
	"testing"

	"mcnet"
	"mcnet/internal/phy"
)

// TestRecorderAttributesSlotsToStages drives the recorder's hooks the way
// the engine does and checks that every slot, its pairs and its spans land
// in the stage window holding it, with slots past the final window clamped
// into the final stage.
func TestRecorderAttributesSlotsToStages(t *testing.T) {
	stages := []mcnet.StageReport{{Name: "a", Start: 0, End: 2}, {Name: "b", Start: 2, End: 4}}
	rec := newRecorder(nil, stages, 2, true)
	err := rec.run(func() error {
		for slot := 0; slot < 6; slot++ {
			rec.BeginSlot(slot, nil)
			txs := []phy.Tx{{Node: 0, Channel: 0}, {Node: 1, Channel: 1}}
			rxs := []phy.Rx{{Node: 2, Channel: 0}, {Node: 3, Channel: 0}, {Node: 4, Channel: 1}}
			recs := []phy.Reception{{Decoded: true, From: 0}, {From: -1}, {Decoded: true, From: 1}}
			for k := range recs {
				recs[k] = rec.FilterReception(slot, rxs[k].Node, rxs[k].Channel, recs[k])
			}
			rec.trace(slot, txs, rxs, recs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Per slot: channel 0 has 1 × 2 pairs, channel 1 has 1 × 1.
	if a := rec.acc[0]; a.slots != 2 || a.pairs != 6 {
		t.Errorf("stage a: %d slots, %d pairs; want 2, 6", a.slots, a.pairs)
	}
	if b := rec.acc[1]; b.slots != 4 || b.pairs != 12 {
		t.Errorf("stage b: %d slots, %d pairs; want 4 (two clamped), 12", b.slots, b.pairs)
	}
	if rec.decoded != 12 || rec.listeners != 18 || rec.actions != 30 {
		t.Errorf("decoded %d of %d listeners, %d actions; want 12 of 18, 30", rec.decoded, rec.listeners, rec.actions)
	}
	if rec.fault != 0 {
		t.Errorf("pass-through recorder counted %v of fault time", rec.fault)
	}
	m := rec.layerMetrics()
	if m["stage.b.slots"] != 4 || m["phy.pairs"] != 18 || m["sim.slots"] != 6 {
		t.Errorf("metrics: stage.b.slots %v, phy.pairs %v, sim.slots %v", m["stage.b.slots"], m["phy.pairs"], m["sim.slots"])
	}
}
