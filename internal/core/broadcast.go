package core

import (
	"math"

	"mcnet/internal/phy"
	"mcnet/internal/sim"
)

// BcastUp carries the broadcast payload from the source to its dominator.
type BcastUp struct {
	Dom   int
	Value int64
}

// PayloadValue exposes the broadcast payload to the fault layer's Byzantine
// corruption hook (fault.Payload).
func (m BcastUp) PayloadValue() int64 { return m.Value }

// WithPayloadValue returns the message with its value replaced.
func (m BcastUp) WithPayloadValue(v int64) any { m.Value = v; return m }

// BcastFlood carries the payload across the dominator backbone.
type BcastFlood struct {
	Value int64
	From  int
}

// EventBroadcast fires when a node learns the broadcast payload.
const EventBroadcast = "bcast-informed"

// BroadcastResult is the per-node outcome of a broadcast run.
type BroadcastResult struct {
	// Value is the payload the node learned; Ok reports whether it did.
	Value int64
	Ok    bool
	// IsDominator describes the node's structure role.
	IsDominator bool
}

// Broadcast demonstrates the structure's versatility beyond aggregation
// (Sec. 3 calls it a "multi-purpose dissemination structure"): a single
// source's payload is carried to its dominator, flooded across the
// backbone under the cluster-color TDMA, and announced within every
// cluster — O(D + log n) beyond structure construction.
//
// The run executes structure construction first; pass the same plan used
// for aggregation experiments to compare like for like.
func Broadcast(e *sim.Engine, pl *Plan, source int, payload int64, seed uint64) ([]BroadcastResult, error) {
	n := e.Field().N()
	res := make([]BroadcastResult, n)
	progs := make([]sim.Program, n)
	for i := 0; i < n; i++ {
		progs[i] = pl.broadcastProgram(i, i == source, payload, res)
	}
	_ = seed
	if _, err := e.Run(progs); err != nil {
		return nil, err
	}
	return res, nil
}

// sourceUpBlocks is the stage length for source → dominator delivery.
func (pl *Plan) sourceUpBlocks() int {
	return int(math.Ceil(4 * pl.Params.LogN()))
}

// floodBlocks is the backbone flood stage length.
func (pl *Plan) floodBlocks() int {
	return pl.Cfg.PhiMax * (6*pl.Cfg.HopBound + 10*(int(pl.Params.LogN())+1))
}

func (pl *Plan) broadcastProgram(i int, isSource bool, payload int64, res []BroadcastResult) sim.Program {
	return func(ctx *sim.Ctx) {
		r := &res[i]
		p := pl.Params
		build := BuildFrag{Plan: pl}
		ctx.Run(&build)
		st := build.St
		r.IsDominator = st.IsDominator()

		var (
			value    int64
			informed = false
			stride   = pl.Cfg.PhiMax
		)
		if isSource {
			value, informed = payload, true
		}

		// Stage B1: the source hands the payload to its dominator. The
		// source transmits in its cluster's TDMA sub-slot (it is the only
		// transmitter in the cluster, so Lemma 9 applies); dominators
		// listen in every sub-slot.
		for b := 0; b < pl.sourceUpBlocks(); b++ {
			for sub := 0; sub < stride; sub++ {
				switch {
				case isSource && !st.IsDominator() && sub == st.Off:
					ctx.Transmit(0, BcastUp{Dom: st.Dom.Dominator, Value: payload})
				case st.IsDominator() && !informed:
					rec := ctx.Listen(0)
					if m, ok := rec.Msg.(BcastUp); ok && m.Dom == ctx.ID() &&
						phy.SenderWithin(rec, p, p.ClusterRadius()) {
						value, informed = m.Value, true
					}
				default:
					ctx.Idle()
				}
			}
		}

		// Stage B2: backbone flood under the color TDMA (dominators only).
		if st.IsDominator() {
			for b := 0; b < pl.floodBlocks()/stride; b++ {
				for sub := 0; sub < stride; sub++ {
					if sub == st.Off && informed && ctx.Rand.Float64() < 0.4 {
						ctx.Transmit(0, BcastFlood{Value: value, From: ctx.ID()})
						continue
					}
					rec := ctx.Listen(0)
					if m, ok := rec.Msg.(BcastFlood); ok && !informed &&
						phy.SenderWithin(rec, p, p.REpsHalf()) {
						value, informed = m.Value, true
					}
				}
			}
		} else {
			ctx.IdleFor(pl.floodBlocks() / stride * stride)
		}

		// Stage B3: dominators announce within clusters (two TDMA blocks
		// for margin).
		for pass := 0; pass < 2; pass++ {
			inf := informFrag{pl: pl, st: st, Value: value, Have: informed}
			ctx.Run(&inf)
			value, informed = inf.Value, inf.Have
		}
		if informed {
			r.Value, r.Ok = value, true
			ctx.Emit(EventBroadcast, 0)
		}
	}
}
