package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
)

// This file stresses the Program coroutine adapter. The CI race leg runs
// it at -cpu 1,2,8 so suspension, resumption (from step workers too, once
// 4096 nodes are awake), early returns, idle re-entry and abort unwinding
// are race-proven at several schedulings.

// stressField spreads n nodes over a 64-column grid at spacing 0.3.
func stressField(n, channels int) *phy.Field {
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i%64) * 0.3, Y: float64(i/64) * 0.3}
	}
	return phy.NewField(model.Default(channels, max(n, 2)), pos)
}

// stressPrograms mixes every primitive a coroutine suspends at: transmits,
// listens, single idles, batched IdleFor (leaves the awake list), and
// early returns (the coroutine finishes mid-run).
func stressPrograms(n, channels, slots int) []Program {
	progs := make([]Program, n)
	for i := range progs {
		progs[i] = func(ctx *Ctx) {
			heard := 0
			for s := 0; s < slots; s++ {
				switch {
				case ctx.Rand.Float64() < 0.05:
					return // early termination mid-run
				case ctx.Rand.Float64() < 0.3:
					ctx.Transmit(ctx.Rand.Intn(channels), ctx.ID()*1000+s)
				case ctx.Rand.Float64() < 0.2:
					ctx.IdleFor(1 + ctx.Rand.Intn(4))
				case ctx.Rand.Float64() < 0.1:
					ctx.Idle()
				default:
					if ctx.Listen(ctx.Rand.Intn(channels)).Decoded {
						heard++
					}
				}
			}
			ctx.Emit("heard", heard)
		}
	}
	return progs
}

// TestCoroutineStress runs the stress mix at several node counts twice each
// and requires bit-identical transcripts and slot counts run over run. Run
// it with -race -cpu 1,2,8 (the CI race leg does) to prove the adapter at
// GOMAXPROCS 1, 2 and 8; n = 4096 resumes coroutines from step workers.
func TestCoroutineStress(t *testing.T) {
	for _, n := range []int{1, 2, 256, 4096} {
		slots := 24
		if n >= 4096 {
			slots = 8 // keep the race-instrumented run affordable
		}
		run := func() (uint64, int) {
			return engineTranscriptHash(t, NewEngine(stressField(n, 3), 7), stressPrograms(n, 3, slots))
		}
		h1, s1 := run()
		if h2, s2 := run(); h2 != h1 || s2 != s1 {
			t.Errorf("n=%d: coroutine runs not deterministic: %x/%d vs %x/%d", n, h2, s2, h1, s1)
		}
	}
}

// TestCoroutineAbortFreesIdlers: a MaxSlots abort unwinds every suspended
// Program — including those asleep mid-IdleFor — running its defers, and
// leaves no coroutine goroutine behind.
func TestCoroutineAbortFreesIdlers(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(stressField(64, 2), 3)
	e.MaxSlots = 12
	var unwound atomic.Int64
	progs := make([]Program, 64)
	for i := range progs {
		switch i % 3 {
		case 0:
			progs[i] = func(ctx *Ctx) {
				defer unwound.Add(1)
				ctx.IdleFor(1 << 20)
			}
		case 1:
			progs[i] = func(ctx *Ctx) {
				defer unwound.Add(1)
				for s := 0; ; s++ {
					ctx.Transmit(0, s)
				}
			}
		default:
			progs[i] = func(ctx *Ctx) {
				defer unwound.Add(1)
				for {
					ctx.Listen(1)
				}
			}
		}
	}
	if _, err := e.Run(progs); err == nil {
		t.Fatal("expected MaxSlots abort")
	}
	if got := unwound.Load(); got != 64 {
		t.Errorf("%d of 64 Programs ran their defers on abort", got)
	}
	checkGoroutines(t, before)
}

// checkGoroutines fails unless the goroutine count falls back to its
// pre-run value: Run unwinds every Program's coroutine before it returns,
// so only exiting step workers may briefly lag behind.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before: coroutines leaked", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
