package sim

import (
	"testing"

	"mcnet/internal/geo"
	"mcnet/internal/model"
	"mcnet/internal/phy"
)

// benchEngine measures raw engine overhead: n Program nodes
// transmitting/listening through slots.
func benchEngine(b *testing.B, n int) {
	b.Helper()
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i%32) * 0.2, Y: float64(i/32) * 0.2}
	}
	f := phy.NewField(model.Default(4, n), pos)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(f, uint64(i))
		progs := make([]Program, n)
		for j := range progs {
			progs[j] = func(ctx *Ctx) {
				for s := 0; s < 100; s++ {
					if ctx.Rand.Float64() < 0.1 {
						ctx.Transmit(ctx.Rand.Intn(4), s)
					} else {
						ctx.Listen(ctx.Rand.Intn(4))
					}
				}
			}
		}
		if _, err := e.Run(progs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(100*n*b.N)/b.Elapsed().Seconds(), "node-slots/s")
}

func BenchmarkEngine64Nodes100Slots(b *testing.B)  { benchEngine(b, 64) }
func BenchmarkEngine256Nodes100Slots(b *testing.B) { benchEngine(b, 256) }

// BenchmarkEngineStep isolates the per-step cost of the two node forms: the
// same chatter workload as Programs, each resumed as a coroutine once per
// slot, and as Steppers called inline.
func benchEngineCoroutine(b *testing.B, n int) {
	b.Helper()
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i%64) * 0.2, Y: float64(i/64) * 0.2}
	}
	f := phy.NewField(model.Default(4, n), pos)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(f, uint64(i))
		progs := make([]Program, n)
		for j := range progs {
			progs[j] = func(ctx *Ctx) {
				for s := 0; s < 50; s++ {
					if ctx.Rand.Float64() < 0.1 {
						ctx.Transmit(ctx.Rand.Intn(4), s)
					} else {
						ctx.Listen(ctx.Rand.Intn(4))
					}
				}
			}
		}
		if _, err := e.Run(progs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(50*n*b.N)/b.Elapsed().Seconds(), "node-slots/s")
}

// benchChatter is the Stepper form of the step bench workload: the same
// draws, no coroutine involved.
type benchChatter struct {
	rounds, s int
}

func (c *benchChatter) Step(sc *StepCtx) {
	if c.s >= c.rounds {
		sc.Done()
		return
	}
	s := c.s
	c.s++
	if sc.Rand.Float64() < 0.1 {
		sc.Transmit(sc.Rand.Intn(4), s)
	} else {
		sc.Listen(sc.Rand.Intn(4))
	}
}

// benchEngineStepped drives the step bench workload as Steppers, so the gap
// against the coroutine sub-bench is the coroutine switch per node-step.
func benchEngineStepped(b *testing.B, n int) {
	b.Helper()
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i%64) * 0.2, Y: float64(i/64) * 0.2}
	}
	f := phy.NewField(model.Default(4, n), pos)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(f, uint64(i))
		steppers := make([]Stepper, n)
		arena := make([]benchChatter, n)
		for j := range steppers {
			arena[j] = benchChatter{rounds: 50}
			steppers[j] = &arena[j]
		}
		if _, err := e.RunSteppers(steppers); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(50*n*b.N)/b.Elapsed().Seconds(), "node-slots/s")
}

func BenchmarkEngineStep(b *testing.B) {
	b.Run("coroutine/n=4k", func(b *testing.B) { benchEngineCoroutine(b, 4096) })
	b.Run("stepped/n=4k", func(b *testing.B) { benchEngineStepped(b, 4096) })
	b.Run("stepped/n=65k", func(b *testing.B) { benchEngineStepped(b, 65536) })
}
