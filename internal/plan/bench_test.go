package plan_test

import (
	"math/rand"
	"testing"

	"seqfm/internal/ag"
	"seqfm/internal/core"
	"seqfm/internal/feature"
	"seqfm/internal/plan"
	"seqfm/internal/tensor"
)

// benchModel is the paper's default configuration {d=64, l=1, n.=20} on the
// serving-benchmark space — the workload whose per-instance cost the compiled
// engine exists to cut.
func benchModel(b testing.TB) (*core.Model, feature.Instance) {
	b.Helper()
	cfg := core.DefaultConfig(feature.Space{NumUsers: 1000, NumObjects: 2000})
	m, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	hist := make([]int, 20)
	for i := range hist {
		hist[i] = (i * 37) % 2000
	}
	return m, feature.Instance{User: 7, Target: 42, Hist: hist, UserAttr: feature.Pad, TargetAttr: feature.Pad, Label: 1}
}

func benchCandidates(inst feature.Instance, n int) []feature.Instance {
	insts := []feature.Instance{inst}
	for k := 0; k < n; k++ {
		neg := inst
		neg.Target = (inst.Target + 1 + k) % 2000
		insts = append(insts, neg)
	}
	return insts
}

// BenchmarkExecScore is one compiled inference forward — compare against
// bench_test.go's BenchmarkSeqFMForward (the tape path).
func BenchmarkExecScore(b *testing.B) {
	m, inst := benchModel(b)
	pl, err := plan.For(m)
	if err != nil {
		b.Fatal(err)
	}
	e := pl.NewExec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Score(inst)
	}
}

// warmScoreFast readies the serving hot path on the bench model: a compiled
// dynamic state for the instance's history, its static-view vector, and the
// cross view's row memo filled for the instance's static rows.
func warmScoreFast(tb testing.TB) (*plan.Exec, *core.DynState, feature.Instance, *tensor.Matrix) {
	m, inst := benchModel(tb)
	pl, err := plan.For(m)
	if err != nil {
		tb.Fatal(err)
	}
	e := pl.NewExec()
	dyn := e.PrecomputeDynamic(inst.Hist)
	_, hS := e.ScoreFast(dyn, inst, nil)
	return e, dyn, inst, hS
}

// BenchmarkExecScoreFast is one warm top-K candidate, the serving engine's
// hot path: dynamic state and static view cached, row memo filled, so only
// the cross view's attention and FFN and the projection run.
func BenchmarkExecScoreFast(b *testing.B) {
	e, dyn, inst, hS := warmScoreFast(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = e.ScoreFast(dyn, inst, hS)
	}
}

// TestWarmScoringAllocatesNothing pins the 0 allocs/op of both inference
// paths once warm: ScoreFast after its row memo is filled, and Score, which
// never reads the memo.
func TestWarmScoringAllocatesNothing(t *testing.T) {
	e, dyn, inst, hS := warmScoreFast(t)
	if a := testing.AllocsPerRun(100, func() { e.ScoreFast(dyn, inst, hS) }); a != 0 {
		t.Errorf("warm ScoreFast: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { e.Score(inst) }); a != 0 {
		t.Errorf("Score: %v allocs/op, want 0", a)
	}
}

// BenchmarkExecForwardBackward is one compiled training step's compute at
// Negatives=5: shared-candidate forward, loss seeds, hand-derived backward
// into a gradient shard.
func BenchmarkExecForwardBackward(b *testing.B) {
	m, inst := benchModel(b)
	pl, err := plan.For(m)
	if err != nil {
		b.Fatal(err)
	}
	e := pl.NewExec()
	e.SetRNG(rand.New(rand.NewSource(1)))
	insts := benchCandidates(inst, 5)
	shard := ag.NewGradShard(m.Params())
	ds := make([]float64, len(insts))
	for i := range ds {
		ds[i] = 0.1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Forward(insts, true)
		e.Backward(ds, shard)
	}
}
