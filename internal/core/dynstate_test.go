package core_test

import (
	"testing"

	"seqfm/internal/core"
	"seqfm/internal/feature"
	"seqfm/internal/plan"
)

// These tests pin the cached-serving contract of core.DynState: a state
// filled by plan.Exec.PrecomputeDynamic and read by plan.Exec.ScoreFast
// reproduces core.Model.Score, the parity oracle, bit for bit.

func execFor(t *testing.T, m *core.Model) *plan.Exec {
	t.Helper()
	p, err := plan.For(m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p.NewExec()
}

func TestScoreFastMatchesScoreBitForBit(t *testing.T) {
	insts := []feature.Instance{
		core.FixtureInstance(),
		{User: 0, Target: 0, Hist: nil, UserAttr: feature.Pad, TargetAttr: feature.Pad},                        // empty history
		{User: 5, Target: 8, Hist: []int{0, 1, 2, 3, 4, 5, 6}, UserAttr: feature.Pad, TargetAttr: feature.Pad}, // truncated
		{User: 3, Target: 2, Hist: []int{8}, UserAttr: feature.Pad, TargetAttr: feature.Pad},                   // padded
	}
	for name, cfg := range core.ParityConfigs() {
		m, err := core.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e := execFor(t, m)
		for _, inst := range insts {
			want := core.ScoreRef(m, inst)
			dyn := e.PrecomputeDynamic(inst.Hist)

			// Cold static view.
			got, hS := e.ScoreFast(dyn, inst, nil)
			if got != want {
				t.Errorf("%s: cold ScoreFast=%v, Score=%v (not bit-identical)", name, got, want)
			}

			// Warm static view: feed the returned vector back in.
			warm, _ := e.ScoreFast(dyn, inst, hS)
			if warm != want {
				t.Errorf("%s: warm ScoreFast=%v, Score=%v", name, warm, want)
			}
		}
	}
}

func TestScoreFastSharedDynAcrossCandidates(t *testing.T) {
	// One history, many candidates — the top-K serving pattern. The dynamic
	// state is computed once and must reproduce Score for every candidate.
	m, err := core.New(core.FixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := core.FixtureInstance()
	e := execFor(t, m)
	dyn := e.PrecomputeDynamic(base.Hist)
	for target := 0; target < core.FixtureSpace().NumObjects; target++ {
		inst := base
		inst.Target = target
		want := core.ScoreRef(m, inst)
		got, _ := e.ScoreFast(dyn, inst, nil)
		if got != want {
			t.Fatalf("candidate %d: ScoreFast=%v, Score=%v", target, got, want)
		}
	}
}

func TestScoreFastWithAttributes(t *testing.T) {
	cfg := core.FixtureConfig()
	cfg.Space.NumUserAttrs = 3
	cfg.Space.NumItemAttrs = 4
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst := feature.Instance{User: 1, Target: 4, Hist: []int{2, 6}, UserAttr: 2, TargetAttr: 1}
	want := core.ScoreRef(m, inst)
	e := execFor(t, m)
	dyn := e.PrecomputeDynamic(inst.Hist)
	got, _ := e.ScoreFast(dyn, inst, nil)
	if got != want {
		t.Fatalf("ScoreFast=%v, Score=%v", got, want)
	}
}
