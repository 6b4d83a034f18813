package plan_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"seqfm/internal/ag"
	"seqfm/internal/core"
	"seqfm/internal/feature"
	"seqfm/internal/plan"
	"seqfm/internal/tensor"
)

func testSpace() feature.Space {
	return feature.Space{NumUsers: 6, NumObjects: 9}
}

func testConfig() core.Config {
	return core.Config{
		Space:     testSpace(),
		Dim:       6,
		Layers:    2,
		MaxSeqLen: 4,
		KeepProb:  1,
		Seed:      3,
	}
}

func testInstance() feature.Instance {
	return feature.Instance{
		User: 2, Target: 5, Hist: []int{1, 7, 3},
		UserAttr: feature.Pad, TargetAttr: feature.Pad, Label: 1,
	}
}

// parityConfigs mirrors core's: the full model, every single-component
// ablation, and the padding-mask extension.
func parityConfigs() map[string]core.Config {
	cfgs := map[string]core.Config{"default": testConfig()}
	for name, ab := range map[string]core.Ablation{
		"noStatic":   {NoStaticView: true},
		"noDynamic":  {NoDynamicView: true},
		"noCross":    {NoCrossView: true},
		"noResidual": {NoResidual: true},
		"noLN":       {NoLayerNorm: true},
	} {
		c := testConfig()
		c.Ablation = ab
		cfgs[name] = c
	}
	mp := testConfig()
	mp.MaskPadding = true
	cfgs["maskPadding"] = mp
	return cfgs
}

// scoreRef is the tape oracle: one fresh inference tape per call.
func scoreRef(m *core.Model, inst feature.Instance) float64 {
	t := ag.NewTape()
	return m.Score(t, inst).Value.ScalarValue()
}

func compileFor(t *testing.T, m *core.Model) *plan.Plan {
	t.Helper()
	p, err := plan.For(m)
	if err != nil {
		t.Fatalf("plan.For: %v", err)
	}
	return p
}

// histVariants spans the padding regimes: empty (all pads), single element,
// partial, exact and overlong (truncated) histories.
func histVariants() [][]int {
	return [][]int{
		nil,
		{8},
		{1, 7, 3},
		{1, 2, 3, 4},
		{0, 1, 2, 3, 4, 5, 6},
	}
}

func candidateSet(n int) []feature.Instance {
	base := testInstance()
	insts := []feature.Instance{base}
	for k := 0; k < n; k++ {
		neg := base
		neg.Target = (base.Target + 1 + k) % testSpace().NumObjects
		insts = append(insts, neg)
	}
	return insts
}

// TestCompiledScoreMatchesTapeBitForBit pins the tentpole's forward contract:
// the compiled one-off Score equals the tape Score bit for bit, for every
// ablation and every history length including cold (all-pad) histories.
func TestCompiledScoreMatchesTapeBitForBit(t *testing.T) {
	for name, cfg := range parityConfigs() {
		m, err := core.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e := compileFor(t, m).NewExec()
		for _, hist := range histVariants() {
			inst := testInstance()
			inst.Hist = hist
			want := scoreRef(m, inst)
			if got := e.Score(inst); got != want {
				t.Errorf("%s hist %v: compiled=%v, tape=%v (not bit-identical)", name, hist, got, want)
			}
		}
	}
}

func TestCompiledScoreWithAttributes(t *testing.T) {
	cfg := testConfig()
	cfg.Space.NumUserAttrs = 3
	cfg.Space.NumItemAttrs = 4
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := compileFor(t, m).NewExec()
	inst := feature.Instance{User: 1, Target: 4, Hist: []int{2, 6}, UserAttr: 2, TargetAttr: 1}
	want := scoreRef(m, inst)
	if got := e.Score(inst); got != want {
		t.Fatalf("compiled=%v, tape=%v", got, want)
	}
}

// TestCompiledForwardSharedCandidates pins the candidate-sharing forward: all
// candidates scored against one compiled dynamic phase equal the independent
// tape scores exactly, on one reused Exec.
func TestCompiledForwardSharedCandidates(t *testing.T) {
	for name, cfg := range parityConfigs() {
		m, err := core.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e := compileFor(t, m).NewExec()
		insts := candidateSet(4)
		for pass := 0; pass < 2; pass++ { // reuse the Exec across calls
			scores := e.Forward(insts, false)
			for i, inst := range insts {
				if want := scoreRef(m, inst); scores[i] != want {
					t.Errorf("%s pass %d cand %d: compiled=%v, tape=%v", name, pass, i, scores[i], want)
				}
			}
		}
	}
}

// TestCompiledDynStateInterop pins snapshot compatibility in both directions:
// a compiled-built DynState served by the tape path, a tape-built DynState
// served by the compiled path, and cached static-view vectors crossing the
// engine boundary — all bit-identical to the monolithic score.
func TestCompiledDynStateInterop(t *testing.T) {
	for name, cfg := range parityConfigs() {
		m, err := core.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e := compileFor(t, m).NewExec()
		for _, hist := range histVariants() {
			inst := testInstance()
			inst.Hist = hist
			want := scoreRef(m, inst)

			// Compiled snapshot → tape scorer.
			cdyn := e.PrecomputeDynamic(hist)
			tape := ag.NewTape()
			got, hS := m.ScoreFast(tape, cdyn, inst, nil)
			if got != want {
				t.Errorf("%s hist %v: tape-over-compiled-dyn=%v, want %v", name, hist, got, want)
			}

			// Tape snapshot → compiled scorer, warm-started with the tape's hS.
			tape.Reset()
			tdyn := m.PrecomputeDynamic(tape, hist)
			if got, _ := e.ScoreFast(tdyn, inst, nil); got != want {
				t.Errorf("%s hist %v: compiled-over-tape-dyn=%v, want %v", name, hist, got, want)
			}
			if got, _ := e.ScoreFast(tdyn, inst, hS); got != want {
				t.Errorf("%s hist %v: compiled warm hS=%v, want %v", name, hist, got, want)
			}

			// Compiled hS consumed by the tape scorer.
			_, chS := e.ScoreFast(cdyn, inst, nil)
			tape.Reset()
			if got, _ := m.ScoreFast(tape, cdyn, inst, chS); got != want {
				t.Errorf("%s hist %v: tape warm compiled-hS=%v, want %v", name, hist, got, want)
			}
		}
	}
}

// tapeLoss builds the task's per-instance loss over tape-scored candidates,
// mirroring train's loss builders.
func tapeLoss(task string, tp *ag.Tape, scores []*ag.Node, label float64) *ag.Node {
	switch task {
	case "ranking":
		terms := make([]*ag.Node, 0, len(scores)-1)
		for _, neg := range scores[1:] {
			terms = append(terms, tp.Softplus(tp.Sub(neg, scores[0])))
		}
		return tp.MeanScalars(terms)
	case "classification":
		terms := []*ag.Node{tp.Softplus(tp.Neg(scores[0]))}
		for _, neg := range scores[1:] {
			terms = append(terms, tp.Softplus(neg))
		}
		return tp.MeanScalars(terms)
	default: // regression
		return tp.Square(tp.AddConst(scores[0], -label))
	}
}

// compiledSeeds returns (loss value, per-score gradients) for the same losses,
// computed directly — the arithmetic train's compiled steps use.
func compiledSeeds(task string, scores []float64, label float64) (float64, []float64) {
	ds := make([]float64, len(scores))
	switch task {
	case "ranking":
		n := len(scores) - 1
		invN := 1.0 / float64(n)
		sum := 0.0
		for _, neg := range scores[1:] {
			sum += plan.Softplus(neg - scores[0])
		}
		for i, neg := range scores[1:] {
			g := invN * plan.Sigmoid(neg-scores[0])
			ds[1+i] = g
			ds[0] -= g
		}
		return invN * sum, ds
	case "classification":
		invN := 1.0 / float64(len(scores))
		sum := plan.Softplus(-scores[0])
		for _, neg := range scores[1:] {
			sum += plan.Softplus(neg)
		}
		ds[0] = -invN * plan.Sigmoid(-scores[0])
		for i, neg := range scores[1:] {
			ds[1+i] = invN * plan.Sigmoid(neg)
		}
		return invN * sum, ds
	default:
		diff := scores[0] - label
		ds[0] = 2 * diff
		return diff * diff, ds
	}
}

// TestCompiledBackwardMatchesTape pins the hand-derived backward against the
// tape's reverse pass on all three tasks and every ablation: the loss is
// bit-identical, and every parameter gradient agrees to within reassociation
// of IEEE addition (the two engines sum the shared-subgraph contributions in
// different orders; the float terms are the same).
func TestCompiledBackwardMatchesTape(t *testing.T) {
	const tol = 1e-12
	for name, cfg := range parityConfigs() {
		for _, task := range []string{"ranking", "classification", "regression"} {
			m, err := core.New(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			params := m.Params()
			insts := candidateSet(3)
			if task == "regression" {
				insts = insts[:1]
			}
			label := 3.5

			// Tape reference.
			ag.ZeroGrads(params)
			tp := ag.NewTape()
			dyn := m.ForwardDynamic(tp, insts[0].Hist)
			nodes := make([]*ag.Node, len(insts))
			for i, inst := range insts {
				nodes[i] = m.ForwardCandidate(tp, dyn, inst)
			}
			lossNode := tapeLoss(task, tp, nodes, label)
			tp.Backward(lossNode)
			tp.FlushGrads(nil)
			wantLoss := lossNode.Value.ScalarValue()
			wantGrads := make([]*tensor.Matrix, len(params))
			for i, p := range params {
				wantGrads[i] = p.Grad.Clone()
			}

			// Compiled pass into a fresh shard.
			e := compileFor(t, m).NewExec()
			shard := ag.NewGradShard(params)
			scores := e.Forward(insts, true)
			gotLoss, dscores := compiledSeeds(task, scores, label)
			e.Backward(dscores, shard)

			if gotLoss != wantLoss {
				t.Fatalf("%s/%s: compiled loss %v != tape %v (not bit-identical)", name, task, gotLoss, wantLoss)
			}
			for i, p := range params {
				got := shard.Grad(p)
				for j, g := range got.Data {
					want := wantGrads[i].Data[j]
					diff := math.Abs(g - want)
					scale := math.Max(1, math.Max(math.Abs(g), math.Abs(want)))
					if diff/scale > tol {
						t.Fatalf("%s/%s: %s[%d]: compiled grad %v vs tape %v (rel diff %.3g)",
							name, task, p.Name, j, g, want, diff/scale)
					}
				}
			}
		}
	}
}

// TestCompiledBackwardColdHistory exercises the all-pad backward path (zero
// dynamic rows contribute; no embD/wDynamic gradient may be written).
func TestCompiledBackwardColdHistory(t *testing.T) {
	cfg := testConfig()
	cfg.MaskPadding = true
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := m.Params()
	insts := candidateSet(2)
	for i := range insts {
		insts[i].Hist = nil
	}

	ag.ZeroGrads(params)
	tp := ag.NewTape()
	dyn := m.ForwardDynamic(tp, nil)
	nodes := make([]*ag.Node, len(insts))
	for i, inst := range insts {
		nodes[i] = m.ForwardCandidate(tp, dyn, inst)
	}
	lossNode := tapeLoss("ranking", tp, nodes, 0)
	tp.Backward(lossNode)
	tp.FlushGrads(nil)

	e := compileFor(t, m).NewExec()
	shard := ag.NewGradShard(params)
	scores := e.Forward(insts, true)
	_, dscores := compiledSeeds("ranking", scores, 0)
	e.Backward(dscores, shard)

	const tol = 1e-12
	for _, p := range params {
		got := shard.Grad(p)
		for j, g := range got.Data {
			want := p.Grad.Data[j]
			diff := math.Abs(g - want)
			scale := math.Max(1, math.Max(math.Abs(g), math.Abs(want)))
			if diff/scale > tol {
				t.Fatalf("%s[%d]: compiled %v vs tape %v", p.Name, j, g, want)
			}
		}
	}
}

// TestCompiledGradCheck verifies the hand-derived backward against central
// finite differences of the compiled forward, over every model parameter.
func TestCompiledGradCheck(t *testing.T) {
	const (
		eps = 1e-6
		tol = 1e-4
	)
	cfg := testConfig()
	cfg.Dim = 4
	cfg.Layers = 1
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := m.Params()
	insts := candidateSet(2)
	e := compileFor(t, m).NewExec()

	lossOf := func() float64 {
		scores := e.Forward(insts, false)
		l, _ := compiledSeeds("ranking", scores, 0)
		return l
	}

	shard := ag.NewGradShard(params)
	scores := e.Forward(insts, true)
	_, dscores := compiledSeeds("ranking", scores, 0)
	e.Backward(dscores, shard)

	for _, p := range params {
		grad := shard.Grad(p)
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			up := lossOf()
			p.Value.Data[i] = orig - eps
			down := lossOf()
			p.Value.Data[i] = orig

			numeric := (up - down) / (2 * eps)
			analytic := grad.Data[i]
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > tol {
				t.Errorf("%s[%d]: analytic %.8f vs numeric %.8f", p.Name, i, analytic, numeric)
			}
		}
	}
}

// TestCompiledDropoutParity pins the dropout draw-order contract: a compiled
// training forward seeded like a tape training forward produces bit-identical
// scores (hence a bit-identical loss), and gradients that agree to within
// reassociation.
func TestCompiledDropoutParity(t *testing.T) {
	const seed = 7
	cfg := testConfig()
	cfg.KeepProb = 0.6
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := m.Params()
	insts := candidateSet(3)

	ag.ZeroGrads(params)
	tp := ag.NewTrainingTape(rand.New(rand.NewSource(seed)))
	dyn := m.ForwardDynamic(tp, insts[0].Hist)
	nodes := make([]*ag.Node, len(insts))
	for i, inst := range insts {
		nodes[i] = m.ForwardCandidate(tp, dyn, inst)
	}
	lossNode := tapeLoss("ranking", tp, nodes, 0)
	tp.Backward(lossNode)
	tp.FlushGrads(nil)
	wantLoss := lossNode.Value.ScalarValue()

	e := compileFor(t, m).NewExec()
	e.SetRNG(rand.New(rand.NewSource(seed)))
	shard := ag.NewGradShard(params)
	scores := e.Forward(insts, true)
	for i, n := range nodes {
		if scores[i] != n.Value.ScalarValue() {
			t.Fatalf("cand %d: compiled training score %v != tape %v (dropout draw order diverged)",
				i, scores[i], n.Value.ScalarValue())
		}
	}
	gotLoss, dscores := compiledSeeds("ranking", scores, 0)
	if gotLoss != wantLoss {
		t.Fatalf("compiled loss %v != tape %v", gotLoss, wantLoss)
	}
	e.Backward(dscores, shard)

	const tol = 1e-12
	for _, p := range params {
		got := shard.Grad(p)
		for j, g := range got.Data {
			want := p.Grad.Data[j]
			diff := math.Abs(g - want)
			scale := math.Max(1, math.Max(math.Abs(g), math.Abs(want)))
			if diff/scale > tol {
				t.Fatalf("%s[%d]: compiled %v vs tape %v (rel diff %.3g)", p.Name, j, g, want, diff/scale)
			}
		}
	}
}

// TestCompileRejectsUncompilableModels pins the fallback contract: models
// without a structural spec stay on the tape engine.
func TestCompileRejectsUncompilableModels(t *testing.T) {
	if _, err := plan.For(struct{}{}); err == nil {
		t.Fatal("plan.For accepted a spec-less model")
	}
}

// TestExecPoolRoundTrip exercises Plan.Get/Put reuse.
func TestExecPoolRoundTrip(t *testing.T) {
	m, err := core.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := compileFor(t, m)
	inst := testInstance()
	want := scoreRef(m, inst)
	for i := 0; i < 4; i++ {
		e := p.Get()
		if got := e.Score(inst); got != want {
			t.Fatalf("round %d: pooled exec score %v != %v", i, got, want)
		}
		p.Put(e)
	}
}

// tapeScoreFast is the cached-path oracle: core.Model.ScoreFast over a
// tape-built DynState, each on a fresh tape.
func tapeScoreFast(m *core.Model, inst feature.Instance) float64 {
	dyn := m.PrecomputeDynamic(ag.NewTape(), inst.Hist)
	s, _ := m.ScoreFast(ag.NewTape(), dyn, inst, nil)
	return s
}

// rowMemoInstances spans static rows: every user, targets on both sides of
// the catalog and, when the space has them, every user/target attribute
// value, against a history with exactly pad padded positions.
func rowMemoInstances(sp feature.Space, maxSeqLen, pad int) []feature.Instance {
	hist := make([]int, maxSeqLen-pad)
	for i := range hist {
		hist[i] = (3*i + 1) % sp.NumObjects
	}
	var insts []feature.Instance
	for u := 0; u < sp.NumUsers; u++ {
		inst := feature.Instance{
			User: u, Target: (5 * u) % sp.NumObjects, Hist: hist,
			UserAttr: feature.Pad, TargetAttr: feature.Pad,
		}
		if sp.NumUserAttrs > 0 {
			inst.UserAttr = u % sp.NumUserAttrs
		}
		if sp.NumItemAttrs > 0 {
			inst.TargetAttr = (u + 1) % sp.NumItemAttrs
		}
		insts = append(insts, inst)
	}
	return insts
}

// TestScoreFastRowMemoMatchesTape pins ScoreFast's cross-view row memo: the
// compiled ScoreFast equals the tape's ScoreFast bit for bit on the call that
// fills a row and on the calls that read it back, with and without a cached
// static view, for every ablation (the memo is unused under noCross), with
// attribute rows, and at every pad count 0..n.
func TestScoreFastRowMemoMatchesTape(t *testing.T) {
	for name, base := range parityConfigs() {
		for _, attrs := range []bool{false, true} {
			cfg := base
			if attrs {
				cfg.Space.NumUserAttrs = 3
				cfg.Space.NumItemAttrs = 4
			}
			m, err := core.New(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			e := compileFor(t, m).NewExec()
			for pad := 0; pad <= cfg.MaxSeqLen; pad++ {
				insts := rowMemoInstances(cfg.Space, cfg.MaxSeqLen, pad)
				dyn := e.PrecomputeDynamic(insts[0].Hist)
				for pass := 0; pass < 2; pass++ { // pass 0 fills rows, pass 1 reads them
					for i, inst := range insts {
						want := tapeScoreFast(m, inst)
						got, hS := e.ScoreFast(dyn, inst, nil)
						if got != want {
							t.Errorf("%s attrs=%v pad %d pass %d inst %d: compiled=%v, tape=%v", name, attrs, pad, pass, i, got, want)
						}
						if got, _ := e.ScoreFast(dyn, inst, hS); got != want {
							t.Errorf("%s attrs=%v pad %d pass %d inst %d warm hS: compiled=%v, tape=%v", name, attrs, pad, pass, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestRowMemoConcurrentFill races several Execs of one Plan through the same
// static rows, so concurrent first touches fill each memo slot at once; run
// under -race it checks the fill's publication, and every score must still
// equal the tape's.
func TestRowMemoConcurrentFill(t *testing.T) {
	cfg := testConfig()
	cfg.Space.NumUserAttrs = 3
	cfg.Space.NumItemAttrs = 4
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insts := rowMemoInstances(cfg.Space, cfg.MaxSeqLen, 1)
	want := make([]float64, len(insts))
	for i, inst := range insts {
		want[i] = tapeScoreFast(m, inst)
	}
	const workers = 4
	for round := 0; round < 8; round++ {
		p := compileFor(t, m) // a fresh, empty memo every round
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			e := p.NewExec()
			dyn := e.PrecomputeDynamic(insts[0].Hist)
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i, inst := range insts {
					if got, _ := e.ScoreFast(dyn, inst, nil); got != want[i] {
						t.Errorf("round %d inst %d: compiled=%v, tape=%v", round, i, got, want[i])
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}

// TestScoreIgnoresRowMemo pins the memo's scope: Score and Forward read the
// live weights even after ScoreFast has filled the memo, so an in-place
// update of the cross view's weights and of a static embedding row is seen
// at once.
func TestScoreIgnoresRowMemo(t *testing.T) {
	m, err := core.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := compileFor(t, m).NewExec()
	insts := candidateSet(3)
	dyn := e.PrecomputeDynamic(insts[0].Hist)
	before := make([]float64, len(insts))
	for i, inst := range insts {
		before[i], _ = e.ScoreFast(dyn, inst, nil)
	}

	spec := m.Spec()
	for j := range spec.AttnX.WQ.Value.Data {
		spec.AttnX.WQ.Value.Data[j] += 0.05 * float64(j%7-3)
	}
	row := spec.EmbS.Value.Row(insts[0].User)
	for j := range row {
		row[j] += 0.3
	}

	for i, inst := range insts {
		want := scoreRef(m, inst)
		if want == before[i] {
			t.Fatalf("inst %d: perturbation did not move the tape score", i)
		}
		if got := e.Score(inst); got != want {
			t.Errorf("inst %d: Score=%v, tape=%v on the perturbed weights", i, got, want)
		}
	}
	scores := e.Forward(insts, false)
	for i, inst := range insts {
		if want := scoreRef(m, inst); scores[i] != want {
			t.Errorf("inst %d: Forward=%v, tape=%v on the perturbed weights", i, scores[i], want)
		}
	}
}
