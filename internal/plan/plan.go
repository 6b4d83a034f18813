// Package plan compiles a SeqFM model into a preallocated execution plan,
// replacing runtime autodiff-tape interpretation on the score and train hot
// paths.
//
// The model's graph topology is fixed per (core.Config, ablation): every
// forward pass for a given config runs exactly the same operations on exactly
// the same shapes. A Plan exploits that by lowering the two-phase forward
// (core.ForwardDynamic / ForwardCandidate) once, at compile time, into a
// sequence of kernel calls over flat float64 buffers sized from the config —
// no tape nodes, no backward closures, no per-pass allocation. An Exec is one
// reusable instantiation of those buffers (one per goroutine); the Plan keeps
// a pool of them for the serving engine.
//
// Contracts, pinned by internal/plan's parity tests:
//
//   - Forward values are bit-identical to the tape path. The compiled forward
//     calls the same tensor kernels (or loop-order-exact replicas) in the
//     same order with the same association, so Score, Forward and the
//     PrecomputeDynamic/ScoreFast serving pair agree with core.Model.Score on
//     a tape bit for bit. Deliberately NOT done: multi-accumulator
//     dot/matmul unrolling, which would reassociate IEEE sums and break this
//     contract. The win is eliminated dispatch, closures and allocation, not
//     kernel reassociation.
//   - The hand-derived backward computes the same mathematical gradients as
//     the tape's reverse pass, exact up to IEEE reassociation (the shared
//     dynamic subgraph accumulates upstream gradients in candidate order
//     where the tape accumulates in reverse-record order). For a fixed
//     dropout RNG the compiled training step is bit-for-bit deterministic,
//     which preserves train.Config's {Seed, Workers} ⇒ bit-identical History
//     contract within the compiled engine.
//   - Dropout masks are drawn from the Exec's RNG in exactly the tape's draw
//     order (dynamic-view FFN first, then per candidate the static-view FFN
//     and the cross-view FFN, layer by layer, element by element), so a
//     compiled run seeded like a tape run sees identical masks and therefore
//     identical forward values even in training mode.
//   - Score, Forward and Backward read the model's live parameter matrices
//     on every call. ScoreFast, whose DynState and static-view inputs already
//     assume frozen weights, additionally reads the cross view's static-row
//     projections from a per-Plan memo filled on first touch (see
//     Plan.crossRow): once a Plan has served ScoreFast, its weights must not
//     change for the rest of its life — recompile after an in-place update.
//
// The tape engine remains the oracle: anything plan cannot compile (the
// baseline models, future graph changes) falls back to it, and the parity
// tests validate every compiled path against it.
package plan

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"seqfm/internal/core"
	"seqfm/internal/tensor"
)

// Plan is the compiled execution plan for one model: dimensions, ablation
// flags and parameter references resolved once. A Plan is immutable after
// Compile and safe for concurrent use; per-goroutine mutable state lives in
// Exec values (NewExec / Get / Put).
//
// The Plan aliases the model's live parameter matrices, so Score, Forward
// and Backward always use the weights the model currently holds — optimizer
// steps need no recompile. ScoreFast is the exception: it reads memoised
// projections that keep the weights they were computed from, so a Plan that
// has served ScoreFast must be recompiled (plan.For) after any in-place
// weight update. Structural changes (a different Config or ablation) need a
// new Plan.
type Plan struct {
	spec core.ModelSpec

	s, n, d int // static rows n°, dynamic rows n., latent dim d
	c       int // cross-view rows: s+n
	nViews  int

	hasS, hasD, hasX bool
	useRes, useLN    bool
	maskPad          bool

	dropRate float64
	invSqrtD float64

	pool sync.Pool

	// crossRows is ScoreFast's memo of the cross view's static-row
	// projections, one slot per static-embedding row (nil without the cross
	// view); see crossRow.
	crossRows []atomic.Pointer[[]float64]
}

// Compile lowers spec into an execution plan. It fails on specs the compiler
// does not cover rather than producing a plan that would diverge from the
// tape path.
func Compile(spec core.ModelSpec) (*Plan, error) {
	if err := spec.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	switch {
	case spec.W0 == nil, spec.WStatic == nil, spec.WDynamic == nil,
		spec.EmbS == nil, spec.EmbD == nil, spec.Proj == nil:
		return nil, fmt.Errorf("plan: spec missing parameters")
	case len(spec.FFN) != spec.Cfg.Layers:
		return nil, fmt.Errorf("plan: spec has %d FFN layers, config %d", len(spec.FFN), spec.Cfg.Layers)
	case spec.CausalMask == nil || spec.CrossMask == nil:
		return nil, fmt.Errorf("plan: spec missing attention masks")
	case spec.Cfg.MaskPadding && (len(spec.CausalPad) != spec.Cfg.MaxSeqLen+1 || len(spec.CrossPad) != spec.Cfg.MaxSeqLen+1):
		return nil, fmt.Errorf("plan: spec missing per-pad-count masks")
	}
	ab := spec.Cfg.Ablation
	p := &Plan{
		spec:     spec,
		s:        spec.NStatic,
		n:        spec.Cfg.MaxSeqLen,
		d:        spec.Cfg.Dim,
		hasS:     !ab.NoStaticView,
		hasD:     !ab.NoDynamicView,
		hasX:     !ab.NoCrossView,
		useRes:   spec.UseResidual,
		useLN:    spec.UseLayerNorm,
		maskPad:  spec.Cfg.MaskPadding,
		dropRate: spec.FFNDropout,
		invSqrtD: 1 / math.Sqrt(float64(spec.Cfg.Dim)),
	}
	p.c = p.s + p.n
	if p.hasS {
		p.nViews++
	}
	if p.hasD {
		p.nViews++
	}
	if p.hasX {
		p.nViews++
	}
	if want := p.nViews * p.d; spec.Proj.Value.Cols != want {
		return nil, fmt.Errorf("plan: projection is 1x%d, want 1x%d", spec.Proj.Value.Cols, want)
	}
	if p.hasX {
		p.crossRows = make([]atomic.Pointer[[]float64], spec.EmbS.Value.Rows)
	}
	p.pool.New = func() any { return p.NewExec() }
	return p, nil
}

// specSource is satisfied by *core.Model (and any future compilable model).
type specSource interface {
	Spec() core.ModelSpec
}

// For compiles a plan for m, which must expose its structure via
// Spec() core.ModelSpec (only *core.Model does today). Models without a spec
// — the baselines — return an error; callers fall back to the tape engine.
func For(m any) (*Plan, error) {
	src, ok := m.(specSource)
	if !ok {
		return nil, fmt.Errorf("plan: %T does not expose a compilable spec", m)
	}
	return Compile(src.Spec())
}

// Get returns a pooled Exec; Put returns it. The pool serves the RCU-swapped
// serving generations, where request goroutines come and go but plan buffers
// should not.
func (p *Plan) Get() *Exec  { return p.pool.Get().(*Exec) }
func (p *Plan) Put(e *Exec) { p.pool.Put(e) }

// crossRow returns static-embedding row r projected by the cross view's
// weights, EmbS[r]·AttnX.{WQ,WK,WV}, as one 3·d slice (Q, then K, then V),
// computing it on first touch. The projection runs tensor.MatMulInto on a
// 1×d view of the row: each output row of MatMulInto depends only on its own
// input row, accumulated in the same order, so the memoised values are
// bit-identical to the rows of the s×d product scoreCandidate computes from
// the gathered block. Racing fills compute identical bits; the first
// compare-and-swap publishes and the rest adopt its slice.
func (p *Plan) crossRow(r int) []float64 {
	slot := &p.crossRows[r]
	if row := slot.Load(); row != nil {
		return *row
	}
	d := p.d
	row := make([]float64, 3*d)
	in := tensor.FromSlice(1, d, p.spec.EmbS.Value.Row(r))
	x := p.spec.AttnX
	tensor.MatMulInto(tensor.FromSlice(1, d, row[:d]), in, x.WQ.Value)
	tensor.MatMulInto(tensor.FromSlice(1, d, row[d:2*d]), in, x.WK.Value)
	tensor.MatMulInto(tensor.FromSlice(1, d, row[2*d:]), in, x.WV.Value)
	if !slot.CompareAndSwap(nil, &row) {
		return *slot.Load()
	}
	return row
}

// Views returns the number of active attention views.
func (p *Plan) Views() int { return p.nViews }

// Sigmoid is the numerically-stable logistic function, the same branch
// structure the tape's Softplus derivative uses — exported so the compiled
// loss gradients in internal/train reproduce the tape's arithmetic exactly.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Softplus is the overflow-safe log(1+e^x), bitwise identical to the tape's.
func Softplus(x float64) float64 {
	if x > 0 {
		return x + math.Log1p(math.Exp(-x))
	}
	return math.Log1p(math.Exp(x))
}
