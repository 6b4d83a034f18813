package plan

import (
	"fmt"
	"math"
	"math/rand"

	"seqfm/internal/core"
	"seqfm/internal/feature"
	"seqfm/internal/tensor"
)

// ffnCache holds one application of the shared residual FFN to a 1×d vector:
// the layer chain plus everything the backward pass needs (layer-norm
// statistics, pre-activation values, dropout masks).
type ffnCache struct {
	h      []*tensor.Matrix // len L+1: h[0] is the pooled input, h[L] the output
	ln     []*tensor.Matrix // len L: layer-norm outputs (nil when LN is ablated)
	mu     []float64        // len L: per-layer mean
	invStd []float64        // len L: per-layer 1/√(var+eps)
	z      []*tensor.Matrix // len L: pre-ReLU activations
	r      []*tensor.Matrix // len L: post-ReLU (post-dropout in training)
	mask   []*tensor.Matrix // len L: dropout masks (nil when rate is 0)
}

func newFFNCache(layers, d int, useLN bool, withMask bool) ffnCache {
	c := ffnCache{
		h:      make([]*tensor.Matrix, layers+1),
		z:      make([]*tensor.Matrix, layers),
		r:      make([]*tensor.Matrix, layers),
		mu:     make([]float64, layers),
		invStd: make([]float64, layers),
	}
	for k := range c.h {
		c.h[k] = tensor.New(1, d)
	}
	for k := 0; k < layers; k++ {
		c.z[k] = tensor.New(1, d)
		c.r[k] = tensor.New(1, d)
	}
	if useLN {
		c.ln = make([]*tensor.Matrix, layers)
		for k := range c.ln {
			c.ln[k] = tensor.New(1, d)
		}
	}
	if withMask {
		c.mask = make([]*tensor.Matrix, layers)
		for k := range c.mask {
			c.mask[k] = tensor.New(1, d)
		}
	}
	return c
}

// candSlot holds the candidate-dependent forward state of one scored
// candidate, kept around so the backward pass can consume it.
type candSlot struct {
	staticIdx  []int
	eS         *tensor.Matrix // s×d static embedding rows
	qs, ks, vs *tensor.Matrix // s×d static-view projections
	as         *tensor.Matrix // s×s static-view attention probabilities
	h0s        *tensor.Matrix // s×d static-view attention output
	ffnS       ffnCache

	qx, kx, vx          *tensor.Matrix // (s+n)×d full cross projections
	qxTop, kxTop, vxTop *tensor.Matrix // s×d views of the static row-blocks
	ax                  *tensor.Matrix // (s+n)² cross attention probabilities
	h0x                 *tensor.Matrix // (s+n)×d cross attention output
	ffnX                ffnCache

	hagg  *tensor.Matrix // 1×(views·d) aggregated view vector
	score float64
	// hSFresh records whether the static view was computed (true) or injected
	// from a cache (false, inference only — Backward rejects injected slots
	// implicitly because training forwards never inject).
	hSFresh bool
}

// attnScratch is the per-shape backward scratch of one self-attention block.
type attnScratch struct {
	dq, dk, dv *tensor.Matrix // r×d
	da, ds     *tensor.Matrix // r×r
}

func newAttnScratch(r, d int) attnScratch {
	return attnScratch{
		dq: tensor.New(r, d), dk: tensor.New(r, d), dv: tensor.New(r, d),
		da: tensor.New(r, r), ds: tensor.New(r, r),
	}
}

// Exec is one mutable instantiation of a Plan's buffers: the flat float state
// of a forward(+backward) pass, allocated once and reused. An Exec must not
// be shared between goroutines; use Plan.Get/Put or one Exec per worker.
type Exec struct {
	plan *Plan
	rng  *rand.Rand

	// ---- dynamic phase (candidate-independent) ----
	dynIdx   []int
	padCount int
	linD     float64
	eD       *tensor.Matrix // n×d (nil unless the dynamic or cross view needs it)

	qd, kd, vd *tensor.Matrix // n×d dynamic-view projections
	sd, ad     *tensor.Matrix // n×n scores scratch / attention probabilities
	hd0        *tensor.Matrix // n×d dynamic-view attention output
	ffnD       ffnCache

	qDbuf, kDbuf, vDbuf *tensor.Matrix // n×d cross-view dynamic row-blocks
	// hD/qD/kD/vD are what the candidate phase consumes: aliases of the
	// buffers above after beginDynamic, or of a DynState snapshot in ScoreFast.
	hD, qD, kD, vD *tensor.Matrix

	// ---- candidate phase ----
	slots  []*candSlot
	ssS    *tensor.Matrix // s×s static-view pre-softmax scratch
	sx     *tensor.Matrix // (s+n)² cross pre-softmax scratch
	scores []float64

	nCand       int
	fwdTraining bool

	// ---- backward scratch ----
	dview            *tensor.Matrix // 1×d per-view gradient
	deS              *tensor.Matrix // s×d per-candidate static embedding grad
	deD              *tensor.Matrix // n×d dynamic embedding grad accumulator
	dhD              *tensor.Matrix // 1×d dynamic-view output grad accumulator
	dlinD            float64
	dh0s, dh0d, dh0x *tensor.Matrix
	scrS, scrD       attnScratch
	dqx, dkx, dvx    *tensor.Matrix // (s+n)×d cross projection grads
	dqxTop, dqxBot   *tensor.Matrix
	dkxTop, dkxBot   *tensor.Matrix
	dvxTop, dvxBot   *tensor.Matrix
	dax, dsx         *tensor.Matrix // (s+n)² cross attention grads
	dqD, dkD, dvD    *tensor.Matrix // n×d shared cross row-block grad accumulators
	ffnDz            *tensor.Matrix // 1×d
	ffnDlin          *tensor.Matrix // 1×d
	ffnDin           *tensor.Matrix // 1×d
}

// NewExec allocates a fresh execution state for p. Every buffer is sized from
// the config here; the hot paths below allocate nothing (beyond candidate
// slots the first time a larger batch is seen).
func (p *Plan) NewExec() *Exec {
	s, n, d, c := p.s, p.n, p.d, p.c
	L := len(p.spec.FFN)
	withMask := p.dropRate > 0
	e := &Exec{
		plan:    p,
		dynIdx:  make([]int, n),
		dview:   tensor.New(1, d),
		ffnDz:   tensor.New(1, d),
		ffnDlin: tensor.New(1, d),
		ffnDin:  tensor.New(1, d),
	}
	if p.hasD || p.hasX {
		e.eD = tensor.New(n, d)
		e.deD = tensor.New(n, d)
	}
	if p.hasD {
		e.qd = tensor.New(n, d)
		e.kd = tensor.New(n, d)
		e.vd = tensor.New(n, d)
		e.sd = tensor.New(n, n)
		e.ad = tensor.New(n, n)
		e.hd0 = tensor.New(n, d)
		e.ffnD = newFFNCache(L, d, p.useLN, withMask)
		e.dhD = tensor.New(1, d)
		e.dh0d = tensor.New(n, d)
		e.scrD = newAttnScratch(n, d)
	}
	if p.hasX {
		e.qDbuf = tensor.New(n, d)
		e.kDbuf = tensor.New(n, d)
		e.vDbuf = tensor.New(n, d)
		e.sx = tensor.New(c, c)
		e.dh0x = tensor.New(c, d)
		e.dqx = tensor.New(c, d)
		e.dkx = tensor.New(c, d)
		e.dvx = tensor.New(c, d)
		e.dqxTop = tensor.FromSlice(s, d, e.dqx.Data[:s*d])
		e.dqxBot = tensor.FromSlice(n, d, e.dqx.Data[s*d:])
		e.dkxTop = tensor.FromSlice(s, d, e.dkx.Data[:s*d])
		e.dkxBot = tensor.FromSlice(n, d, e.dkx.Data[s*d:])
		e.dvxTop = tensor.FromSlice(s, d, e.dvx.Data[:s*d])
		e.dvxBot = tensor.FromSlice(n, d, e.dvx.Data[s*d:])
		e.dax = tensor.New(c, c)
		e.dsx = tensor.New(c, c)
		e.dqD = tensor.New(n, d)
		e.dkD = tensor.New(n, d)
		e.dvD = tensor.New(n, d)
	}
	if p.hasS {
		e.ssS = tensor.New(s, s)
		e.dh0s = tensor.New(s, d)
		e.scrS = newAttnScratch(s, d)
	}
	if p.hasS || p.hasX {
		e.deS = tensor.New(s, d)
	}
	return e
}

// SetRNG installs the dropout stream for training forwards. The stream must
// not be shared with other Execs or tapes.
func (e *Exec) SetRNG(rng *rand.Rand) { e.rng = rng }

// newSlot allocates one candidate slot for the plan's active views.
func (p *Plan) newSlot() *candSlot {
	s, d, c := p.s, p.d, p.c
	L := len(p.spec.FFN)
	withMask := p.dropRate > 0
	sl := &candSlot{
		staticIdx: make([]int, 0, s),
		hagg:      tensor.New(1, p.nViews*d),
	}
	if p.hasS || p.hasX {
		sl.eS = tensor.New(s, d)
	}
	if p.hasS {
		sl.qs = tensor.New(s, d)
		sl.ks = tensor.New(s, d)
		sl.vs = tensor.New(s, d)
		sl.as = tensor.New(s, s)
		sl.h0s = tensor.New(s, d)
		sl.ffnS = newFFNCache(L, d, p.useLN, withMask)
	}
	if p.hasX {
		sl.qx = tensor.New(c, d)
		sl.kx = tensor.New(c, d)
		sl.vx = tensor.New(c, d)
		sl.qxTop = tensor.FromSlice(s, d, sl.qx.Data[:s*d])
		sl.kxTop = tensor.FromSlice(s, d, sl.kx.Data[:s*d])
		sl.vxTop = tensor.FromSlice(s, d, sl.vx.Data[:s*d])
		sl.ax = tensor.New(c, c)
		sl.h0x = tensor.New(c, d)
		sl.ffnX = newFFNCache(L, d, p.useLN, withMask)
	}
	return sl
}

func (e *Exec) ensureSlots(n int) {
	for len(e.slots) < n {
		e.slots = append(e.slots, e.plan.newSlot())
	}
}

// layerNormForward replicates ag.LayerNorm's forward for a 1×d row, caching
// the per-row statistics for the backward pass.
func layerNormForward(dst, x *tensor.Matrix, sv, bv []float64, eps float64) (mu, invStd float64) {
	d := float64(x.Cols)
	m := 0.0
	for _, xv := range x.Data {
		m += xv
	}
	m /= d
	variance := 0.0
	for _, xv := range x.Data {
		dv := xv - m
		variance += dv * dv
	}
	variance /= d
	is := 1 / math.Sqrt(variance+eps)
	for j, xv := range x.Data {
		dst.Data[j] = sv[j]*(xv-m)*is + bv[j]
	}
	return m, is
}

// ffnForward runs the shared residual FFN over c.h[0], filling the cache and
// returning the output vector c.h[L]. Exactly mirrors nn.ResidualFFN.Forward:
// out_k = Dropout(ReLU(LN?(h)·W + b)), h = h + out_k (or out_k without the
// residual connection). Dropout draws one rng.Float64 per element, in element
// order, matching the tape's mask construction bit for bit.
func (e *Exec) ffnForward(c *ffnCache, training bool) *tensor.Matrix {
	p := e.plan
	drop := training && p.dropRate > 0
	keep := 1 - p.dropRate
	inv := 1 / keep
	h := c.h[0]
	for k, lay := range p.spec.FFN {
		in := h
		if p.useLN {
			in = c.ln[k]
			c.mu[k], c.invStd[k] = layerNormForward(in, h, lay.LNS.Value.Data, lay.LNB.Value.Data, lay.Eps)
		}
		z := c.z[k]
		tensor.MatMulInto(z, in, lay.W.Value)
		for j, bv := range lay.B.Value.Data {
			z.Data[j] += bv
		}
		r := c.r[k]
		for j, zv := range z.Data {
			if zv > 0 {
				r.Data[j] = zv
			} else {
				r.Data[j] = 0
			}
		}
		if drop {
			mask := c.mask[k]
			for j, x := range r.Data {
				if e.rng.Float64() < keep {
					mask.Data[j] = inv
					r.Data[j] = x * inv
				} else {
					mask.Data[j] = 0
					r.Data[j] = 0
				}
			}
		}
		next := c.h[k+1]
		if p.useRes {
			for j := range next.Data {
				next.Data[j] = h.Data[j] + r.Data[j]
			}
		} else {
			copy(next.Data, r.Data)
		}
		h = next
	}
	return h
}

// attnForward runs one self-attention block: q/k/v = e·W, a = softmax of the
// scaled score matrix plus mask, h0 = a·v. scores is scratch; a and h0 are
// kept for the backward pass.
func (e *Exec) attnForward(eIn *tensor.Matrix, w core.AttnSpec, mask *tensor.Matrix, q, k, v, scores, a, h0 *tensor.Matrix) {
	tensor.MatMulInto(q, eIn, w.WQ.Value)
	tensor.MatMulInto(k, eIn, w.WK.Value)
	tensor.MatMulInto(v, eIn, w.WV.Value)
	maskedMatMulTInto(scores, q, k, mask)
	scores.ScaleInPlace(e.plan.invSqrtD)
	tensor.SoftmaxRowsInto(a, scores, mask)
	tensor.MatMulInto(h0, a, v)
}

// beginDynamic runs the candidate-independent phase for hist, the compiled
// equivalent of core.ForwardDynamic: pad the history, sum the dynamic linear
// term, gather embeddings, run the dynamic view and project the cross-view
// row-blocks — all into preallocated buffers.
func (e *Exec) beginDynamic(hist []int, training bool) {
	p := e.plan
	// feature.Space.PadHist, without the allocation.
	start := len(hist) - p.n
	pad := 0
	for i := 0; i < p.n; i++ {
		src := start + i
		if src < 0 {
			e.dynIdx[i] = feature.Pad
		} else {
			e.dynIdx[i] = hist[src]
		}
	}
	for _, ix := range e.dynIdx {
		if ix < 0 {
			pad++
		}
	}
	e.padCount = pad

	wd := p.spec.WDynamic.Value
	lin := 0.0
	for _, ix := range e.dynIdx {
		if ix < 0 {
			continue
		}
		if ix >= wd.Rows {
			panic(fmt.Sprintf("plan: dynamic index %d out of range for %d objects", ix, wd.Rows))
		}
		lin += wd.Data[ix]
	}
	e.linD = lin

	if p.hasD || p.hasX {
		gatherRows(e.eD, p.spec.EmbD.Value, e.dynIdx)
	}
	if p.hasD {
		mask := p.spec.CausalMask
		if p.maskPad {
			mask = p.spec.CausalPad[pad]
		}
		e.attnForward(e.eD, p.spec.AttnD, mask, e.qd, e.kd, e.vd, e.sd, e.ad, e.hd0)
		meanRowsInto(e.ffnD.h[0], e.hd0)
		e.hD = e.ffnForward(&e.ffnD, training)
	} else {
		e.hD = nil
	}
	if p.hasX {
		tensor.MatMulInto(e.qDbuf, e.eD, p.spec.AttnX.WQ.Value)
		tensor.MatMulInto(e.kDbuf, e.eD, p.spec.AttnX.WK.Value)
		tensor.MatMulInto(e.vDbuf, e.eD, p.spec.AttnX.WV.Value)
		e.qD, e.kD, e.vD = e.qDbuf, e.kDbuf, e.vDbuf
	} else {
		e.qD, e.kD, e.vD = nil, nil, nil
	}
}

// staticIndicesInto is feature.Space.StaticIndices into a reused slice,
// preserving its validation panics.
func staticIndicesInto(dst []int, sp feature.Space, inst feature.Instance) []int {
	if inst.User < 0 || inst.User >= sp.NumUsers {
		panic(fmt.Sprintf("feature: user %d outside [0,%d)", inst.User, sp.NumUsers))
	}
	if inst.Target < 0 || inst.Target >= sp.NumObjects {
		panic(fmt.Sprintf("feature: target %d outside [0,%d)", inst.Target, sp.NumObjects))
	}
	dst = append(dst[:0], inst.User, sp.NumUsers+inst.Target)
	off := sp.NumUsers + sp.NumObjects
	if sp.NumUserAttrs > 0 {
		if inst.UserAttr < 0 || inst.UserAttr >= sp.NumUserAttrs {
			panic(fmt.Sprintf("feature: user attr %d outside [0,%d)", inst.UserAttr, sp.NumUserAttrs))
		}
		dst = append(dst, off+inst.UserAttr)
		off += sp.NumUserAttrs
	}
	if sp.NumItemAttrs > 0 {
		if inst.TargetAttr < 0 || inst.TargetAttr >= sp.NumItemAttrs {
			panic(fmt.Sprintf("feature: target attr %d outside [0,%d)", inst.TargetAttr, sp.NumItemAttrs))
		}
		dst = append(dst, off+inst.TargetAttr)
	}
	return dst
}

// scoreCandidate attaches one candidate to the prepared dynamic state — the
// compiled core.forwardCandidate. hS, when non-nil, is injected in place of
// computing the static view (serving cache hit). rowMemo reads the cross
// view's static-row projections from the plan's memo (Plan.crossRow) instead
// of projecting the gathered rows against the live weights (ScoreFast only).
// It returns the raw score and the freshly computed static-view vector (nil
// when injected or ablated).
func (e *Exec) scoreCandidate(sl *candSlot, inst feature.Instance, training bool, hS *tensor.Matrix, rowMemo bool) (float64, *tensor.Matrix) {
	p := e.plan
	sp := p.spec.Cfg.Space
	sl.staticIdx = staticIndicesInto(sl.staticIdx, sp, inst)

	// Linear component, associated exactly as the tape: w0 + (Σw° + Σw·).
	ws := p.spec.WStatic.Value
	gs := 0.0
	for _, ix := range sl.staticIdx {
		gs += ws.Data[ix]
	}
	linear := p.spec.W0.Value.Data[0] + (gs + e.linD)

	gathered := false
	gatherS := func() {
		if !gathered {
			gatherRows(sl.eS, p.spec.EmbS.Value, sl.staticIdx)
			gathered = true
		}
	}

	var hSOut *tensor.Matrix
	off := 0
	d := p.d
	if p.hasS {
		if hS == nil {
			gatherS()
			e.attnForward(sl.eS, p.spec.AttnS, nil, sl.qs, sl.ks, sl.vs, e.ssS, sl.as, sl.h0s)
			meanRowsInto(sl.ffnS.h[0], sl.h0s)
			hSOut = e.ffnForward(&sl.ffnS, training)
			copy(sl.hagg.Data[off:off+d], hSOut.Data)
			sl.hSFresh = true
		} else {
			copy(sl.hagg.Data[off:off+d], hS.Data)
			sl.hSFresh = false
		}
		off += d
	}
	if p.hasD {
		copy(sl.hagg.Data[off:off+d], e.hD.Data)
		off += d
	}
	if p.hasX {
		mask := p.spec.CrossMask
		if p.maskPad {
			mask = p.spec.CrossPad[e.padCount]
		}
		// Static row-blocks projected fresh (or read from the row memo);
		// dynamic row-blocks copied from the shared phase — the same
		// row-split core.forwardCandidate records via ConcatRows.
		if rowMemo {
			for i, ix := range sl.staticIdx {
				row := p.crossRow(ix)
				copy(sl.qxTop.Row(i), row[:d])
				copy(sl.kxTop.Row(i), row[d:2*d])
				copy(sl.vxTop.Row(i), row[2*d:])
			}
		} else {
			gatherS()
			tensor.MatMulInto(sl.qxTop, sl.eS, p.spec.AttnX.WQ.Value)
			tensor.MatMulInto(sl.kxTop, sl.eS, p.spec.AttnX.WK.Value)
			tensor.MatMulInto(sl.vxTop, sl.eS, p.spec.AttnX.WV.Value)
		}
		copy(sl.qx.Data[p.s*d:], e.qD.Data)
		copy(sl.kx.Data[p.s*d:], e.kD.Data)
		copy(sl.vx.Data[p.s*d:], e.vD.Data)
		maskedMatMulTInto(e.sx, sl.qx, sl.kx, mask)
		e.sx.ScaleInPlace(p.invSqrtD)
		tensor.SoftmaxRowsInto(sl.ax, e.sx, mask)
		tensor.MatMulInto(sl.h0x, sl.ax, sl.vx)
		meanRowsInto(sl.ffnX.h[0], sl.h0x)
		hX := e.ffnForward(&sl.ffnX, training)
		copy(sl.hagg.Data[off:off+d], hX.Data)
	}

	f := dotVec(p.spec.Proj.Value.Data, sl.hagg.Data)
	sl.score = linear + f
	return sl.score, hSOut
}

// Score runs the full compiled forward for one instance in inference mode —
// bit-identical to core.Model.Score on a fresh tape.
func (e *Exec) Score(inst feature.Instance) float64 {
	e.fwdTraining = false
	e.beginDynamic(inst.Hist, false)
	e.ensureSlots(1)
	score, _ := e.scoreCandidate(e.slots[0], inst, false, nil, false)
	return score
}

// Forward scores insts[0] (the positive) and the rest (its sampled
// corruptions) against insts[0]'s history, sharing the dynamic phase exactly
// like the candidate-sharing tape forward. In training mode dropout masks are
// drawn from the Exec's RNG (SetRNG) and every intermediate is kept for
// Backward. The returned slice is Exec scratch, valid until the next call.
func (e *Exec) Forward(insts []feature.Instance, training bool) []float64 {
	if len(insts) == 0 {
		panic("plan: Forward of no instances")
	}
	if training && e.plan.dropRate > 0 && e.rng == nil {
		panic("plan: training Forward without rng; call SetRNG")
	}
	e.beginDynamic(insts[0].Hist, training)
	e.ensureSlots(len(insts))
	e.scores = e.scores[:0]
	for i, inst := range insts {
		s, _ := e.scoreCandidate(e.slots[i], inst, training, nil, false)
		e.scores = append(e.scores, s)
	}
	e.nCand = len(insts)
	e.fwdTraining = training
	return e.scores
}

// PrecomputeDynamic runs the compiled dynamic phase and snapshots it as a
// core.DynState — interchangeable with the tape-built one: either engine can
// consume either snapshot, bit for bit.
func (e *Exec) PrecomputeDynamic(hist []int) *core.DynState {
	e.fwdTraining = false
	e.beginDynamic(hist, false)
	parts := core.DynParts{
		DynIdx:   append([]int(nil), e.dynIdx...),
		PadCount: e.padCount,
		LinD:     e.linD,
	}
	if e.hD != nil {
		parts.HD = e.hD.Clone()
	}
	if e.qD != nil {
		parts.QD = e.qD.Clone()
		parts.KD = e.kD.Clone()
		parts.VD = e.vD.Clone()
	}
	return core.DynStateFromParts(parts)
}

// ScoreFast scores inst against a cached dynamic state, the compiled
// core.Model.ScoreFast: same contract, same bit-exact scores, same static-view
// vector caching (hS in, possibly-fresh clone out). Like st and hS, the cross
// view's static-row projections are memoised on the Plan from the weights at
// first touch, so the Plan's weights must stay frozen once it serves
// ScoreFast.
func (e *Exec) ScoreFast(st *core.DynState, inst feature.Instance, hS *tensor.Matrix) (float64, *tensor.Matrix) {
	e.fwdTraining = false
	parts := st.Parts()
	e.padCount = parts.PadCount
	e.linD = parts.LinD
	e.hD = parts.HD
	e.qD, e.kD, e.vD = parts.QD, parts.KD, parts.VD
	e.ensureSlots(1)
	score, hSOut := e.scoreCandidate(e.slots[0], inst, false, hS, true)
	if hS == nil && hSOut != nil {
		hS = hSOut.Clone()
	}
	return score, hS
}
