package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"seqfm/internal/ag"
	"seqfm/internal/core"
	"seqfm/internal/feature"
	"seqfm/internal/index"
	"seqfm/internal/obs"
	"seqfm/internal/online"
	"seqfm/internal/plan"
	"seqfm/internal/serve"
	"seqfm/internal/tensor"
	"seqfm/internal/traffic"
	"seqfm/internal/train"
)

// traceSample bounds how many requests of each endpoint the traced run
// replays.
const traceSample = 120

// serveHTTP sends one request through the handler, in-process.
func serveHTTP(h http.Handler, rq *request) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodPost, paths[rq.kind], bytes.NewReader(rq.body))
	r.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// replayer re-issues sampled requests on one goroutine against the quiesced
// stack and records a span around each call into a layer. The HTTP call, as
// served, is the root. The engine (or learner) call on the same input is its
// child: its span holds the call on now-warm caches plus a recomputation of
// whatever the HTTP call missed — the dynamic state when the engine's
// counters show a dynamic-cache miss, and as many static views as it missed
// — so it lasts as long as the engine's share of the served request. The
// plan and index calls that engine call makes are replayed warm after it, as
// its children. The root's self time is then the edge's own work, and the
// engine span's self time the engine's work beyond its plan and index calls.
type replayer struct {
	st    *stack
	tr    *tracer
	model *core.Model
	plan  *plan.Plan
	ex    *plan.Exec
	// static is the served model's static view compiled alone (see
	// staticViewPlan); it recomputes the static views a request missed.
	static *plan.Plan
	// execs and staticExecs are the fanned-out replays' per-worker
	// execution states; candidateCalls collects the warm candidate calls'
	// timings.
	execs, staticExecs []*plan.Exec
	candidateCalls     samples
	retr               index.Retriever
	flat               *index.Flat
	// recall accumulates sampled ANN-vs-exact overlap.
	recallHits, recallWanted int
}

func traceServe(res *result, st *stack, fixed *phase, o options) error {
	model, ok := st.eng.Model().(*core.Model)
	if !ok {
		return fmt.Errorf("served model is %T, not a SeqFM", st.eng.Model())
	}
	var compiles []float64
	var pl *plan.Plan
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		p, err := plan.For(model)
		if err != nil {
			return err
		}
		compiles = append(compiles, ms(time.Since(t0)))
		pl = p
	}
	res.values["plan.compile_ms"] = medianFloat(compiles)
	res.values["index.build_ms"] = ms(time.Duration(st.eng.Stats().IndexBuildNanos))
	static, err := staticViewPlan(model)
	if err != nil {
		return err
	}
	// The replay's retriever is built as the engine builds its own: the
	// zero IndexConfig's backend and ANN settings over the served model's
	// item embeddings.
	var ic serve.IndexConfig
	store := index.BuildStore(st.ds.Objects(), model.EmbedDim(), model.ObjectEmbedding)
	rp := &replayer{
		st: st, tr: newTracer(), model: model, plan: pl, ex: pl.NewExec(), static: static,
		retr: index.New(ic.Backend, store, ic.ANN),
		flat: index.NewFlat(store),
	}
	if got, want := rp.retr.Backend().String(), st.eng.Stats().IndexBackend; got != want {
		return fmt.Errorf("replay retriever is %s, the engine serves %s", got, want)
	}

	// Each sampled request runs once untraced, through the handler alone,
	// and once traced; the order alternates from request to request, so
	// each pass finds the caches the other has just filled for half of the
	// requests. trace.overhead_ratio is the traced root spans' total over
	// the untraced calls' total (totals, because each pass mixes cold and
	// warm calls, and a median would land on either): the cost of the span
	// bookkeeping around one request.
	sample := sampleRequests(fixed)
	var plain samples
	untraced := func(rq *request) {
		t0 := time.Now()
		serveHTTP(st.h, rq)
		plain = append(plain, time.Since(t0))
	}
	for i, rq := range sample {
		if i%2 == 0 {
			untraced(rq)
		}
		if err := rp.replay(int64(i+1), rq); err != nil {
			return err
		}
		if i%2 == 1 {
			untraced(rq)
		}
	}
	spans := rp.tr.spans
	var roots samples
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, s.dur())
		}
	}
	res.values["trace.overhead_ratio"] = ratio(float64(sum(roots)), float64(sum(plain)))
	for _, k := range kinds {
		if self := selfOf(spans, "httpapi.ServeHTTP."+k.String()); len(self) > 0 {
			res.values["httpapi.edge_self_us."+k.String()] = us(self.quantile(0.5))
		}
	}
	res.values["serve.topk_self_us"] = us(selfOf(spans, "serve.TopKOn").quantile(0.5))
	res.values["plan.dynamic_us"] = us(durations(spans, "plan.PrecomputeDynamic").quantile(0.5))
	cand := rp.candidateCalls
	res.values["plan.candidate_us"] = us(cand.quantile(0.5))
	res.values["index.search_us"] = us(durations(spans, "index.Search").quantile(0.5))
	res.values["index.recall_at_100"] = ratio(float64(rp.recallHits), float64(rp.recallWanted))
	res.values["trace.coverage.topk"] = medianFloat(coverage(spans, "httpapi.ServeHTTP.topk"))
	res.values["trace.coverage.recommend"] = medianFloat(coverage(spans, "httpapi.ServeHTTP.recommend"))
	madds := candidateMadds(model.Config())
	res.values["plan.madds_per_candidate"] = madds
	res.values["plan.candidate_gmadds_per_s"] = ratio(madds, us(cand.quantile(0.5))) / 1e3
	res.values["serve.allocs_per_topk"] = rp.allocsPerTopK(sample)
	res.values["httpapi.admission_wait_ms"] = admissionWaitP99(st.h)
	return rp.tr.write(filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed)))
}

// staticViewPlan compiles the served model's static view on its own: the
// model's spec with the dynamic and cross views switched off and a
// projection of the matching width. It shares the served weights, so its
// ScoreFast on a candidate does the work a static-cache miss adds to the
// engine's ScoreFast — the static view's attention and FFN — plus a row
// gather, the linear term and one d-wide dot product.
func staticViewPlan(m *core.Model) (*plan.Plan, error) {
	spec := m.Spec()
	spec.Cfg.Ablation.NoDynamicView = true
	spec.Cfg.Ablation.NoCrossView = true
	spec.Proj = ag.NewParam("perfbench.static-proj", 1, spec.Cfg.Dim, tensor.XavierUniform(), rand.New(rand.NewSource(1)))
	return plan.Compile(spec)
}

// sampleRequests takes the first traceSample OK requests of each endpoint
// from the fixed-rate phase, in the order they completed.
func sampleRequests(fixed *phase) []*request {
	taken := map[traffic.Kind]int{}
	var out []*request
	for _, o := range fixed.outcomes {
		if o.ok() && taken[o.req.kind] < traceSample {
			taken[o.req.kind]++
			out = append(out, o.req)
		}
	}
	return out
}

// history resolves the user's live history exactly as the handler does.
func (rp *replayer) history(user int) []int {
	if rp.st.learner != nil {
		return rp.st.learner.History(user)
	}
	return datasetHistory(rp.st.ds, user)
}

// namedCall is one replayed call and the span name it is recorded under.
type namedCall struct {
	name string
	f    func()
}

// engineCalls are one request's engine-level calls, as traceEngine records
// them.
type engineCalls struct {
	engine func() // the engine or learner call, on warm caches
	// misses recompute what the HTTP call missed, inside the engine span's
	// window.
	misses []namedCall
	// warm are the engine call's plan and index calls, replayed after the
	// engine span as its children.
	warm []namedCall
}

// traceEngine records the engine span named name under root: its window
// holds the warm engine call and the recomputed misses, each miss a child
// span inside it; the warm plan and index calls follow as further children.
func (t *tracer) traceEngine(root int, req int64, name string, c engineCalls) {
	e := t.begin(name, root, req)
	c.engine()
	for _, m := range c.misses {
		t.timed(m.name, e, req, m.f)
	}
	t.end(e)
	for _, w := range c.warm {
		t.timed(w.name, e, req, w.f)
	}
}

func (rp *replayer) replay(req int64, rq *request) error {
	st, tr := rp.st, rp.tr
	s0 := st.eng.Stats()
	root := tr.begin("httpapi.ServeHTTP."+rq.kind.String(), 0, req)
	w := serveHTTP(st.h, rq)
	tr.end(root)
	if w.Code/100 != 2 {
		return fmt.Errorf("traced %s answered %d: %s", rq.kind, w.Code, w.Body.String())
	}
	s1 := st.eng.Stats()
	dynMiss := s1.DynMisses > s0.DynMisses
	staticMiss := int(s1.StaticMisses - s0.StaticMisses)
	base := feature.Instance{User: rq.user, UserAttr: feature.Pad, TargetAttr: feature.Pad}

	// candidates builds the replay of the candidate phase over cands: the
	// recomputed dynamic state and static views (misses) and the warm
	// fan-out. Everything they need is computed here, untimed.
	candidates := func(cands []int) (misses []namedCall, warm namedCall) {
		dyn := rp.ex.PrecomputeDynamic(base.Hist)
		insts := make([]feature.Instance, len(cands))
		hs := make([]*tensor.Matrix, len(cands))
		for i, c := range cands {
			insts[i] = base
			insts[i].Target = c
			_, hs[i] = rp.ex.ScoreFast(dyn, insts[i], nil)
		}
		if dynMiss {
			misses = append(misses, namedCall{"plan.PrecomputeDynamic", func() { rp.ex.PrecomputeDynamic(base.Hist) }})
		}
		if m := min(staticMiss, len(cands)); m > 0 {
			misses = append(misses, namedCall{"plan.StaticView", func() { rp.staticViews(dyn, insts[:m]) }})
		}
		return misses, namedCall{"plan.ScoreFast", func() { rp.scoreWarm(dyn, insts, hs) }}
	}

	switch rq.kind {
	case traffic.KindTopK:
		base.Hist = rp.history(rq.user)
		misses, fan := candidates(rq.cands)
		tr.traceEngine(root, req, "serve.TopKOn", engineCalls{
			engine: func() { st.eng.TopKOn(serve.TopKRequest{Base: base, Candidates: rq.cands, K: topK}) },
			misses: misses,
			warm:   []namedCall{fan},
		})
	case traffic.KindScore:
		base.Hist = datasetHistory(st.ds, rq.user)
		inst := base
		inst.Target = rq.target
		misses, fan := candidates([]int{rq.target})
		tr.traceEngine(root, req, "serve.ScoreBatch", engineCalls{
			engine: func() { st.eng.ScoreBatch([]feature.Instance{inst}) },
			misses: misses,
			warm:   []namedCall{fan},
		})
	case traffic.KindRecommend:
		base.Hist = rp.history(rq.user)
		rreq := serve.RecommendRequest{Base: base, K: topK}
		if l := st.learner; l != nil {
			user := rq.user
			rreq.ExcludeFunc = func(o int) bool { return l.Seen(user, o) }
			rreq.ExcludeHint = l.SeenCount(user)
		}
		query := make([]float64, rp.model.EmbedDim())
		rp.model.RetrievalQuery(rq.user, base.Hist, query)
		exclude, n, want := retrievalShape(rreq, rp.retr.Len())
		got := rp.retr.Search(query, n, exclude)
		if len(got) > want {
			got = got[:want]
		}
		rp.sampleRecall(query, want, exclude, got)
		ids := make([]int, len(got))
		for i, r := range got {
			ids[i] = r.ID
		}
		misses, fan := candidates(ids)
		var err error
		tr.traceEngine(root, req, "serve.RecommendOn", engineCalls{
			engine: func() { _, err = st.eng.RecommendOn(rreq) },
			misses: misses,
			warm: []namedCall{
				{"core.RetrievalQuery", func() { rp.model.RetrievalQuery(rq.user, base.Hist, query) }},
				{"index.Search", func() { rp.retr.Search(query, n, exclude) }},
				fan,
			},
		})
		if err != nil {
			return err
		}
	case traffic.KindFeedback:
		var err error
		tr.traceEngine(root, req, "online.TryIngestBatch", engineCalls{
			engine: func() {
				err = st.learner.TryIngestBatch([]online.Event{{User: rq.user, Object: rq.object, Label: 1}})
			},
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// fanOut runs f over n jobs on GOMAXPROCS workers (the engine's default
// worker count) with train.ParallelEach, as the engine fans out a request's
// candidates, handing each worker its own execution state from execs.
func (rp *replayer) fanOut(p *plan.Plan, execs *[]*plan.Exec, n int, f func(ex *plan.Exec, w, i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	for len(*execs) < workers {
		*execs = append(*execs, p.NewExec())
	}
	train.ParallelEach(n, workers, func(w, i int) { f((*execs)[w], w, i) })
}

// staticViews recomputes the static views of insts, fanned out.
func (rp *replayer) staticViews(dyn *core.DynState, insts []feature.Instance) {
	rp.fanOut(rp.static, &rp.staticExecs, len(insts), func(ex *plan.Exec, _, i int) { ex.ScoreFast(dyn, insts[i], nil) })
}

// scoreWarm replays the candidate phase with every static view cached,
// fanned out, each worker timing its own calls for plan.candidate_us.
func (rp *replayer) scoreWarm(dyn *core.DynState, insts []feature.Instance, hs []*tensor.Matrix) {
	calls := make([]samples, min(runtime.GOMAXPROCS(0), len(insts)))
	rp.fanOut(rp.plan, &rp.execs, len(insts), func(ex *plan.Exec, w, i int) {
		t0 := time.Now()
		ex.ScoreFast(dyn, insts[i], hs[i])
		calls[w] = append(calls[w], time.Since(t0))
	})
	for _, c := range calls {
		rp.candidateCalls = append(rp.candidateCalls, c...)
	}
}

// retrievalShape mirrors the engine's retrieval request: the exclusion
// predicate, the beam n (depth plus capped headroom for exclusions) and the
// depth want the results are trimmed to.
func retrievalShape(req serve.RecommendRequest, size int) (func(int) bool, int, int) {
	excluded := map[int]bool{}
	for _, o := range req.Base.Hist {
		excluded[o] = true
	}
	exclude := func(id int) bool {
		return excluded[id] || (req.ExcludeFunc != nil && req.ExcludeFunc(id))
	}
	want := max(10*req.K, serve.DefaultMinRetrieve)
	want = min(want, size)
	headroom := min(len(excluded)+req.ExcludeHint, serve.MaxExcludeHeadroomFactor*want)
	return exclude, min(want+headroom, size), want
}

// sampleRecall compares the approximate retrieval against the exact flat
// scan on the same store.
func (rp *replayer) sampleRecall(query []float64, want int, exclude func(int) bool, approx []index.Result) {
	exact := rp.flat.Search(query, want, exclude)
	got := make(map[int]bool, len(approx))
	for _, r := range approx {
		got[r.ID] = true
	}
	for _, r := range exact {
		if got[r.ID] {
			rp.recallHits++
		}
	}
	rp.recallWanted += len(exact)
}

// allocsPerTopK counts heap allocations per Engine.TopKOn over the sampled
// top-K requests, with nothing else running.
func (rp *replayer) allocsPerTopK(sample []*request) float64 {
	var reqs []serve.TopKRequest
	for _, rq := range sample {
		if rq.kind == traffic.KindTopK {
			base := feature.Instance{User: rq.user, Hist: rp.history(rq.user), UserAttr: feature.Pad, TargetAttr: feature.Pad}
			reqs = append(reqs, serve.TopKRequest{Base: base, Candidates: rq.cands, K: topK})
		}
	}
	if len(reqs) == 0 {
		return 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, r := range reqs {
		rp.st.eng.TopKOn(r)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs))
}

// candidateMadds is the dense multiply-add count of one candidate's forward
// pass with its static view cached, computed from the model's shapes: the
// cross view over s static and n dynamic rows (static-row projections,
// scores, attention-weighted values), its FFN and the output projection. It
// is an upper bound on the work done, because tensor.MatMulInto skips zero
// multiplicands.
func candidateMadds(cfg core.Config) float64 {
	d, n, l := float64(cfg.Dim), float64(cfg.MaxSeqLen), float64(cfg.Layers)
	s := 2.0
	if cfg.Space.NumUserAttrs > 0 {
		s++
	}
	if cfg.Space.NumItemAttrs > 0 {
		s++
	}
	c := s + n
	return 3*s*d*d + 2*c*c*d + l*d*d + 3*d
}

// admissionWaitP99 scrapes the server's own /metrics for the read class's
// admission-wait p99 (0 when admission control is off, its default).
func admissionWaitP99(h http.Handler) float64 {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	smp, err := obs.ParsePrometheus(w.Body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: parse /metrics: %v\n", err)
		return 0
	}
	v, _ := smp.Value("seqfm_admission_wait_seconds", "group", "read", "quantile", "0.99")
	return v * 1000
}
