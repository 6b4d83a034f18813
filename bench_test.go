// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section. Each bench runs the corresponding experiment
// end to end (data generation, training, evaluation) at the tiny scale so
// `go test -bench=. -benchmem` completes in minutes; the reported ns/op is
// the wall-clock cost of regenerating that artifact. Use cmd/seqfm-bench
// with -scale small|medium|full for the results recorded in EXPERIMENTS.md.
//
// Micro-benchmarks for the substrate (forward pass, forward+backward, plain
// FM scoring) sit at the bottom; they are the per-sample costs that §III-I's
// complexity analysis speaks to.
package seqfm_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"
	"time"

	"seqfm"
	"seqfm/internal/ag"
	"seqfm/internal/ckpt"
	"seqfm/internal/core"
	"seqfm/internal/data"
	"seqfm/internal/experiments"
	"seqfm/internal/index"
	"seqfm/internal/online"
	"seqfm/internal/serve"
	"seqfm/internal/train"
	"seqfm/internal/wal"
)

func tinyParams(b *testing.B) experiments.Params {
	b.Helper()
	p := experiments.ParamsFor(experiments.ScaleTiny)
	p.Epochs = 5 // benches measure harness cost, not final accuracy
	return p
}

// BenchmarkTable1DatasetStats regenerates Table I (dataset statistics).
func BenchmarkTable1DatasetStats(b *testing.B) {
	p := tinyParams(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(io.Discard, p); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRankingDataset trains and evaluates the full Table II model zoo on
// one POI stand-in.
func benchRankingDataset(b *testing.B, gowalla bool) {
	p := tinyParams(b)
	g, f, err := p.RankingDatasets()
	if err != nil {
		b.Fatal(err)
	}
	ds := g
	if !gowalla {
		ds = f
	}
	for i := 0; i < b.N; i++ {
		split := data.NewSplit(ds)
		models, err := p.RankingModels(ds.Space())
		if err != nil {
			b.Fatal(err)
		}
		for _, nm := range models {
			if _, err := train.Ranking(nm.Model, split, p.TrainConfig()); err != nil {
				b.Fatal(err)
			}
			train.EvalRanking(nm.Model, split, p.EvalConfig())
		}
	}
}

// BenchmarkTable2RankingGowalla regenerates the Gowalla half of Table II.
func BenchmarkTable2RankingGowalla(b *testing.B) { benchRankingDataset(b, true) }

// BenchmarkTable2RankingFoursquare regenerates the Foursquare half of Table II.
func BenchmarkTable2RankingFoursquare(b *testing.B) { benchRankingDataset(b, false) }

func benchCTRDataset(b *testing.B, trivago bool) {
	p := tinyParams(b)
	tv, tb, err := p.CTRDatasets()
	if err != nil {
		b.Fatal(err)
	}
	ds := tv
	if !trivago {
		ds = tb
	}
	for i := 0; i < b.N; i++ {
		split := data.NewSplit(ds)
		models, err := p.ClassificationModels(ds.Space())
		if err != nil {
			b.Fatal(err)
		}
		for _, nm := range models {
			if _, err := train.Classification(nm.Model, split, p.TrainConfig()); err != nil {
				b.Fatal(err)
			}
			train.EvalClassification(nm.Model, split, p.EvalConfig())
		}
	}
}

// BenchmarkTable3CTRTrivago regenerates the Trivago half of Table III.
func BenchmarkTable3CTRTrivago(b *testing.B) { benchCTRDataset(b, true) }

// BenchmarkTable3CTRTaobao regenerates the Taobao half of Table III.
func BenchmarkTable3CTRTaobao(b *testing.B) { benchCTRDataset(b, false) }

func benchRatingDataset(b *testing.B, beauty bool) {
	p := tinyParams(b)
	be, to, err := p.RatingDatasets()
	if err != nil {
		b.Fatal(err)
	}
	ds := be
	if !beauty {
		ds = to
	}
	for i := 0; i < b.N; i++ {
		split := data.NewSplit(ds)
		models, err := p.RegressionModels(ds.Space())
		if err != nil {
			b.Fatal(err)
		}
		for _, nm := range models {
			if _, err := train.Regression(nm.Model, split, p.TrainConfig()); err != nil {
				b.Fatal(err)
			}
			train.EvalRegression(nm.Model, split, p.EvalConfig())
		}
	}
}

// BenchmarkTable4RatingBeauty regenerates the Beauty half of Table IV.
func BenchmarkTable4RatingBeauty(b *testing.B) { benchRatingDataset(b, true) }

// BenchmarkTable4RatingToys regenerates the Toys half of Table IV.
func BenchmarkTable4RatingToys(b *testing.B) { benchRatingDataset(b, false) }

// BenchmarkTable5Ablation regenerates the ablation study (six SeqFM
// variants across all six datasets).
func BenchmarkTable5Ablation(b *testing.B) {
	p := tinyParams(b)
	p.Epochs = 3
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(io.Discard, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Sensitivity regenerates the hyperparameter sweep with the
// tiny grids.
func BenchmarkFigure3Sensitivity(b *testing.B) {
	p := tinyParams(b)
	p.Epochs = 3
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(io.Discard, p, experiments.Figure3Values{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Scalability regenerates the training-time-vs-data curve.
func BenchmarkFigure4Scalability(b *testing.B) {
	p := tinyParams(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(io.Discard, p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks -----------------------------------------

func benchModelAndInstance(b *testing.B) (*core.Model, seqfm.Instance) {
	b.Helper()
	space := seqfm.Space{NumUsers: 1000, NumObjects: 2000}
	cfg := core.DefaultConfig(space) // the paper's {d=64, l=1, n.=20}
	m, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	hist := make([]int, 20)
	for i := range hist {
		hist[i] = (i * 37) % 2000
	}
	return m, seqfm.Instance{User: 7, Target: 42, Hist: hist, UserAttr: -1, TargetAttr: -1}
}

// BenchmarkSeqFMForward measures one inference-mode forward pass at the
// paper's default configuration — the per-candidate scoring cost of §III-I.
func BenchmarkSeqFMForward(b *testing.B) {
	m, inst := benchModelAndInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := ag.NewTape()
		_ = m.Score(t, inst).Value.ScalarValue()
	}
}

// BenchmarkSeqFMForwardBackward measures one training step's compute
// (forward + reverse pass + gradient flush) for a single instance.
func BenchmarkSeqFMForwardBackward(b *testing.B) {
	m, inst := benchModelAndInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := ag.NewTape()
		loss := t.Square(m.Score(t, inst))
		t.Backward(loss)
		t.FlushGrads(nil)
		ag.ZeroGrads(m.Params())
	}
}

// BenchmarkSeqFMSequenceLengths reports forward cost across n. ∈ {10..50},
// the empirical counterpart of the O((n°+n.)²d) term in §III-I.
func BenchmarkSeqFMSequenceLengths(b *testing.B) {
	for _, n := range []int{10, 20, 30, 40, 50} {
		b.Run(benchName("n", n), func(b *testing.B) {
			space := seqfm.Space{NumUsers: 1000, NumObjects: 2000}
			cfg := core.DefaultConfig(space)
			cfg.MaxSeqLen = n
			m, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			hist := make([]int, n)
			for i := range hist {
				hist[i] = (i * 13) % 2000
			}
			inst := seqfm.Instance{User: 1, Target: 2, Hist: hist, UserAttr: -1, TargetAttr: -1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := ag.NewTape()
				_ = m.Score(t, inst).Value.ScalarValue()
			}
		})
	}
}

// --- serving-path benchmarks --------------------------------------------
//
// The serving scenario: rank J=100 candidate objects against one user's
// history, repeatedly. The naive baseline is what EvalRanking does per test
// case — one fresh tape and one full forward pass per candidate. The engine
// amortises the dynamic view across candidates, scores on the compiled plan
// with pooled execution buffers, serves repeated (user, candidate) pairs
// from the static-view cache, and fans out over workers. Compare:
//
//	go test -bench='BenchmarkServe' -benchmem
//
// The acceptance bar for the engine is ≥2× over the naive loop at J=100
// (single-worker, cold cache); the cached and parallel variants stack well
// beyond that. EXPERIMENTS.md records reference numbers.

const benchJ = serve.BenchJ // candidates per top-K request, the paper's eval J

// benchServingSetup is the standard serving workload, shared with
// seqfm-bench -mode serve (serve.BenchWorkload) so BENCH_serve.json stays
// comparable with these numbers.
func benchServingSetup(b *testing.B) (*core.Model, seqfm.Instance, []int) {
	b.Helper()
	m, inst, candidates, err := serve.BenchWorkload()
	if err != nil {
		b.Fatal(err)
	}
	return m, inst, candidates
}

// BenchmarkServeNaivePerInstance is the baseline a serving engine must
// beat: J independent full forward passes through the one-off Score facade,
// sequentially. (Since the compiled-plan facade this no longer pays a tape
// per call, but it still recomputes the dynamic view per candidate.)
func BenchmarkServeNaivePerInstance(b *testing.B) {
	m, inst, candidates := benchServingSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range candidates {
			ci := inst
			ci.Target = c
			_ = seqfm.Score(m, ci)
		}
	}
}

// BenchmarkServeTopKColdSingleWorker isolates the algorithmic win (shared
// dynamic view + compiled plan) from parallelism and cache warmth: one worker,
// caches disabled.
func BenchmarkServeTopKColdSingleWorker(b *testing.B) {
	m, inst, candidates := benchServingSetup(b)
	eng := seqfm.NewEngine(m, seqfm.EngineConfig{Workers: 1, StaticCacheSize: -1, DynCacheSize: -1})
	defer eng.Close()
	req := seqfm.TopKRequest{Base: inst, Candidates: candidates, K: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eng.TopK(req)
	}
}

// BenchmarkServeTopKCold measures a cold engine at full parallelism: every
// iteration builds a fresh engine, so nothing is served from warm caches.
func BenchmarkServeTopKCold(b *testing.B) {
	m, inst, candidates := benchServingSetup(b)
	req := seqfm.TopKRequest{Base: inst, Candidates: candidates, K: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := seqfm.NewEngine(m, seqfm.EngineConfig{})
		_ = eng.TopK(req)
		eng.Close()
	}
}

// BenchmarkServeTopKCached is the steady-state serving path: one engine,
// warm static-view and dynamic-state caches, so each iteration pays only
// for the cross view of each candidate.
func BenchmarkServeTopKCached(b *testing.B) {
	m, inst, candidates := benchServingSetup(b)
	eng := seqfm.NewEngine(m, seqfm.EngineConfig{})
	defer eng.Close()
	req := seqfm.TopKRequest{Base: inst, Candidates: candidates, K: 10}
	_ = eng.TopK(req) // warm the caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eng.TopK(req)
	}
}

// BenchmarkServeTopKCachedSingleWorker is the warm path without
// parallelism — the per-request floor on one core.
func BenchmarkServeTopKCachedSingleWorker(b *testing.B) {
	m, inst, candidates := benchServingSetup(b)
	eng := seqfm.NewEngine(m, seqfm.EngineConfig{Workers: 1})
	defer eng.Close()
	req := seqfm.TopKRequest{Base: inst, Candidates: candidates, K: 10}
	_ = eng.TopK(req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eng.TopK(req)
	}
}

// BenchmarkServeScoreBatch scores a mixed batch (distinct histories) — the
// /v1/score path rather than top-K.
func BenchmarkServeScoreBatch(b *testing.B) {
	m, inst, candidates := benchServingSetup(b)
	eng := seqfm.NewEngine(m, seqfm.EngineConfig{})
	defer eng.Close()
	insts := make([]seqfm.Instance, benchJ)
	for i, c := range candidates {
		ci := inst
		ci.Target = c
		ci.Hist = append(append([]int{}, inst.Hist...), c) // distinct history per instance
		insts[i] = ci
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eng.ScoreBatch(insts)
	}
}

// BenchmarkServeCachePolicy pins the LRU-upgrade satellite: skewed top-K
// traffic (a few hot users, a marching tail) over a static cache smaller
// than the working set. FIFO ages the hot users' rows out on schedule; LRU's
// touch-on-hit keeps them resident. The benchmark reports the realised
// static-cache hit rate alongside ns/op.
func BenchmarkServeCachePolicy(b *testing.B) {
	for _, pc := range []struct {
		name   string
		policy seqfm.CachePolicy
	}{{"fifo", seqfm.CacheFIFO}, {"lru", seqfm.CacheLRU}} {
		b.Run(pc.name, func(b *testing.B) {
			m, inst, candidates := benchServingSetup(b)
			// Cache capacity: the hot request's J rows fit comfortably, but
			// two rounds of marching cold rows overflow it. LRU's
			// touch-on-hit keeps the hot rows (re-touched every other
			// request) resident and evicts the dead cold rows; FIFO evicts
			// strictly by insertion age, so the cold stream flushes the hot
			// rows out on schedule.
			eng := seqfm.NewEngine(m, seqfm.EngineConfig{
				Workers:         1,
				CachePolicy:     pc.policy,
				StaticCacheSize: 2*benchJ + benchJ/2,
			})
			defer eng.Close()
			hot := seqfm.TopKRequest{Base: inst, Candidates: candidates, K: 10}
			coldBase := inst
			coldBase.User = 999
			cold := make([]int, benchJ) // marching one-shot candidates
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = eng.TopK(hot)
				for j := range cold {
					cold[j] = (i*benchJ + j) % 2000
				}
				_ = eng.TopK(seqfm.TopKRequest{Base: coldBase, Candidates: cold, K: 10})
			}
			b.StopTimer()
			s := eng.Stats()
			if probes := s.StaticHits + s.StaticMisses; probes > 0 {
				b.ReportMetric(float64(s.StaticHits)/float64(probes), "hit-rate")
			}
		})
	}
}

// BenchmarkServeHotSwapUnderLoad measures steady-state top-K latency while a
// background publisher hot-swaps model clones at a fixed cadence — the
// serving-side cost of the online-learning loop. Compare against
// BenchmarkServeTopKCached (the no-swap steady state). The acceptance bar is
// on absolute swapping p50, not the ratio — compiled serving shrank the
// steady-state denominator (see EXPERIMENTS.md's hot-swap table).
func BenchmarkServeHotSwapUnderLoad(b *testing.B) {
	m, inst, candidates := benchServingSetup(b)
	eng := seqfm.NewEngine(m, seqfm.EngineConfig{})
	defer eng.Close()
	req := seqfm.TopKRequest{Base: inst, Candidates: candidates, K: 10}
	_ = eng.TopK(req)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		cur := m
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			next := cur.Clone()
			next.Params()[0].Value.Data[0] += 1e-6
			eng.Swap(next)
			cur = next
		}
	}()
	b.Cleanup(func() {
		close(stop)
		<-done
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eng.TopK(req)
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.Stats().Swaps), "swaps")
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- retrieval-path benchmarks ------------------------------------------
//
// Tiny-N smoke versions of seqfm-bench -mode index (which measures
// 10k/100k/1M catalogs for BENCH_index.json): CI runs these at -benchtime=1x
// to catch build-path regressions and to assert the recall floor — a
// retrieval index that silently loses recall is worse than a slow one.

// benchIndexSetup builds a small random store plus its exact ground truth.
func benchIndexSetup(b *testing.B, n, d int) (*seqfm.ItemStore, [][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	store := index.BuildStore(ids, d, func(id int, dst []float64) {
		for j := range dst {
			dst[j] = rng.NormFloat64()
		}
	})
	queries := make([][]float64, 20)
	for i := range queries {
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		queries[i] = q
	}
	return store, queries
}

// BenchmarkIndexHNSWBuild measures graph construction on a 2k-item store.
func BenchmarkIndexHNSWBuild(b *testing.B) {
	store, _ := benchIndexSetup(b, 2000, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = index.NewHNSW(store, index.Config{Seed: 1})
	}
}

// BenchmarkIndexHNSWSearch measures query latency on a prebuilt graph and
// asserts the recall floor against the exact flat scan — the smoke-level
// version of the BENCH_index.json acceptance bar.
func BenchmarkIndexHNSWSearch(b *testing.B) {
	store, queries := benchIndexSetup(b, 2000, 32)
	h := index.NewHNSW(store, index.Config{Seed: 1})
	flat := index.NewFlat(store)
	var recall float64
	for _, q := range queries {
		exact := flat.Search(q, 100, nil)
		hits := 0
		got := map[int]bool{}
		for _, r := range h.Search(q, 100, nil) {
			got[r.ID] = true
		}
		for _, r := range exact {
			if got[r.ID] {
				hits++
			}
		}
		recall += float64(hits) / float64(len(exact))
	}
	if recall /= float64(len(queries)); recall < 0.95 {
		b.Fatalf("recall@100 = %.4f < 0.95 on the smoke workload", recall)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Search(queries[i%len(queries)], 100, nil)
	}
}

// BenchmarkIndexFlatSearch is the exact-scan reference on the same store.
func BenchmarkIndexFlatSearch(b *testing.B) {
	store, queries := benchIndexSetup(b, 2000, 32)
	flat := index.NewFlat(store)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = flat.Search(queries[i%len(queries)], 100, nil)
	}
}

// BenchmarkIndexRecommend measures the end-to-end two-stage pipeline on the
// standard serving workload's model: ANN retrieve from the whole catalog,
// exclude seen, exact re-rank top-10.
func BenchmarkIndexRecommend(b *testing.B) {
	m, inst, _ := benchServingSetup(b)
	objects := make([]int, 2000) // serve.BenchWorkload's catalog
	for i := range objects {
		objects[i] = i
	}
	eng := seqfm.NewEngine(m, seqfm.EngineConfig{
		Index: &seqfm.IndexConfig{Objects: objects},
	})
	defer eng.Close()
	req := seqfm.RecommendRequest{Base: inst, K: 10}
	if _, err := eng.Recommend(req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Recommend(req); err != nil {
			b.Fatal(err)
		}
	}
}

// --- training-path benchmarks -------------------------------------------
//
// The training scenario behind the paper's Figure 4 efficiency claim: one
// BPR epoch draws 1+N candidates per positive, and the candidate-independent
// dynamic subgraph (dynamic view, dynamic linear/embedding halves, dynamic
// Q/K/V row-blocks of the cross view) is identical across those candidates.
// The sharded engine (train.Ranking) records it once per instance and
// backpropagates through it once, with per-worker tapes and gradient shards;
// the compiled engine runs the same split on a preallocated plan. Compare:
//
//	go test -bench='BenchmarkTrain' -benchmem
//
// EXPERIMENTS.md records reference numbers (including those of the removed
// per-candidate legacy engine) and seqfm-bench -mode train emits the
// machine-readable BENCH_train.json.

// benchTrainSetup builds the standard training-benchmark workload — a small
// synthetic check-in dataset and a SeqFM at the paper's default
// configuration {d=64, l=1, n.=20} — shared with seqfm-bench -mode train via
// train.BenchWorkload so BENCH_train.json stays comparable to these numbers.
func benchTrainSetup(b *testing.B) (*core.Model, *seqfm.Split) {
	b.Helper()
	m, split, err := train.BenchWorkload()
	if err != nil {
		b.Fatal(err)
	}
	return m, split
}

func benchTrainConfig(negatives, workers int) seqfm.TrainConfig {
	return train.BenchConfig(negatives, workers)
}

// BenchmarkTrainRankingEngine is the sharded candidate-sharing engine on one
// core.
func BenchmarkTrainRankingEngine(b *testing.B) {
	for _, n := range []int{1, 5, 10} {
		b.Run(benchName("neg", n), func(b *testing.B) {
			m, split := benchTrainSetup(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := train.Ranking(m, split, benchTrainConfig(n, 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainRankingEngineParallel adds worker fan-out on top of
// candidate sharing — the full training engine at GOMAXPROCS.
func BenchmarkTrainRankingEngineParallel(b *testing.B) {
	m, split := benchTrainSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := train.Ranking(m, split, benchTrainConfig(5, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainClassificationEngine covers the log-loss task (same
// candidate-sharing structure as ranking).
func BenchmarkTrainClassificationEngine(b *testing.B) {
	m, split := benchTrainSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := train.Classification(m, split, benchTrainConfig(5, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainRegressionEngine covers the squared-loss task (one candidate
// per instance: measures tape reuse and sharding alone).
func BenchmarkTrainRegressionEngine(b *testing.B) {
	m, split := benchTrainSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := train.Regression(m, split, benchTrainConfig(0, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- durability (WAL) benchmarks ----------------------------------------

// benchWALSetup drives the shared WAL-bench stream (online.DriveBenchLog —
// the same driver seqfm-bench -mode wal measures) into a temp log and
// returns it with the covering checkpoint, the substrate for the replay
// bench.
func benchWALSetup(b *testing.B, events int) (dir string, ckptBytes []byte, ds *seqfm.Dataset) {
	b.Helper()
	_, ds, err := online.BenchWorkload()
	if err != nil {
		b.Fatal(err)
	}
	dir = b.TempDir()
	log, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	ckptBytes, err = online.DriveBenchLog(log, events)
	if err != nil {
		b.Fatal(err)
	}
	return dir, ckptBytes, ds
}

// BenchmarkWALAppendGroupCommit measures durable ingest under the default
// pipelined group commit: concurrent appenders share each fsync cycle.
func BenchmarkWALAppendGroupCommit(b *testing.B) {
	log, err := wal.Open(b.TempDir(), wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	payload := wal.EncodeRecord(wal.Record{Type: wal.RecEvent, User: 1, Object: 2, Label: 1, TS: 1})
	b.ReportAllocs()
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := log.Append(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWALAppendFsyncEach is the per-event-fsync baseline the group
// commit is measured against (BENCH_wal.json's acceptance ratio).
func BenchmarkWALAppendFsyncEach(b *testing.B) {
	log, err := wal.Open(b.TempDir(), wal.Options{Policy: wal.SyncEach})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	payload := wal.EncodeRecord(wal.Record{Type: wal.RecEvent, User: 1, Object: 2, Label: 1, TS: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := log.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALReplay measures snapshot-covered recovery replay (rebuild
// histories, queues and sampling state; no re-training) and asserts the
// replay-throughput floor — a recovery path that cannot outrun ingest by a
// wide margin would turn every restart into an outage.
func BenchmarkWALReplay(b *testing.B) {
	const events = 2000
	dir, ckptBytes, ds := benchWALSetup(b, events)
	replayOnce := func() *online.ReplayStats {
		log, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone})
		if err != nil {
			b.Fatal(err)
		}
		defer log.Close()
		m, f, err := ckpt.Load(bytes.NewReader(ckptBytes))
		if err != nil {
			b.Fatal(err)
		}
		eng := serve.NewEngine(m, serve.Config{Workers: 1})
		defer eng.Close()
		l, err := online.NewLearnerFromSnapshot(m, f, ds, eng, online.Config{
			Train:     online.BenchTrainConfig(),
			BatchSize: 64,
			Log:       log,
		})
		if err != nil {
			b.Fatal(err)
		}
		st, err := l.ReplayLog()
		if err != nil {
			b.Fatal(err)
		}
		return &st
	}
	// Floor check on one timed pass before the measured loop.
	start := time.Now()
	st := replayOnce()
	rate := float64(st.Events) / time.Since(start).Seconds()
	if st.Events != events {
		b.Fatalf("replayed %d events, want %d", st.Events, events)
	}
	if rate < 20_000 {
		b.Fatalf("replay throughput %.0f events/s below the 20k floor", rate)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = replayOnce()
	}
}

// BenchmarkObsOverhead is the telemetry overhead guard: the warm
// single-worker top-K path bare (base) versus through the full per-request
// instrumentation a /v1/topk request pays — trace creation, context
// plumbing, stage recording, request counter, edge latency histogram
// (instrumented) — plus the hot recording path alone (record), which must
// not allocate. seqfm-bench -mode obs measures the same pair and CI holds
// the p50 ratio under 1.05 and the record path at 0 allocs/op.
func BenchmarkObsOverhead(b *testing.B) {
	m, inst, candidates := benchServingSetup(b)
	eng := seqfm.NewEngine(m, seqfm.EngineConfig{Workers: 1})
	defer eng.Close()
	req := seqfm.TopKRequest{Base: inst, Candidates: candidates, K: 10}
	_ = eng.TopK(req) // warm the caches

	reg := seqfm.NewMetricsRegistry()
	stageVec := reg.NewHistogramVec("bench_stage_seconds", "bench", "stage")
	latChild := reg.NewHistogramVec("bench_request_seconds", "bench", "endpoint").With("topk")
	reqChild := reg.NewCounterVec("bench_requests_total", "bench", "endpoint", "code").With("topk", "200")

	b.Run("base", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = eng.TopKOn(req)
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := seqfm.NewTrace("topk", stageVec)
			ctx := seqfm.WithTrace(context.Background(), tr)
			_, _ = eng.TopKOnCtx(ctx, req)
			reqChild.Add(1)
			latChild.Record(time.Since(tr.Start))
		}
	})
	b.Run("record", func(b *testing.B) {
		stageChild := stageVec.With("rank")
		if allocs := testing.AllocsPerRun(1000, func() {
			stageChild.Record(time.Microsecond)
			latChild.Record(time.Microsecond)
			reqChild.Add(1)
		}); allocs != 0 {
			b.Fatalf("hot recording path allocates: %.1f allocs/op, want 0", allocs)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stageChild.Record(time.Microsecond)
			reqChild.Add(1)
		}
	})
}
