package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"seqfm/internal/core"
	"seqfm/internal/feature"
	"seqfm/internal/serve"
)

// serveBenchEntry is one measured serving configuration.
type serveBenchEntry struct {
	Name        string `json:"name"`
	Engine      string `json:"engine"` // always "compiled": SeqFM serves through its plan
	Workers     int    `json:"workers"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
}

// swapBenchEntry records the hot-swap-under-load scenario: top-K latency
// percentiles with and without a background publisher swapping generations.
type swapBenchEntry struct {
	Requests     int     `json:"requests"`
	Swaps        int64   `json:"swaps"`
	SteadyP50Us  float64 `json:"steady_p50_us"`
	SteadyP99Us  float64 `json:"steady_p99_us"`
	SwappingP50A float64 `json:"swapping_p50_us"`
	SwappingP99A float64 `json:"swapping_p99_us"`
	P50Ratio     float64 `json:"p50_ratio"` // swapping / steady (see EXPERIMENTS.md: the bar is on absolute swapping p50)
}

// serveBenchReport is the BENCH_serve.json schema.
type serveBenchReport struct {
	GeneratedAt string            `json:"generated_at"`
	GoMaxProcs  int               `json:"gomaxprocs"`
	Workload    string            `json:"workload"`
	Entries     []serveBenchEntry `json:"entries"`
	HotSwap     swapBenchEntry    `json:"hot_swap"`
}

// runServeBench measures the exact workload of bench_test.go's
// BenchmarkServe* suite (serve.BenchWorkload): top-K over J=100 candidates
// at the paper's default model configuration.
func runServeBench(outPath string) error {
	report := serveBenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Workload:    fmt.Sprintf("space=1000x2000 seqfm d=64 l=1 n.=20 J=%d", serve.BenchJ),
	}

	type job struct {
		name    string
		workers int
		run     func(b *testing.B, m *core.Model, inst feature.Instance, candidates []int)
	}
	jobs := []job{
		{"topk_cold_single", 1, func(b *testing.B, m *core.Model, inst feature.Instance, candidates []int) {
			// Fresh engine per op: no cache warmth, no parallelism — the
			// algorithmic win of the shared dynamic view alone.
			ecfg := serve.Config{Workers: 1, StaticCacheSize: -1, DynCacheSize: -1}
			req := serve.TopKRequest{Base: inst, Candidates: candidates, K: 10}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := serve.NewEngine(m, ecfg)
				_ = eng.TopK(req)
				eng.Close()
			}
		}},
		{"topk_warm_single", 1, func(b *testing.B, m *core.Model, inst feature.Instance, candidates []int) {
			eng := serve.NewEngine(m, serve.Config{Workers: 1})
			defer eng.Close()
			req := serve.TopKRequest{Base: inst, Candidates: candidates, K: 10}
			_ = eng.TopK(req)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = eng.TopK(req)
			}
		}},
		{"topk_warm_parallel", 0, func(b *testing.B, m *core.Model, inst feature.Instance, candidates []int) {
			eng := serve.NewEngine(m, serve.Config{})
			defer eng.Close()
			req := serve.TopKRequest{Base: inst, Candidates: candidates, K: 10}
			_ = eng.TopK(req)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = eng.TopK(req)
			}
		}},
		{"score_batch", 0, func(b *testing.B, m *core.Model, inst feature.Instance, candidates []int) {
			eng := serve.NewEngine(m, serve.Config{})
			defer eng.Close()
			insts := make([]feature.Instance, len(candidates))
			for i, c := range candidates {
				ci := inst
				ci.Target = c
				ci.Hist = append(append([]int{}, inst.Hist...), c) // distinct history per instance
				insts[i] = ci
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = eng.ScoreBatch(insts)
			}
		}},
	}

	m, inst, candidates, err := serve.BenchWorkload()
	if err != nil {
		return err
	}
	for _, j := range jobs {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			j.run(b, m, inst, candidates)
		})
		workers := j.workers
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		e := serveBenchEntry{
			Name: j.name, Engine: serve.EngineCompiled, Workers: workers,
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		report.Entries = append(report.Entries, e)
		fmt.Printf("%-24s workers=%-2d  %8.3fms/op  %d allocs/op\n",
			j.name, workers, float64(e.NsPerOp)/1e6, e.AllocsPerOp)
	}

	hs, err := runHotSwapBench(m, inst, candidates)
	if err != nil {
		return err
	}
	report.HotSwap = hs
	fmt.Printf("hot-swap: steady p50=%.1fµs p99=%.1fµs | swapping p50=%.1fµs p99=%.1fµs (%d swaps) → p50 ratio %.2fx\n",
		hs.SteadyP50Us, hs.SteadyP99Us, hs.SwappingP50A, hs.SwappingP99A, hs.Swaps, hs.P50Ratio)

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

// runHotSwapBench measures per-request top-K latency twice on one warmed
// engine — steady state, then with a background publisher hot-swapping model
// clones every 2ms — and reports the percentile shift. The acceptance bar
// for the RCU snapshot design is on absolute swapping p50 (EXPERIMENTS.md):
// compiled serving shrank the steady-state denominator 2.5×, so the ratio
// alone overstates the swap cost.
func runHotSwapBench(m *core.Model, inst feature.Instance, candidates []int) (swapBenchEntry, error) {
	const requests = 300
	eng := serve.NewEngine(m, serve.Config{})
	defer eng.Close()
	req := serve.TopKRequest{Base: inst, Candidates: candidates, K: 10}
	for i := 0; i < 3; i++ { // warm caches and the plan's exec pool
		_ = eng.TopK(req)
	}

	measure := func() []time.Duration {
		lat := make([]time.Duration, requests)
		for i := range lat {
			start := time.Now()
			_ = eng.TopK(req)
			lat[i] = time.Since(start)
		}
		return lat
	}

	steady := measure()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		cur := m
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			next := cur.Clone()
			next.Params()[0].Value.Data[0] += 1e-9
			eng.Swap(next)
			cur = next
		}
	}()
	swapsBefore := eng.Stats().Swaps
	swapping := measure()
	swaps := eng.Stats().Swaps - swapsBefore
	close(stop)
	<-done

	e := swapBenchEntry{
		Requests:     requests,
		Swaps:        swaps,
		SteadyP50Us:  pctUs(steady, 0.50),
		SteadyP99Us:  pctUs(steady, 0.99),
		SwappingP50A: pctUs(swapping, 0.50),
		SwappingP99A: pctUs(swapping, 0.99),
	}
	if e.SteadyP50Us > 0 {
		e.P50Ratio = e.SwappingP50A / e.SteadyP50Us
	}
	return e, nil
}
