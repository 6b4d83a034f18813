// Command seqfm-bench regenerates the paper's evaluation tables and figures
// on the synthetic stand-in datasets, and benchmarks the training and
// serving engines.
//
// Usage:
//
//	seqfm-bench -exp table2 -scale small
//	seqfm-bench -exp all   -scale tiny
//	seqfm-bench -mode train -out BENCH_train.json
//	seqfm-bench -mode serve -out BENCH_serve.json
//	seqfm-bench -mode index -out BENCH_index.json
//
// In the default -mode paper, experiments are: table1 (dataset statistics),
// table2 (ranking), table3 (classification), table4 (regression), table5
// (ablations), figure3 (hyperparameter sensitivity), figure4 (scalability),
// all. Scales: tiny (seconds), small (minutes, default), medium, full (paper
// sizes; hours of CPU).
//
// -mode train benchmarks one training epoch per task — the legacy
// per-candidate engine, the candidate-sharing sharded tape engine and the
// compiled plan engine at Negatives ∈ {1, 5, 10}, plus classification and
// regression — and writes the ns/op and allocs/op per task to a JSON file
// (default BENCH_train.json) so successive PRs leave a comparable perf
// trajectory. -quick restricts it to the tape-vs-compiled ranking pair at
// Negatives=5, the CI smoke configuration.
//
// -mode serve benchmarks the inference engine on the fixed serving workload
// (serve.BenchWorkload, identical to bench_test.go's BenchmarkServe* suite):
// cold and warm top-K at J=100, the mixed batch-score path, and the
// hot-swap-under-load scenario — top-K latency percentiles while a
// background publisher swaps model generations — writing BENCH_serve.json.
//
// -mode index benchmarks the candidate-retrieval subsystem: HNSW build
// time, query throughput, latency percentiles and recall@100 against the
// exact flat scan at 10k/100k/1M synthetic items across the efSearch
// sweep, plus the end-to-end scenario — Engine.Recommend (retrieve 1000
// from a 100k-object catalog + exact re-rank) against brute-force TopK
// over every object — writing BENCH_index.json.
//
// -mode wal benchmarks the durability subsystem: WAL ingest throughput
// under each fsync policy (per-event fsync vs group commit vs none — the
// group-commit economics), recovery-replay throughput with and without a
// covering snapshot, and follower catch-up speed — writing BENCH_wal.json.
//
// -mode traffic drives the assembled serving stack (experiment tier with a
// seqfm arm and an FM baseline arm, online learner, bounded admission) with
// the open-loop load generator (internal/traffic): per-endpoint latency
// percentiles at fixed offered rates, the maximum sustainable rate under
// the shed/p99 SLO via a geometric-ramp + bisection search, and a 2×
// overload run verifying explicit 429/503 shedding with a bounded admitted
// p99 — writing BENCH_traffic.json. It also scrapes the server's own
// /metrics after the uncontended run and cross-checks the series against
// the harness-observed counts and percentiles.
//
// -mode cluster benchmarks the sharded deployment layer: top-K read p50
// through the consistent-hash router tier versus hitting the owning shard
// directly (the hop overhead), failover time from killing a shard primary to
// the first feedback write the router accepts again (promotion via
// /v1/replica/promote plus map repoint plus fence-and-retry), and recovery
// of a 100k-event stream from the full log versus the state checkpoint +
// compacted suffix — writing BENCH_cluster.json.
//
// -mode obs is the telemetry overhead guard: the warm single-worker top-K
// p50 bare versus through the full per-request instrumentation (trace,
// stage histogram, request counter), plus ns/op and allocs/op of the hot
// recording path alone — writing BENCH_obs.json. CI fails the build when
// the p50 ratio exceeds 1.05 or the recording path allocates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"seqfm/internal/data"
	"seqfm/internal/experiments"
	"seqfm/internal/train"
)

func main() {
	var (
		mode    = flag.String("mode", "paper", "mode: paper (tables/figures) | train | serve | index | wal | traffic | obs | cluster (engine benchmarks)")
		exp     = flag.String("exp", "all", "experiment: table1|table2|table3|table4|table5|figure3|figure4|all")
		scale   = flag.String("scale", "small", "scale: tiny|small|medium|full")
		seed    = flag.Int64("seed", 7, "master random seed")
		workers = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		out     = flag.String("out", "BENCH_train.json", "output path for -mode train results")
		quick   = flag.Bool("quick", false, "-mode train: only the tape-vs-compiled ranking pair at neg=5 (CI smoke)")
	)
	flag.Parse()

	switch *mode {
	case "train", "serve", "index", "wal", "traffic", "obs", "cluster":
		// The engine benchmarks measure fixed workloads (see
		// train.BenchWorkload and serve.BenchWorkload) so successive
		// BENCH_*.json files stay diffable; tell the user if they tried to
		// vary them.
		outSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "out" {
				outSet = true
			}
			if f.Name == "seed" || f.Name == "workers" || f.Name == "scale" || f.Name == "exp" {
				fmt.Fprintf(os.Stderr,
					"seqfm-bench: -%s is ignored in -mode %s (fixed benchmark workload)\n", f.Name, *mode)
			}
		})
		outPath := *out
		bench := func(p string) error { return runTrainBench(p, *quick) }
		switch *mode {
		case "serve":
			bench = runServeBench
			if !outSet { // redirect only the train-oriented default, never an explicit -out
				outPath = "BENCH_serve.json"
			}
		case "index":
			bench = runIndexBench
			if !outSet {
				outPath = "BENCH_index.json"
			}
		case "wal":
			bench = runWALBench
			if !outSet {
				outPath = "BENCH_wal.json"
			}
		case "traffic":
			bench = runTrafficBench
			if !outSet {
				outPath = "BENCH_traffic.json"
			}
		case "obs":
			bench = runObsBench
			if !outSet {
				outPath = "BENCH_obs.json"
			}
		case "cluster":
			bench = runClusterBench
			if !outSet {
				outPath = "BENCH_cluster.json"
			}
		}
		if err := bench(outPath); err != nil {
			fmt.Fprintf(os.Stderr, "seqfm-bench: %v\n", err)
			os.Exit(1)
		}
		return
	case "paper":
	default:
		fmt.Fprintf(os.Stderr, "seqfm-bench: unknown mode %q\n", *mode)
		os.Exit(1)
	}

	p := experiments.ParamsFor(experiments.Scale(*scale))
	p.Seed = *seed
	p.Workers = *workers

	runs := strings.Split(*exp, ",")
	if *exp == "all" {
		runs = []string{"table1", "table2", "table3", "table4", "table5", "figure3", "figure4"}
	}

	outW := os.Stdout
	for _, r := range runs {
		start := time.Now()
		var err error
		switch strings.TrimSpace(r) {
		case "table1":
			_, err = experiments.Table1(outW, p)
		case "table2":
			_, err = experiments.Table2(outW, p)
		case "table3":
			_, err = experiments.Table3(outW, p)
		case "table4":
			_, err = experiments.Table4(outW, p)
		case "table5":
			_, err = experiments.Table5(outW, p)
		case "figure3":
			_, err = experiments.Figure3(outW, p, experiments.Figure3Values{})
		case "figure4":
			_, err = experiments.Figure4(outW, p)
		default:
			err = fmt.Errorf("unknown experiment %q", r)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "seqfm-bench: %s: %v\n", r, err)
			os.Exit(1)
		}
		fmt.Fprintf(outW, "  (%s completed in %.1fs)\n\n", r, time.Since(start).Seconds())
	}
}

// trainBenchEntry is one measured configuration of a one-epoch training run.
type trainBenchEntry struct {
	Task        string  `json:"task"`
	Engine      string  `json:"engine"` // "engine" (sharded tape) or "compiled" (plan)
	Negatives   int     `json:"negatives"`
	Workers     int     `json:"workers"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	SecPerEpoch float64 `json:"sec_per_epoch"`
}

// trainBenchReport is the BENCH_train.json schema.
type trainBenchReport struct {
	GeneratedAt string            `json:"generated_at"`
	GoMaxProcs  int               `json:"gomaxprocs"`
	Dataset     string            `json:"dataset"`
	Model       string            `json:"model"`
	Entries     []trainBenchEntry `json:"entries"`
}

// runTrainBench measures the exact workload of bench_test.go's
// BenchmarkTrain* suite (train.BenchWorkload/BenchConfig): one epoch per op,
// single worker, so the emitted numbers isolate the per-instance algorithmic
// cost from parallel fan-out and stay comparable to the go-test output.
// quick restricts the job list to the tape-vs-compiled ranking pair at
// Negatives=5, which is what CI's perf-smoke step measures.
func runTrainBench(outPath string, quick bool) error {
	// The JSON engine labels map onto train.Config.Engine: "compiled" is the
	// plan engine, "engine" the sharded tape.
	cfg := func(negatives int, engine string) train.Config {
		c := train.BenchConfig(negatives, 1)
		if engine == "compiled" {
			c.Engine = train.EngineCompiled
		}
		return c
	}

	// Each job gets a freshly initialised model (like bench_test.go's
	// sub-benchmarks): testing.Benchmark auto-calibrates its iteration
	// count, so a shared model would enter later jobs with a
	// machine-dependent number of absorbed epochs and the emitted numbers
	// would not be a reproducible function of the declared workload.
	type trainFn func(train.Model, *data.Split, train.Config) (*train.History, error)
	type job struct {
		task, engine string
		negatives    int
		fn           trainFn
	}
	var jobs []job
	if quick {
		jobs = []job{
			{"ranking", "engine", 5, train.Ranking},
			{"ranking", "compiled", 5, train.Ranking},
		}
	} else {
		for _, n := range []int{1, 5, 10} {
			jobs = append(jobs,
				job{"ranking", "engine", n, train.Ranking},
				job{"ranking", "compiled", n, train.Ranking},
			)
		}
		jobs = append(jobs,
			job{"classification", "engine", 5, train.Classification},
			job{"classification", "compiled", 5, train.Classification},
			job{"regression", "engine", 0, train.Regression},
			job{"regression", "compiled", 0, train.Regression},
		)
	}

	report := trainBenchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Dataset:     "poi-synth users=16 pois=300 len∈[12,24]",
		Model:       "seqfm d=64 l=1 n.=20",
	}
	for _, j := range jobs {
		m, split, err := train.BenchWorkload()
		if err != nil {
			return err
		}
		var benchErr error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := j.fn(m, split, cfg(j.negatives, j.engine)); err != nil {
					benchErr = err
					b.Fatal(err)
				}
			}
		})
		if benchErr != nil {
			return fmt.Errorf("%s/%s neg=%d: %w", j.task, j.engine, j.negatives, benchErr)
		}
		e := trainBenchEntry{
			Task:        j.task,
			Engine:      j.engine,
			Negatives:   j.negatives,
			Workers:     1,
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			SecPerEpoch: float64(res.NsPerOp()) / 1e9,
		}
		report.Entries = append(report.Entries, e)
		fmt.Printf("%-14s %-6s neg=%-2d  %.3fs/epoch  %d allocs/op\n",
			j.task, j.engine, j.negatives, e.SecPerEpoch, e.AllocsPerOp)
	}

	// Speedup summary: tape vs compiled, per negatives count.
	byKey := map[string]trainBenchEntry{}
	for _, e := range report.Entries {
		byKey[fmt.Sprintf("%s/%s/%d", e.Task, e.Engine, e.Negatives)] = e
	}
	for _, n := range []int{1, 5, 10} {
		g, okG := byKey[fmt.Sprintf("ranking/engine/%d", n)]
		c, okC := byKey[fmt.Sprintf("ranking/compiled/%d", n)]
		if okG && okC && c.NsPerOp > 0 {
			fmt.Printf("ranking neg=%-2d compiled speedup over tape:   %.2fx\n", n, float64(g.NsPerOp)/float64(c.NsPerOp))
		}
	}

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
