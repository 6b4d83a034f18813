// Command perfbench is seqfm's end-to-end benchmark. It assembles the
// serving stack or the training loop in-process, runs one named workload
// against it, checks the outputs, and ends with one JSON line of metrics:
//
//	perfbench --workload serve-read --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload, then replays a sample of its inputs with a span around each of
// the benchmark's calls into a layer, and reports the per-layer metrics.
// --workload all runs every workload in turn and fails if any check fails.
// See README.md for the workloads, the metrics and what moves them.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// workdir receives span dumps; tmp, a fresh directory under it, holds
	// the run's WAL and is removed at exit.
	workdir, tmp string
}

var workloads = map[string]func(options) (*result, error){
	"serve-read":  func(o options) (*result, error) { return runServe(o, serveWorkload{fixedRate: 150}) },
	"serve-write": func(o options) (*result, error) { return runServe(o, serveWorkload{fixedRate: 40, feedbackRate: 20}) },
	"train-epoch": runTrain,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: serve-read, serve-write, train-epoch or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds per workload")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced replay")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for span dumps and temporary files")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 || o.seed == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --seed non-zero")
		os.Exit(2)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	ok := true
	for _, n := range names {
		o.workload = n
		good, err := runOne(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		ok = ok && good
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload and prints its result line; it reports whether
// every output check passed.
func runOne(o options) (bool, error) {
	run, found := workloads[o.workload]
	if !found {
		return false, fmt.Errorf("unknown workload (want serve-read, serve-write, train-epoch or all)")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return false, err
	}
	tmp, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	o.tmp = tmp
	fmt.Fprintf(os.Stderr, "perfbench %s: seed=%d seconds=%d trace=%v GOMAXPROCS=%d\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0))
	res, err := run(o)
	if err != nil {
		return false, err
	}
	fmt.Fprint(os.Stderr, res.report(o.workload))
	line, err := res.line(o.trace)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return len(res.violations) == 0, nil
}
