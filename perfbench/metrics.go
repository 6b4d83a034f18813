package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported number. BENCHMARK.json at the repository
// root lists the same names, units and directions; perfbench_test.go keeps
// them in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run (--trace 0) reports. Every
// workload reports every one of them, so each is defined for every workload:
//
//	setup_s       median build time of the workload's stack over repeated
//	              builds (see setupRepeats)
//	p50_ms        median duration of the workload's unit of work: a
//	              /v1/topk request sent by a lone closed-loop client, so
//	              timed with no other read in flight (serve-read,
//	              serve-write), or one training epoch (train-epoch)
//	rate_per_s    the workload's capacity: reads answered per second by
//	              closed-loop clients (serve-read; serve-write, with the
//	              feedback stream running), or training instances per
//	              second (train-epoch)
//	heap_mb       live heap after a forced GC at the end of the fixed-rate
//	              phase (serve-read, serve-write), or the median live heap
//	              over the training jobs (train-epoch)
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"rate_per_s", "1/s", "higher"},
	{"heap_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run (--trace 1) reports. A workload that
// does not exercise a layer reports 0 for it (serve-read has no WAL, online
// learner or trainer; train-epoch has no HTTP, engine or index). The first
// group are the workload-specific end-to-end numbers: they come from the
// untraced phase of the traced run, and live here because BENCHMARK.json's
// end-to-end set must be defined on every workload.
var perLayer = []metricDef{
	{"topk_p50_ms", "ms", "lower"},
	{"topk_p99_ms", "ms", "lower"},
	{"recommend_p50_ms", "ms", "lower"},
	{"recommend_p99_ms", "ms", "lower"},
	{"score_p50_ms", "ms", "lower"},
	{"feedback_p50_ms", "ms", "lower"},
	{"feedback_p99_ms", "ms", "lower"},
	{"freshness_p50_ms", "ms", "lower"},
	{"hr_at_10", "ratio", "higher"},
	{"failed_frac", "ratio", "lower"},
	{"read_slo_rps", "1/s", "higher"},

	{"httpapi.edge_self_us.topk", "us", "lower"},
	{"httpapi.edge_self_us.recommend", "us", "lower"},
	{"httpapi.edge_self_us.score", "us", "lower"},
	{"httpapi.edge_self_us.feedback", "us", "lower"},
	{"httpapi.admission_wait_ms", "ms", "lower"},
	{"httpapi.shed", "count", "lower"},
	{"serve.topk_self_us", "us", "lower"},
	{"serve.dyn_hit_ratio", "ratio", "higher"},
	{"serve.static_hit_ratio", "ratio", "higher"},
	{"serve.swap_ms", "ms", "lower"},
	{"serve.allocs_per_topk", "count", "lower"},
	{"index.search_us", "us", "lower"},
	{"index.build_ms", "ms", "lower"},
	{"index.recall_at_100", "ratio", "higher"},
	{"plan.dynamic_us", "us", "lower"},
	{"plan.candidate_us", "us", "lower"},
	{"plan.compile_ms", "ms", "lower"},
	{"plan.madds_per_candidate", "count", "lower"},
	{"plan.candidate_gmadds_per_s", "1e9/s", "higher"},
	{"train.forward_ms", "ms", "lower"},
	{"train.backward_ms", "ms", "lower"},
	{"train.optim_ms", "ms", "lower"},
	{"train.allocs_per_step", "count", "lower"},
	{"train.scaling_ratio", "ratio", "lower"},
	{"online.step_ms", "ms", "lower"},
	{"online.publish_ms", "ms", "lower"},
	{"online.events_per_step", "count", "higher"},
	{"online.dropped", "count", "lower"},
	{"wal.fsync_ms", "ms", "lower"},
	{"wal.records_per_fsync", "count", "higher"},
	{"wal.bytes_per_event", "B", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"gen.lag_p99_ms", "ms", "lower"},
	{"trace.coverage.topk", "ratio", "higher"},
	{"trace.coverage.recommend", "ratio", "higher"},
	{"trace.coverage.train_step", "ratio", "higher"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// result is one workload run's outcome.
type result struct {
	// violations lists failed output checks; empty means correct.
	violations []string
	attempted  int64
	failed     int64
	// values holds every measured metric by name, end-to-end and per-layer.
	values map[string]float64
}

func newResult() *result { return &result{values: map[string]float64{}} }

// check records a violation unless ok holds.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line renders the result as the one-line JSON object the run ends with:
// the end-to-end metrics for an untraced run, the per-layer ones for a
// traced run. Metrics the workload did not measure read 0.
func (r *result) line(traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := resultLine{
		Correct:   len(r.violations) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return json.Marshal(out)
}

// samples is a set of latency observations with exact order statistics.
type samples []time.Duration

// quantile returns the q-quantile by linear interpolation between the two
// nearest ranks (0 for an empty set).
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	pos := q * float64(len(c)-1)
	lo := int(pos)
	if lo >= len(c)-1 {
		return c[len(c)-1]
	}
	frac := pos - float64(lo)
	return c[lo] + time.Duration(frac*float64(c[lo+1]-c[lo]))
}

// tailPercentile is the highest of the conventional percentiles that has at
// least ten observations beyond it — the tail a sample of n can support.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianFloat returns the median of xs (0 for none).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report prints the human-readable table of every measured metric.
func (r *result) report(workload string) string {
	var b strings.Builder
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	fmt.Fprintf(&b, "%s: attempted=%d failed=%d\n", workload, r.attempted, r.failed)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-34s %14.4f %s\n", n, r.values[n], units[n])
	}
	for _, v := range r.violations {
		fmt.Fprintf(&b, "  CHECK FAILED: %s\n", v)
	}
	return b.String()
}
