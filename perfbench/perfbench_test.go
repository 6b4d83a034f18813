package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"seqfm/internal/core"
)

// TestPlanIsDeterministicInSeed builds the dataset, the model and the
// retrieved candidate lists afresh for every plan, so the whole chain from
// seed to request bodies is covered.
func TestPlanIsDeterministicInSeed(t *testing.T) {
	plan := func(seed int64) []request {
		ds, err := poiStandIn(5, 50, 300)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(ds.Space())
		cfg.Seed = 5
		m, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := &planner{ds: ds, cands: retrievalCandidates(m, ds)}
		reads, err := p.plan(seed, 200, time.Second, readMix)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := p.plan(seed+1, 100, time.Second, feedbackMix)
		if err != nil {
			t.Fatal(err)
		}
		return merge(reads, fb)
	}
	a, b, c := plan(9), plan(9), plan(10)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("plans of one seed have %d and %d requests", len(a), len(b))
	}
	for i := range a {
		if a[i].at != b[i].at || a[i].kind != b[i].kind || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = bytes.Equal(a[i].body, c[i].body)
	}
	if same {
		t.Fatal("seeds 9 and 10 planned identical requests")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric's name and unit, and that
// BENCHMARK.json at the repository root lists exactly these metrics.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("metric %q unit %q better %q malformed", d.name, d.unit, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		defs   []metricDef
		listed []struct{ Name, Unit, Better string }
	}{{endToEnd, bench.EndToEnd}, {perLayer, bench.PerLayer}} {
		if len(c.defs) != len(c.listed) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.listed), len(c.defs))
		}
		for i, d := range c.defs {
			if l := c.listed[i]; l.Name != d.name || l.Unit != d.unit || l.Better != d.better {
				t.Errorf("BENCHMARK.json metric %d is %s (%s, %s), want %s (%s, %s)", i, l.Name, l.Unit, l.Better, d.name, d.unit, d.better)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) has a nested child a [10,40) with grandchild c [15,25),
	// and a replayed child b [120,150) that ran after it.
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "c", Start: 15, End: 25},
		{ID: 4, Parent: 1, Name: "b", Start: 120, End: 150},
		{ID: 5, Name: "root", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 40, 2: 20, 3: 10, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self(%d) = %d, want %d", id, self[id], want)
		}
	}
	cov := coverage(spans, "root")
	if len(cov) != 2 || cov[0] != 0.6 || cov[1] != 0 {
		t.Errorf("coverage = %v, want [0.6 0]", cov)
	}
}

// TestTraceEngineSelfTimes records one request the way the serving replay
// does, on a clock the calls advance by hand. The served request (100) is
// 10 of edge work plus the engine's 90: 30 of its own, 20 recomputing a
// dynamic-state miss and 15 recomputing static-view misses, and 25 of warm
// plan calls. The replayed engine call runs on warm caches (55 = 30 + 25);
// the misses are recomputed inside its span and the warm plan call is
// replayed after it. Root minus engine must leave the edge's 10, and the
// engine span minus its children the engine's own 30.
func TestTraceEngineSelfTimes(t *testing.T) {
	var now time.Duration
	tr := &tracer{clock: func() time.Duration { return now }}
	advance := func(d time.Duration) func() { return func() { now += d } }
	root := tr.begin("httpapi.ServeHTTP.topk", 0, 1)
	advance(100)()
	tr.end(root)
	tr.traceEngine(root, 1, "serve.TopKOn", engineCalls{
		engine: advance(55),
		misses: []namedCall{{"plan.PrecomputeDynamic", advance(20)}, {"plan.StaticView", advance(15)}},
		warm:   []namedCall{{"plan.ScoreFast", advance(25)}},
	})
	self := selfTimes(tr.spans)
	want := map[string]time.Duration{
		"httpapi.ServeHTTP.topk": 10, "serve.TopKOn": 30,
		"plan.PrecomputeDynamic": 20, "plan.StaticView": 15, "plan.ScoreFast": 25,
	}
	if len(tr.spans) != len(want) {
		t.Fatalf("%d spans, want %d: %+v", len(tr.spans), len(want), tr.spans)
	}
	for _, s := range tr.spans {
		if self[s.ID] != want[s.Name] {
			t.Errorf("self(%s) = %d, want %d", s.Name, self[s.ID], want[s.Name])
		}
		if s.Name != "httpapi.ServeHTTP.topk" && s.Req != 1 {
			t.Errorf("span %s has request %d", s.Name, s.Req)
		}
	}
	if cov := coverage(tr.spans, "httpapi.ServeHTTP.topk"); len(cov) != 1 || cov[0] != 0.9 {
		t.Errorf("coverage = %v, want [0.9]", cov)
	}
}

// TestHeldOutSeed runs every workload, traced, on a seed no tuning used and
// requires every output check to pass.
func TestHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := run(options{workload: name, seed: 977, seconds: 2, trace: true, workdir: dir, tmp: dir})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.violations {
				t.Error(v)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
			}
		})
	}
}
