package serve

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"seqfm/internal/ag"
	"seqfm/internal/core"
	"seqfm/internal/feature"
)

func testModel(t testing.TB) *core.Model {
	t.Helper()
	cfg := core.Config{
		Space:     feature.Space{NumUsers: 12, NumObjects: 30},
		Dim:       8,
		Layers:    1,
		MaxSeqLen: 6,
		KeepProb:  1,
		Seed:      5,
	}
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// refScore is the ground truth: a fresh inference tape per instance.
func refScore(m Scorer, inst feature.Instance) float64 {
	return m.Score(ag.NewTape(), inst).Value.ScalarValue()
}

func testInstances(n int, seed int64) []feature.Instance {
	rng := rand.New(rand.NewSource(seed))
	insts := make([]feature.Instance, n)
	for i := range insts {
		hist := make([]int, rng.Intn(9))
		for j := range hist {
			hist[j] = rng.Intn(30)
		}
		insts[i] = feature.Instance{
			User:       rng.Intn(12),
			Target:     rng.Intn(30),
			Hist:       hist,
			UserAttr:   feature.Pad,
			TargetAttr: feature.Pad,
		}
	}
	return insts
}

func TestScoreBatchMatchesScoreBitForBit(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{Workers: 3})
	defer e.Close()
	insts := testInstances(64, 1)
	// Run twice: the second pass is served from warm caches and must not
	// drift by a single bit.
	for pass := 0; pass < 2; pass++ {
		got := e.ScoreBatch(insts)
		for i, inst := range insts {
			if want := refScore(m, inst); got[i] != want {
				t.Fatalf("pass %d inst %d: ScoreBatch=%v, Score=%v", pass, i, got[i], want)
			}
		}
	}
	if s := e.Stats(); s.StaticHits == 0 || s.DynHits == 0 {
		t.Errorf("warm pass produced no cache hits: %+v", s)
	}
}

// plainScorer hides core.Model's FastScorer methods so the engine exercises
// its generic (cache-less) path — the one every baseline model takes.
type plainScorer struct{ m *core.Model }

func (p plainScorer) Score(t *ag.Tape, inst feature.Instance) *ag.Node {
	return p.m.Score(t, inst)
}

func TestScoreBatchGenericScorerPath(t *testing.T) {
	m := testModel(t)
	e := NewEngine(plainScorer{m}, Config{Workers: 2})
	defer e.Close()
	insts := testInstances(16, 2)
	got := e.ScoreBatch(insts)
	for i, inst := range insts {
		if want := refScore(m, inst); got[i] != want {
			t.Fatalf("inst %d: generic ScoreBatch=%v, Score=%v", i, got[i], want)
		}
	}
	if s := e.Stats(); s.DynMisses != 0 || s.StaticMisses != 0 {
		t.Errorf("generic path touched the fast caches: %+v", s)
	}
}

func TestTopKOrderingAndTruncation(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{})
	defer e.Close()
	base := feature.Instance{User: 3, Hist: []int{1, 2, 3}, UserAttr: feature.Pad, TargetAttr: feature.Pad}
	candidates := make([]int, 30)
	for i := range candidates {
		candidates[i] = i
	}
	all := e.TopK(TopKRequest{Base: base, Candidates: candidates})
	if len(all) != len(candidates) {
		t.Fatalf("K<=0 returned %d items, want %d", len(all), len(candidates))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Score < all[i].Score {
			t.Fatalf("items out of order at %d: %v then %v", i, all[i-1], all[i])
		}
	}
	top5 := e.TopK(TopKRequest{Base: base, Candidates: candidates, K: 5})
	if len(top5) != 5 {
		t.Fatalf("K=5 returned %d items", len(top5))
	}
	for i, it := range top5 {
		if it != all[i] {
			t.Fatalf("top5[%d]=%v, want %v", i, it, all[i])
		}
	}
	// Every score must match the per-instance reference.
	for _, it := range all {
		inst := base
		inst.Target = it.Object
		if want := refScore(m, inst); it.Score != want {
			t.Fatalf("object %d: TopK score=%v, Score=%v", it.Object, it.Score, want)
		}
	}
}

func TestTopKAttrOf(t *testing.T) {
	cfg := core.Config{
		Space:     feature.Space{NumUsers: 4, NumObjects: 10, NumItemAttrs: 3},
		Dim:       6,
		Layers:    1,
		MaxSeqLen: 4,
		KeepProb:  1,
		Seed:      6,
	}
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attr := func(o int) int { return o % 3 }
	e := NewEngine(m, Config{})
	defer e.Close()
	base := feature.Instance{User: 1, Hist: []int{4, 5}, UserAttr: feature.Pad}
	items := e.TopK(TopKRequest{Base: base, Candidates: []int{0, 1, 2, 7}, AttrOf: attr})
	for _, it := range items {
		inst := base
		inst.Target = it.Object
		inst.TargetAttr = attr(it.Object)
		if want := refScore(m, inst); it.Score != want {
			t.Fatalf("object %d: score=%v, want %v (AttrOf ignored?)", it.Object, it.Score, want)
		}
	}
}

func TestScoreAccumulatorBatchesConcurrentRequests(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{BatchSize: 8, MaxDelay: 50 * time.Millisecond})
	defer e.Close()
	insts := testInstances(32, 3)
	got := make([]float64, len(insts))
	var wg sync.WaitGroup
	for i := range insts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = e.Score(insts[i])
		}(i)
	}
	wg.Wait()
	for i, inst := range insts {
		if want := refScore(m, inst); got[i] != want {
			t.Fatalf("inst %d: accumulated Score=%v, want %v", i, got[i], want)
		}
	}
	s := e.Stats()
	if s.Flushes == 0 {
		t.Error("no accumulator flushes recorded")
	}
	if s.Flushes >= int64(len(insts)) {
		t.Errorf("accumulator never batched: %d flushes for %d requests", s.Flushes, len(insts))
	}
}

func TestScoreDeadlineFlush(t *testing.T) {
	m := testModel(t)
	// BatchSize far above the request count: only the MaxDelay timer can
	// release the single request.
	e := NewEngine(m, Config{BatchSize: 1024, MaxDelay: 5 * time.Millisecond})
	defer e.Close()
	inst := testInstances(1, 4)[0]
	done := make(chan float64, 1)
	go func() { done <- e.Score(inst) }()
	select {
	case got := <-done:
		if want := refScore(m, inst); got != want {
			t.Fatalf("Score=%v, want %v", got, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("deadline flush never fired")
	}
}

func TestScoreUnbatchedMode(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{BatchSize: 1})
	defer e.Close()
	inst := testInstances(1, 5)[0]
	if got, want := e.Score(inst), refScore(m, inst); got != want {
		t.Fatalf("unbatched Score=%v, want %v", got, want)
	}
	if s := e.Stats(); s.Flushes != 0 {
		t.Errorf("unbatched mode used the accumulator: %+v", s)
	}
}

func TestConcurrentMixedTraffic(t *testing.T) {
	// Race-detector workout: batches, top-K and singles in flight at once,
	// all hitting the shared caches and tape pool.
	m := testModel(t)
	e := NewEngine(m, Config{Workers: 4, BatchSize: 4, MaxDelay: time.Millisecond})
	defer e.Close()
	insts := testInstances(24, 6)
	want := make([]float64, len(insts))
	for i, inst := range insts {
		want[i] = refScore(m, inst)
	}
	candidates := []int{0, 3, 7, 11, 19}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				switch (g + r) % 3 {
				case 0:
					got := e.ScoreBatch(insts)
					for i := range insts {
						if got[i] != want[i] {
							t.Errorf("batch inst %d: %v != %v", i, got[i], want[i])
							return
						}
					}
				case 1:
					base := insts[(g+r)%len(insts)]
					e.TopK(TopKRequest{Base: base, Candidates: candidates, K: 3})
				default:
					i := (g * 5) % len(insts)
					if got := e.Score(insts[i]); got != want[i] {
						t.Errorf("single inst %d: %v != %v", i, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestInvalidateCachesAfterWeightUpdate(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{})
	defer e.Close()
	insts := testInstances(8, 7)
	e.ScoreBatch(insts)
	if s := e.Stats(); s.StaticEntries == 0 || s.DynEntries == 0 {
		t.Fatalf("caches empty after a batch: %+v", s)
	}
	// Perturb weights: cached vectors are now stale. Params()[0] is the
	// global bias; the cross view's query weights and a static embedding row
	// also feed the plan's memoised cross-view row projections, which must
	// not survive InvalidateCaches either.
	m.Params()[0].Value.Data[0] += 0.5
	spec := m.Spec()
	for j := range spec.AttnX.WQ.Value.Data {
		spec.AttnX.WQ.Value.Data[j] += 0.05 * float64(j%7-3)
	}
	row := spec.EmbS.Value.Row(insts[0].User)
	for j := range row {
		row[j] += 0.3
	}
	e.InvalidateCaches()
	if s := e.Stats(); s.StaticEntries != 0 || s.DynEntries != 0 {
		t.Fatalf("InvalidateCaches left entries: %+v", s)
	}
	got := e.ScoreBatch(insts)
	for i, inst := range insts {
		if want := refScore(m, inst); got[i] != want {
			t.Fatalf("inst %d after invalidate: %v != %v", i, got[i], want)
		}
	}
}

func TestCachesDisabled(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{StaticCacheSize: -1, DynCacheSize: -1})
	defer e.Close()
	insts := testInstances(8, 8)
	for pass := 0; pass < 2; pass++ {
		got := e.ScoreBatch(insts)
		for i, inst := range insts {
			if want := refScore(m, inst); got[i] != want {
				t.Fatalf("pass %d inst %d: %v != %v", pass, i, got[i], want)
			}
		}
	}
	if s := e.Stats(); s.StaticEntries != 0 || s.DynEntries != 0 || s.StaticHits != 0 {
		t.Errorf("disabled caches stored entries: %+v", s)
	}
}

func TestCloseFlushesAndStaysUsable(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{BatchSize: 1024, MaxDelay: time.Hour})
	inst := testInstances(1, 9)[0]
	done := make(chan float64, 1)
	go func() { done <- e.Score(inst) }()
	// Wait until the request is parked in the accumulator.
	for i := 0; ; i++ {
		e.mu.Lock()
		n := len(e.pending)
		e.mu.Unlock()
		if n == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("request never reached the accumulator")
		}
		time.Sleep(time.Millisecond)
	}
	e.Close()
	if got, want := <-done, refScore(m, inst); got != want {
		t.Fatalf("flushed-on-close Score=%v, want %v", got, want)
	}
	// Post-Close traffic bypasses the accumulator but still works.
	if got, want := e.Score(inst), refScore(m, inst); got != want {
		t.Fatalf("post-Close Score=%v, want %v", got, want)
	}
}

func TestFifoCacheEviction(t *testing.T) {
	c := newFifoCache[int, int](2)
	c.put(1, 10)
	c.put(2, 20)
	c.put(3, 30) // evicts 1
	if _, ok := c.get(1); ok {
		t.Error("oldest entry not evicted")
	}
	if v, ok := c.get(2); !ok || v != 20 {
		t.Error("entry 2 lost")
	}
	if v, ok := c.get(3); !ok || v != 30 {
		t.Error("entry 3 missing")
	}
	c.put(4, 40) // evicts 2
	if _, ok := c.get(2); ok {
		t.Error("entry 2 should be evicted second")
	}
	if c.len() != 2 {
		t.Errorf("len=%d, want 2", c.len())
	}
}

func TestNilCachesAreMissing(t *testing.T) {
	var f *fifoCache[int, int]
	var l *lruCache[int, int]
	for _, c := range []cache[int, int]{f, l, newCache[int, int](CacheLRU, -1)} {
		if _, ok := c.get(1); ok {
			t.Error("nil cache returned a hit")
		}
		c.put(1, 1) // must not panic
		if c.len() != 0 {
			t.Error("nil cache has entries")
		}
	}
}

func TestLruCacheTouchOnHitKeepsHotEntries(t *testing.T) {
	c := newLruCache[int, int](2)
	c.put(1, 10)
	c.put(2, 20)
	c.get(1)     // touch: 2 becomes the eviction candidate
	c.put(3, 30) // evicts 2, not 1
	if _, ok := c.get(1); !ok {
		t.Error("hot entry evicted despite touch-on-hit")
	}
	if _, ok := c.get(2); ok {
		t.Error("cold entry survived")
	}
	if v, ok := c.get(3); !ok || v != 30 {
		t.Error("newest entry lost")
	}
	// Re-put promotes and replaces without growing.
	c.put(1, 11)
	if v, _ := c.get(1); v != 11 {
		t.Error("re-put did not replace value")
	}
	if c.len() != 2 {
		t.Errorf("len=%d, want 2", c.len())
	}
}

// TestLruBeatsFifoOnSkewedTraffic pins the satellite claim behind the LRU
// upgrade: under a skewed reference stream with a working set larger than
// the cache, touch-on-hit retains the hot keys that FIFO ages out.
func TestLruBeatsFifoOnSkewedTraffic(t *testing.T) {
	const capacity, universe, rounds = 8, 64, 400
	hits := func(c cache[int, int]) int {
		h := 0
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < rounds; i++ {
			// 4 hot keys touched every round; a marching cold key stream.
			keys := []int{0, 1, 2, 3, 8 + (i % (universe - 8)), 8 + ((i * 7) % (universe - 8)), rng.Intn(universe)}
			for _, k := range keys {
				if _, ok := c.get(k); ok {
					h++
				} else {
					c.put(k, k)
				}
			}
		}
		return h
	}
	lru := hits(newLruCache[int, int](capacity))
	fifo := hits(newFifoCache[int, int](capacity))
	if lru <= fifo {
		t.Errorf("LRU hits %d not above FIFO hits %d on skewed traffic", lru, fifo)
	}
}

// perturb nudges the global bias w0 (Params()[0]) so successive generations
// score every instance differently.
func perturb(m *core.Model, step int) {
	m.Params()[0].Value.Data[0] += 0.25 + float64(step)*0.01
}

func TestSwapPublishesNewWeights(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{})
	defer e.Close()
	if e.Generation() != 1 {
		t.Fatalf("fresh engine at generation %d", e.Generation())
	}
	inst := testInstances(1, 10)[0]
	before := e.Score(inst)

	m2 := m.Clone()
	perturb(m2, 0)
	gen := e.Swap(m2)
	if gen != 2 || e.Generation() != 2 {
		t.Fatalf("generation after swap: %d/%d", gen, e.Generation())
	}
	after := e.Score(inst)
	if want := refScore(m2, inst); after != want {
		t.Fatalf("post-swap score %v, want %v", after, want)
	}
	if after == before {
		t.Fatal("swap did not change served weights")
	}
	if got := e.Model(); got != Scorer(m2) {
		t.Fatal("Model() is not the swapped model")
	}
	if s := e.Stats(); s.Swaps != 1 || s.Generation != 2 {
		t.Fatalf("stats after swap: %+v", s)
	}
}

// TestSwapDropsCachesPerGeneration: entries cached under one generation must
// never serve another — the caches live inside the snapshot.
func TestSwapDropsCachesPerGeneration(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{})
	defer e.Close()
	insts := testInstances(8, 11)
	e.ScoreBatch(insts)
	if s := e.Stats(); s.StaticEntries == 0 || s.DynEntries == 0 {
		t.Fatalf("caches empty after a batch: %+v", s)
	}
	m2 := m.Clone()
	perturb(m2, 1)
	e.Swap(m2)
	if s := e.Stats(); s.StaticEntries != 0 || s.DynEntries != 0 {
		t.Fatalf("swap leaked cache entries into the new generation: %+v", s)
	}
	got := e.ScoreBatch(insts)
	for i, inst := range insts {
		if want := refScore(m2, inst); got[i] != want {
			t.Fatalf("inst %d served stale generation: %v != %v", i, got[i], want)
		}
	}
}

// TestHotSwapUnderLoadBitIdentical is the serving half of the hot-swap
// stress contract (the online package adds the trainer): goroutines hammer
// TopKOn while another goroutine swaps perturbed clones, and every response
// must be bit-identical to a fresh-tape Score under the generation that
// served it. Run with -race.
func TestHotSwapUnderLoadBitIdentical(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{Workers: 2})
	defer e.Close()

	var models sync.Map // generation id → *core.Model
	models.Store(e.Generation(), m)

	const swapsTotal = 12
	stop := make(chan struct{})
	var swapperDone sync.WaitGroup
	swapperDone.Add(1)
	go func() {
		defer swapperDone.Done()
		cur := m
		for i := 1; i <= swapsTotal; i++ {
			next := cur.Clone()
			perturb(next, i)
			// Register before publishing so readers can always resolve the
			// generation they observe.
			models.Store(e.Generation()+1, next)
			e.Swap(next)
			cur = next
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()

	base := feature.Instance{User: 2, Hist: []int{3, 1, 4}, UserAttr: feature.Pad, TargetAttr: feature.Pad}
	candidates := []int{0, 5, 9, 14, 21, 28}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 40; r++ {
				items, gen := e.TopKOn(TopKRequest{Base: base, Candidates: candidates})
				mv, ok := models.Load(gen)
				if !ok {
					t.Errorf("response from unregistered generation %d", gen)
					return
				}
				served := mv.(*core.Model)
				for _, it := range items {
					inst := base
					inst.Target = it.Object
					if want := refScore(served, inst); it.Score != want {
						t.Errorf("gen %d object %d: served %v, fresh-tape %v", gen, it.Object, it.Score, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	swapperDone.Wait()
}

func TestHistKeyUnambiguous(t *testing.T) {
	keys := map[string][]int{}
	for _, h := range [][]int{
		{}, {0}, {1}, {0, 0}, {1, 2}, {12}, {1, 2, 3}, {-1}, {128}, {16384},
	} {
		k := histKey(h)
		if prev, ok := keys[k]; ok {
			t.Fatalf("collision: %v and %v share key %q", prev, h, k)
		}
		keys[k] = h
	}
}

// TestSwapAsAlignsGenerationIds pins the replication-side publish contract:
// an externally assigned generation id is installed exactly when it advances
// the counter, ids stay strictly monotonic, and the swapped model serves the
// same bit-exact scores as any other generation.
func TestSwapAsAlignsGenerationIds(t *testing.T) {
	m := testModel(t)
	eng := NewEngine(m, Config{Workers: 1})
	defer eng.Close()
	if g := eng.Generation(); g != 1 {
		t.Fatalf("boot generation %d", g)
	}
	// Jump forward to a primary-assigned id.
	if got := eng.SwapAs(m.Clone(), 17); got != 17 || eng.Generation() != 17 {
		t.Fatalf("SwapAs(17) installed %d (engine at %d)", got, eng.Generation())
	}
	// The immediate successor lands exactly.
	if got := eng.SwapAs(m.Clone(), 18); got != 18 {
		t.Fatalf("SwapAs(18) installed %d", got)
	}
	// A stale or duplicate id falls back to the next sequential one.
	if got := eng.SwapAs(m.Clone(), 5); got != 19 {
		t.Fatalf("SwapAs(5) installed %d, want sequential 19", got)
	}
	if got := eng.Swap(m.Clone()); got != 20 {
		t.Fatalf("Swap after SwapAs installed %d, want 20", got)
	}
	inst := testInstances(1, 99)[0]
	if got, want := eng.Score(inst), refScore(m, inst); got != want {
		t.Fatalf("served %v != fresh-tape %v after SwapAs chain", got, want)
	}
}
