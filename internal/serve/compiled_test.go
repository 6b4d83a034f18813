package serve

import (
	"sort"
	"sync"
	"testing"
	"time"

	"seqfm/internal/core"
	"seqfm/internal/feature"
)

// TestCompiledGenerationMatchesTape pins the compiled serving path against
// the oracle at the public API: cold and warm ScoreBatch, and a TopK list,
// equal core.Model.Score on a fresh tape bit for bit, and Stats reports the
// compiled engine.
func TestCompiledGenerationMatchesTape(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{Workers: 3})
	defer e.Close()
	if st := e.Stats(); st.Engine != EngineCompiled {
		t.Fatalf("SeqFM engine serves %q, want compiled", st.Engine)
	}

	insts := testInstances(64, 3)
	// Two passes: the second is served from warm dynamic/static caches.
	for pass := 0; pass < 2; pass++ {
		got := e.ScoreBatch(insts)
		for i := range insts {
			if want := refScore(m, insts[i]); got[i] != want {
				t.Fatalf("pass %d inst %d: compiled %v != fresh-tape ref %v (not bit-identical)", pass, i, got[i], want)
			}
		}
	}

	base := feature.Instance{User: 3, Hist: []int{4, 9, 2}, UserAttr: feature.Pad, TargetAttr: feature.Pad}
	req := TopKRequest{Base: base, Candidates: []int{0, 5, 9, 14, 21, 28}, K: 4}
	want := make([]Item, len(req.Candidates))
	for i, o := range req.Candidates {
		inst := base
		inst.Target = o
		want[i] = Item{Object: o, Score: refScore(m, inst)}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Score != want[j].Score {
			return want[i].Score > want[j].Score
		}
		return want[i].Object < want[j].Object
	})
	want = want[:req.K]
	items := e.TopK(req)
	if len(items) != len(want) {
		t.Fatalf("top-K returned %d items, want %d", len(items), len(want))
	}
	for i := range want {
		if items[i] != want[i] {
			t.Fatalf("top-K item %d: compiled %+v != fresh-tape ref %+v", i, items[i], want[i])
		}
	}
}

// TestCompiledEngineFallsBackForPlainScorers pins that the serving path is
// picked per generation from the model: swapping a spec-less scorer over a
// compiled generation serves it through the tape, swapping the SeqFM model
// back returns to the plan, and both score identically to the oracle.
func TestCompiledEngineFallsBackForPlainScorers(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{Workers: 2})
	defer e.Close()
	insts := testInstances(16, 5)
	for _, step := range []struct {
		model  Scorer
		engine string
	}{
		{m, EngineCompiled},
		{plainScorer{m}, EngineTape},
		{m, EngineCompiled},
	} {
		e.Swap(step.model)
		if st := e.Stats(); st.Engine != step.engine {
			t.Fatalf("%T generation reports engine %q, want %q", step.model, st.Engine, step.engine)
		}
		for i, s := range e.ScoreBatch(insts) {
			if want := refScore(m, insts[i]); s != want {
				t.Fatalf("%s generation inst %d: score %v != ref %v", step.engine, i, s, want)
			}
		}
	}
}

// TestCompiledTopKDuringSwapStorm is the satellite -race test: under a
// publisher storm, every TopKOn served by compiled generations must return
// scores bit-identical to a fresh tape pass over exactly the weights of the
// generation it reports — RCU swaps must never mix plan buffers across
// generations.
func TestCompiledTopKDuringSwapStorm(t *testing.T) {
	m := testModel(t)
	e := NewEngine(m, Config{Workers: 2})
	defer e.Close()
	if st := e.Stats(); st.Engine != EngineCompiled {
		t.Fatalf("storm engine serves %q, want compiled", st.Engine)
	}

	var mu sync.Mutex
	models := map[uint64]*core.Model{e.Generation(): m}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		cur := m
		for {
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
			next := cur.Clone()
			next.Params()[0].Value.Data[0] += 1e-6
			mu.Lock()
			gen := e.Swap(next)
			models[gen] = next
			mu.Unlock()
			cur = next
		}
	}()

	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(user int) {
			defer readers.Done()
			base := feature.Instance{User: user, Hist: []int{1, 2, 8}, UserAttr: feature.Pad, TargetAttr: feature.Pad}
			req := TopKRequest{Base: base, Candidates: []int{0, 3, 7, 11, 19, 23, 29}, K: 5}
			for i := 0; i < 30; i++ {
				items, gen := e.TopKOn(req)
				mu.Lock()
				gm := models[gen]
				mu.Unlock()
				if gm == nil {
					t.Errorf("served generation %d was never published", gen)
					return
				}
				for _, it := range items {
					inst := base
					inst.Target = it.Object
					if want := refScore(gm, inst); it.Score != want {
						t.Errorf("gen %d object %d: compiled served %v, want %v", gen, it.Object, it.Score, want)
						return
					}
				}
			}
		}(w)
	}
	readers.Wait()
	close(stop)
	swapper.Wait()
}
