package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"seqfm/internal/core"
	"seqfm/internal/data"
	"seqfm/internal/httpapi"
	"seqfm/internal/online"
	"seqfm/internal/serve"
	"seqfm/internal/wal"
)

// A run builds its stack at least setupRepeats times and until setupMin
// has passed; setup_s is the median build time, and the last build is the
// one measured. The time floor gives a cheap set-up (train-epoch's takes a
// few milliseconds) enough builds for a steady median.
const (
	setupRepeats = 5
	setupMin     = time.Second
)

// poiStandIn generates a check-in dataset shaped like the paper's POI data
// (Gowalla's generator parameters) at the given size, with per-user history
// lengths between 12 and 60.
func poiStandIn(seed int64, users, pois int) (*data.Dataset, error) {
	return data.GeneratePOI(data.POIConfig{
		Name: "perfbench-poi", Seed: seed, NumUsers: users, NumPOIs: pois,
		NumClusters: pois / 10, MinLen: 12, MaxLen: 60,
		PSeq: 0.45, PPref: 0.2, PReturn: 0.25, ReturnLag: 3, PrefClusters: 3,
	})
}

// stack is the assembled serving system, every layer at its shipped
// defaults: a paper-default SeqFM behind a serve.Engine with the HNSW
// catalog index on, an httpapi.Server in front, and — for the write
// workload — the online learner ingesting through a group-commit WAL.
type stack struct {
	ds      *data.Dataset
	model   *core.Model // generation 1's weights; never mutated
	eng     *serve.Engine
	learner *online.Learner
	wal     *wal.Log
	srv     *httpapi.Server
	h       http.Handler
	walDir  string
}

// serveUsers × serveObjects is the serving stand-in's size.
const (
	serveUsers   = 1000
	serveObjects = 2000
)

func buildStack(seed int64, write bool, tmp string) (*stack, error) {
	ds, err := poiStandIn(seed, serveUsers, serveObjects)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(ds.Space())
	cfg.Seed = seed
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	st := &stack{ds: ds, model: m}
	st.eng = serve.NewEngine(m, serve.Config{Index: &serve.IndexConfig{Objects: ds.Objects()}})
	if write {
		if st.walDir, err = os.MkdirTemp(tmp, "wal-"); err != nil {
			st.close()
			return nil, err
		}
		if st.wal, err = wal.Open(st.walDir, wal.Options{}); err != nil {
			st.close()
			return nil, err
		}
		if st.learner, err = online.NewLearner(m, ds, st.eng, online.Config{Log: st.wal}); err != nil {
			st.close()
			return nil, err
		}
		st.learner.Start()
	}
	st.srv, err = httpapi.New(httpapi.Config{Engine: st.eng, Dataset: ds, Model: m, Learner: st.learner, WAL: st.wal})
	if err != nil {
		st.close()
		return nil, err
	}
	st.h = st.srv.Routes()
	return st, nil
}

// stopLearner stops the background trainer (running its final Sync); the
// learner stays usable for direct calls.
func (st *stack) stopLearner() {
	if st.learner != nil {
		st.learner.Close()
	}
}

func (st *stack) close() {
	st.stopLearner()
	if st.wal != nil {
		if err := st.wal.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: close wal: %v\n", err)
		}
	}
	if st.eng != nil {
		st.eng.Close()
	}
	if st.walDir != "" {
		os.RemoveAll(st.walDir)
	}
}

// buildRepeated builds stacks as the setup constants say, closing each
// before building the next, and returns the last with the median build
// time in seconds.
func buildRepeated[T any](build func() (T, error), closeFn func(T)) (T, float64, error) {
	var (
		cur, zero T
		times     []float64
	)
	start := time.Now()
	for i := 0; i < setupRepeats || time.Since(start) < setupMin; i++ {
		if i > 0 {
			closeFn(cur)
			cur = zero
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		cur = v
	}
	return cur, medianFloat(times), nil
}

// heapSampler records the live heap — bytes reachable at the end of the
// last GC cycle — every few milliseconds while training runs, which
// collects every few hundred milliseconds.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
	bytes []float64
}

func startHeapSampler() *heapSampler {
	hs := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(hs.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			hs.bytes = append(hs.bytes, float64(s[0].Value.Uint64()))
			select {
			case <-hs.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return hs
}

// finish stops the sampler (once; later calls just wait) and returns the
// median live heap in MB: the working set the phase held, which a single
// peak reading would replace with whichever GC cycle happened to land at a
// publish or a cache fill.
func (hs *heapSampler) finish() float64 {
	hs.once.Do(func() { close(hs.stop) })
	<-hs.done
	return medianFloat(hs.bytes) / (1 << 20)
}

// liveHeapMB forces a garbage collection and returns the heap it found
// reachable, in MB: a serving stack's working set at a point the workload
// fixes, independent of when the collector would have run.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// cpuClasses snapshots the runtime's GC and total CPU-seconds counters.
type cpuClasses struct{ gc, total float64 }

func readCPU() cpuClasses {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuClasses{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// processCPU returns the CPU time the process has used, user and system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcFrac is the share of CPU time spent in GC between two snapshots.
func gcFrac(a, b cpuClasses) float64 { return ratio(b.gc-a.gc, b.total-a.total) }
