package online

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"seqfm/internal/feature"
	"seqfm/internal/serve"
	"seqfm/internal/train"
	"seqfm/internal/wal"
)

// newPrimary builds a WAL-backed learner and an httptest server exposing its
// replication endpoints — the exact handlers cmd/seqfm-serve mounts.
func newPrimary(t *testing.T, workers int) (*Learner, *serve.Engine, *httptest.Server) {
	t.Helper()
	ds := testDataset(t)
	log, err := wal.Open(filepath.Join(t.TempDir(), "wal"), walOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	eng := serve.NewEngine(testModel(t, ds, 0.9).Clone(), serve.Config{Workers: 1})
	t.Cleanup(eng.Close)
	l, err := NewLearner(testModel(t, ds, 0.9), ds, eng, Config{
		Train:     train.Config{Seed: 11, Workers: workers, LR: 0.03, Negatives: 2},
		BatchSize: 8,
		Log:       log,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replica/snapshot", l.ServeReplicaSnapshot)
	mux.HandleFunc("GET /v1/replica/log", l.ServeReplicaLog)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return l, eng, srv
}

// TestFollowerConvergesOverHTTP is the replication acceptance pin: a
// follower bootstrapped from a live primary's snapshot endpoint and tailing
// its log endpoint converges to the primary's generation and serves
// identical top-K for identical requests once caught up — then keeps
// converging as the primary trains on.
func TestFollowerConvergesOverHTTP(t *testing.T) {
	lP, engP, srv := newPrimary(t, 2)
	ds := lP.ds

	// The primary has lived a little before the follower arrives: some
	// trained history, some still-pending events.
	events := makeRCEvents(ds, 321, 40)
	syncAt := map[int]bool{10: true, 22: true}
	driveRun(t, lP, events, 0, 30, syncAt, 0)

	// Bootstrap the follower from the snapshot endpoint.
	m, f, bootGen, err := FetchSnapshot(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bootGen != engP.Generation() {
		t.Fatalf("snapshot header generation %d, primary at %d", bootGen, engP.Generation())
	}
	engF := serve.NewEngine(m, serve.Config{Workers: 1})
	defer engF.Close()
	lF, err := NewLearnerFromSnapshot(m, f, ds, engF, Config{
		Train:     train.Config{Seed: 11, Workers: 2, LR: 0.03, Negatives: 2},
		BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplica(lF, &HTTPLogSource{Base: srv.URL}, bootGen, ReplicaConfig{})
	if got := engF.Generation(); got != bootGen {
		t.Fatalf("follower boot generation %d, want %d", got, bootGen)
	}
	// The snapshot is self-contained through its log cut, so the bootstrap
	// catch-up has nothing left to apply — every durable record at fetch
	// time was inside the cut.
	if n, err := rep.CatchUp(); err != nil || n != 0 {
		t.Fatalf("CatchUp applied %d records (want 0), err %v", n, err)
	}

	check := func(stage string) {
		t.Helper()
		assertParamsEqual(t, lP.model, lF.model, stage)
		if gp, gf := engP.Generation(), engF.Generation(); gp != gf {
			t.Fatalf("%s: generation diverged: primary %d, follower %d", stage, gp, gf)
		}
		base := feature.Instance{User: 3, UserAttr: feature.Pad, TargetAttr: feature.Pad}
		req := serve.TopKRequest{Base: base, Candidates: []int{0, 4, 7, 11, 15, 19, 23}, K: 5}
		req.Base.Hist = lP.History(3)
		itemsP := engP.TopK(req)
		req.Base.Hist = lF.History(3)
		itemsF := engF.TopK(req)
		if len(itemsP) != len(itemsF) {
			t.Fatalf("%s: topk lengths differ", stage)
		}
		for i := range itemsP {
			if itemsP[i] != itemsF[i] {
				t.Fatalf("%s: topk[%d] %+v != %+v", stage, i, itemsP[i], itemsF[i])
			}
		}
	}
	check("after bootstrap catch-up")
	st := rep.Stats()
	if !st.CaughtUp || st.LagRecords != 0 || st.PrimaryGeneration != engP.Generation() {
		t.Fatalf("replica stats %+v", st)
	}

	// The primary trains on; a background-tailing follower keeps up.
	rep.Start()
	defer rep.Close()
	driveRun(t, lP, events, 30, 40, map[int]bool{40: true}, 0)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s := rep.Stats()
		if s.CaughtUp && s.AppliedSeq >= lP.Stats().LogDurableSeq && s.PrimaryGeneration == engP.Generation() {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	rep.Close()
	check("after live tail")
	// Stats line up with the primary's durability counters.
	sp, sf := lP.Stats(), rep.Stats()
	if sf.AppliedSeq != sp.LogDurableSeq {
		t.Fatalf("follower applied %d, primary durable %d", sf.AppliedSeq, sp.LogDurableSeq)
	}
	if lF.Stats().Ingested != sp.Ingested {
		t.Fatalf("follower ingested %d, primary %d", lF.Stats().Ingested, sp.Ingested)
	}
}

// TestReplicaLagAccounting pins the lag counters: a follower that stops
// polling falls behind by exactly the primary's new durable records, and
// reports a positive staleness estimate.
func TestReplicaLagAccounting(t *testing.T) {
	lP, _, srv := newPrimary(t, 1)
	ds := lP.ds
	events := makeRCEvents(ds, 5, 20)
	driveRun(t, lP, events, 0, 10, map[int]bool{10: true}, 0)

	m, f, gen, err := FetchSnapshot(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	engF := serve.NewEngine(m, serve.Config{Workers: 1})
	defer engF.Close()
	lF, err := NewLearnerFromSnapshot(m, f, ds, engF, Config{
		Train: train.Config{Seed: 11, Workers: 1, LR: 0.03, Negatives: 2}, BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplica(lF, &HTTPLogSource{Base: srv.URL}, gen, ReplicaConfig{})
	if _, err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	// Primary advances; the replica pokes the log once with a tiny batch so
	// it learns the new watermark without fully catching up.
	driveRun(t, lP, events, 10, 20, map[int]bool{20: true}, 0)
	rep.cfg.MaxBatch = 1
	if _, _, err := rep.poll(0); err != nil {
		t.Fatal(err)
	}
	st := rep.Stats()
	if st.CaughtUp || st.LagRecords == 0 {
		t.Fatalf("expected lag, got %+v", st)
	}
	if st.LagSeconds < 0 {
		t.Fatalf("negative staleness %v", st.LagSeconds)
	}
	// Full catch-up clears the lag.
	rep.cfg.MaxBatch = DefaultReplicaBatch
	if _, err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if st := rep.Stats(); !st.CaughtUp || st.LagRecords != 0 {
		t.Fatalf("still lagging after catch-up: %+v", st)
	}
}

// TestServeReplicaEndpointsRejectBadRequests pins the endpoint contracts:
// WAL-less learners 409, malformed parameters 400.
func TestServeReplicaEndpointsRejectBadRequests(t *testing.T) {
	ds := testDataset(t)
	eng := serve.NewEngine(testModel(t, ds, 1).Clone(), serve.Config{Workers: 1})
	defer eng.Close()
	bare, err := NewLearner(testModel(t, ds, 1), ds, eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replica/snapshot", bare.ServeReplicaSnapshot)
	mux.HandleFunc("GET /v1/replica/log", bare.ServeReplicaLog)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	for _, path := range []string{"/v1/replica/snapshot", "/v1/replica/log?from=1"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("%s on WAL-less learner: %d", path, resp.StatusCode)
		}
	}

	lP, _, srvP := newPrimary(t, 1)
	_ = lP
	for _, q := range []string{"", "?from=0", "?from=x", "?from=1&max=-2", "?from=1&wait_ms=-1"} {
		resp, err := http.Get(srvP.URL + "/v1/replica/log" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("log%s: %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestFollowerConvergesFromLowGenerationPrimary pins the bootstrap fix for
// young primaries: when the primary has published once (generation 2), the
// follower must land on generation 2 too — the snapshot-construction path
// must not burn a generation id that SwapAs then cannot re-issue.
func TestFollowerConvergesFromLowGenerationPrimary(t *testing.T) {
	lP, engP, srv := newPrimary(t, 1)
	ds := lP.ds
	events := makeRCEvents(ds, 8, 20)
	driveRun(t, lP, events, 0, 10, map[int]bool{10: true}, 0) // one publish: gen 2
	if engP.Generation() != 2 {
		t.Fatalf("precondition: primary at gen %d, want 2", engP.Generation())
	}
	m, f, bootGen, err := FetchSnapshot(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	engF := serve.NewEngine(m, serve.Config{Workers: 1})
	defer engF.Close()
	lF, err := NewLearnerFromSnapshot(m, f, ds, engF, Config{
		Train: train.Config{Seed: 11, Workers: 1, LR: 0.03, Negatives: 2}, BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplica(lF, &HTTPLogSource{Base: srv.URL}, bootGen, ReplicaConfig{})
	if got := engF.Generation(); got != 2 {
		t.Fatalf("follower boot generation %d, want 2", got)
	}
	if _, err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	// The primary publishes again; the follower must track 3 exactly. The
	// publish marker is appended without waiting for the group fsync, and
	// CatchUp converges to the primary's durable position, so make the
	// marker durable first.
	driveRun(t, lP, events, 10, 20, map[int]bool{20: true}, 0)
	if err := lP.wlog().Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if gp, gf := engP.Generation(), engF.Generation(); gp != 3 || gf != gp {
		t.Fatalf("generations: primary %d, follower %d (want both 3)", gp, gf)
	}
	assertParamsEqual(t, lP.model, lF.model, "low-gen convergence")
}

// TestReplicaHaltsOnPermanentApplyError pins the wedge fix: a record the
// learner can never apply must halt the tail loop and surface in Stats, not
// retry silently forever.
func TestReplicaHaltsOnPermanentApplyError(t *testing.T) {
	ds := testDataset(t)
	eng := serve.NewEngine(testModel(t, ds, 1).Clone(), serve.Config{Workers: 1})
	defer eng.Close()
	l, err := NewLearner(testModel(t, ds, 1), ds, eng, Config{
		Train: train.Config{Seed: 1, Workers: 1, LR: 0.01, Negatives: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := staticSource{rec: wal.Record{Seq: 1, Type: wal.RecEvent, User: 9999, Object: 1, Label: 1}}
	var logged atomic.Int64
	rep := NewReplica(l, src, 0, ReplicaConfig{
		Wait:    time.Millisecond,
		Backoff: time.Millisecond,
		Logf:    func(string, ...any) { logged.Add(1) },
	})
	rep.Start()
	deadline := time.Now().Add(5 * time.Second)
	for !rep.Stats().Failed && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rep.Close()
	st := rep.Stats()
	if !st.Failed || st.LastError == "" {
		t.Fatalf("replica did not halt on permanent error: %+v", st)
	}
	if st.Polls > 3 {
		t.Fatalf("replica kept retrying a permanent error: %d polls", st.Polls)
	}
	if logged.Load() == 0 {
		t.Fatal("halt was not logged")
	}
}

// staticSource returns the same single record on every fetch.
type staticSource struct{ rec wal.Record }

func (s staticSource) FetchLog(from uint64, max int, wait time.Duration) (LogFetch, error) {
	return LogFetch{Records: []wal.Record{s.rec}, DurableSeq: s.rec.Seq}, nil
}

// regressedSource mimics a primary whose log restarted (wiped directory):
// always empty batches with a durable watermark below the replica's applied
// position.
type regressedSource struct{}

func (regressedSource) FetchLog(from uint64, max int, wait time.Duration) (LogFetch, error) {
	return LogFetch{Records: nil, DurableSeq: 3}, nil
}

// TestReplicaDetectsPrimaryLogRegression pins the divergence guard: a
// follower ahead of its primary's durable watermark must fail loudly, not
// report CaughtUp while serving stale state forever.
func TestReplicaDetectsPrimaryLogRegression(t *testing.T) {
	ds := testDataset(t)
	eng := serve.NewEngine(testModel(t, ds, 1).Clone(), serve.Config{Workers: 1})
	defer eng.Close()
	l, err := NewLearner(testModel(t, ds, 1), ds, eng, Config{
		Train: train.Config{Seed: 1, Workers: 1, LR: 0.01, Negatives: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplica(l, regressedSource{}, 0, ReplicaConfig{Wait: time.Millisecond, Backoff: time.Millisecond})
	rep.applied.Store(4000) // replica state from the pre-wipe primary
	if _, _, err := rep.poll(0); err == nil {
		t.Fatal("log regression not detected")
	}
	rep.Start()
	deadline := time.Now().Add(5 * time.Second)
	for !rep.Stats().Failed && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rep.Close()
	if st := rep.Stats(); !st.Failed || st.LastError == "" {
		t.Fatalf("replica did not halt on regression: %+v", st)
	}
}
