package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"seqfm/internal/core"
	"seqfm/internal/data"
	"seqfm/internal/httpapi"
	"seqfm/internal/online"
	"seqfm/internal/serve"
	"seqfm/internal/wal"
)

// testDataset builds a small ranking dataset with deterministic logs.
func testDataset(t testing.TB) *data.Dataset {
	t.Helper()
	d := &data.Dataset{Name: "cluster-test", Task: data.Ranking, NumUsers: 10, NumObjects: 24}
	d.Users = make([][]data.Interaction, d.NumUsers)
	for u := 0; u < d.NumUsers; u++ {
		for i := 0; i < 5; i++ {
			d.Users[u] = append(d.Users[u], data.Interaction{
				Object: (u*3 + i*5) % d.NumObjects, Rating: 1, Time: int64(i),
			})
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func testModel(t testing.TB, ds *data.Dataset) *core.Model {
	t.Helper()
	m, err := core.New(core.Config{Space: ds.Space(), Dim: 6, Layers: 1, MaxSeqLen: 4,
		KeepProb: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newShardPrimary boots one WAL-backed primary behind the real HTTP layer.
func newShardPrimary(t testing.TB, ds *data.Dataset) (*online.Learner, *httptest.Server) {
	t.Helper()
	m := testModel(t, ds)
	wlog, err := wal.Open(t.TempDir(), wal.Options{FlushInterval: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wlog.Close() })
	eng := serve.NewEngine(m.Clone(), serve.Config{Workers: 1})
	t.Cleanup(eng.Close)
	l, err := online.NewLearner(m, ds, eng, online.Config{Log: wlog})
	if err != nil {
		t.Fatal(err)
	}
	s, err := httpapi.New(httpapi.Config{Engine: eng, Dataset: ds, Model: m, Learner: l, WAL: wlog})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Routes())
	t.Cleanup(srv.Close)
	return l, srv
}

// newFollower bootstraps a follower from a primary's snapshot endpoint and
// catches it up.
func newFollower(t testing.TB, ds *data.Dataset, primaryURL string) (*online.Learner, *online.Replica) {
	t.Helper()
	m, f, bootGen, err := online.FetchSnapshot(primaryURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := serve.NewEngine(m, serve.Config{Workers: 1})
	t.Cleanup(eng.Close)
	l, err := online.NewLearnerFromSnapshot(m, f, ds, eng, online.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := online.NewReplica(l, &online.HTTPLogSource{Base: primaryURL}, bootGen, online.ReplicaConfig{})
	if _, err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	return l, rep
}

// TestPromotionFencesDeposedPrimary is the split-brain acceptance pin: after
// a follower is promoted, a revived old primary keeps accepting local writes
// under its stale epoch — and every one of them is fenced, not merged. The
// new primary's log never contains the fork, followers of the new primary
// never see it, a replica that has observed the new epoch refuses to tail
// the deposed node, and the deposed node's HTTP ingest rejects requests
// stamped with the new epoch.
func TestPromotionFencesDeposedPrimary(t *testing.T) {
	ds := testDataset(t)
	lA, srvA := newShardPrimary(t, ds)

	// Seed traffic on the original primary A.
	for i := 0; i < 12; i++ {
		if err := lA.Ingest(i%ds.NumUsers, (i*7)%ds.NumObjects, 1); err != nil {
			t.Fatal(err)
		}
	}
	lA.Sync()

	// Follower F bootstraps and catches up.
	lF, rep := newFollower(t, ds, srvA.URL)

	// More traffic, tailed live.
	for i := 0; i < 6; i++ {
		if err := lA.Ingest((i+3)%ds.NumUsers, (i*5+1)%ds.NumObjects, 1); err != nil {
			t.Fatal(err)
		}
	}
	lA.Sync()
	// Sync appends A's publish marker without waiting for the group fsync,
	// and CatchUp converges to A's durable position. Make the marker durable
	// so F has no unpublished steps to publish at takeover.
	if err := lA.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}

	// A "fails"; F takes over.
	dir := t.TempDir()
	res, err := Promote(Promotion{
		Replica: rep, Learner: lF,
		WALDir:       dir,
		WALOptions:   wal.Options{FlushInterval: 200 * time.Microsecond},
		SnapshotPath: filepath.Join(dir, "state.ckpt"),
		NoStart:      true,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 2 {
		t.Fatalf("promotion epoch %d, want 2", res.Epoch)
	}
	if got := lF.Epoch(); got != 2 {
		t.Fatalf("promoted learner epoch %d, want 2", got)
	}
	if pos := lF.WAL().Pos(); pos.Seq != res.AppliedSeq+1 {
		t.Fatalf("new log at seq %d after the epoch record, want %d (applied %d + 1)",
			pos.Seq, res.AppliedSeq+1, res.AppliedSeq)
	}

	// The new primary accepts and trains writes; user 5's post-promotion
	// object is 22.
	if err := lF.Ingest(5, 22, 1); err != nil {
		t.Fatal(err)
	}
	lF.Sync()

	// Split brain: the deposed A revives and keeps writing — user 5's fork
	// object is 23, which must never reach F or its followers.
	if err := lA.Ingest(5, 23, 1); err != nil {
		t.Fatal(err)
	}
	lA.Sync()

	// 1. The new primary's log carries its own write and never the fork.
	rd, err := lF.WAL().ReaderAt(lF.WAL().FirstSeq())
	if err != nil {
		t.Fatal(err)
	}
	sawOwn, sawEpoch := false, false
	for {
		payload, pos, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rec, err := wal.DecodeRecord(pos.Seq, payload)
		if err != nil {
			t.Fatal(err)
		}
		switch rec.Type {
		case wal.RecEpoch:
			if rec.Epoch != 2 {
				t.Fatalf("epoch record carries %d, want 2", rec.Epoch)
			}
			sawEpoch = true
		case wal.RecEvent:
			if rec.User == 5 && rec.Object == 23 {
				t.Fatal("deposed primary's write merged into the new primary's log")
			}
			if rec.User == 5 && rec.Object == 22 {
				sawOwn = true
			}
		}
	}
	rd.Close()
	if !sawEpoch || !sawOwn {
		t.Fatalf("new log missing epoch record (%v) or own write (%v)", sawEpoch, sawOwn)
	}

	// 2. A follower of the new primary sees F's write, never the fork.
	mF := lF // promoted primary now serves replication
	engSrv := serve.NewEngine(testModel(t, ds).Clone(), serve.Config{Workers: 1})
	defer engSrv.Close()
	sF, err := httpapi.New(httpapi.Config{Engine: engSrv, Dataset: ds, Learner: mF})
	if err != nil {
		t.Fatal(err)
	}
	srvF := httptest.NewServer(sF.Routes())
	defer srvF.Close()
	lG, _ := newFollower(t, ds, srvF.URL)
	hist := lG.History(5)
	has := func(o int) bool {
		for _, h := range hist {
			if h == o {
				return true
			}
		}
		return false
	}
	if has(23) {
		t.Fatalf("fork object reached a follower of the new primary: %v", hist)
	}
	if !has(22) {
		t.Fatalf("new primary's write missing from its follower: %v", hist)
	}

	// 3. A replica that has observed epoch 2 refuses to tail the deposed A.
	lStale, repStale := newFollower(t, ds, srvF.URL)
	_ = lStale
	repStale.Close()
	repBad := online.NewReplica(lStale, &online.HTTPLogSource{Base: srvA.URL}, 0, online.ReplicaConfig{})
	if _, err := repBad.CatchUp(); err == nil || !strings.Contains(err.Error(), "deposed") {
		t.Fatalf("tailing the deposed primary with epoch 2 observed: err %v, want deposed-primary fence", err)
	}

	// 4. The deposed A's HTTP ingest fences requests stamped with the new
	// epoch — the router's write path cannot land traffic on it.
	req, _ := http.NewRequest(http.MethodPost, srvA.URL+"/v1/feedback",
		strings.NewReader(`{"user":1,"object":2}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(online.EpochHeader, strconv.FormatUint(uint64(res.Epoch), 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("deposed primary answered %d to an epoch-2 write, want 409", resp.StatusCode)
	}
	if got := resp.Header.Get(online.EpochHeader); got != "1" {
		t.Fatalf("fence response reports epoch %q, want the deposed node's own 1", got)
	}
}
