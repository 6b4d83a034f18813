package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"seqfm/internal/ag"
	"seqfm/internal/feature"
	"seqfm/internal/traffic"
	"seqfm/internal/wal"
)

// serveWorkload parameterises the two serving workloads. Both offer the same
// read stream — Zipf (s=1.2) users, equal parts /v1/topk with J explicit
// candidates, /v1/recommend at the default retrieval depth and /v1/score —
// open loop at a fixed rate, then closed loop from one client (top-K only)
// and from saturationClients clients; a traced serve-read run then searches
// for the highest rate meeting the read SLO. serve-write adds a feedback
// stream into the online learner.
type serveWorkload struct {
	fixedRate    float64 // reads/s in the fixed-rate phase
	feedbackRate float64 // feedback events/s in every phase; 0 = reads only
}

var (
	readMix     = traffic.Mix{Score: 1, TopK: 1, Recommend: 1}
	topKMix     = traffic.Mix{TopK: 1}
	feedbackMix = traffic.Mix{Feedback: 1}
	// readSLO: 99% of reads answered OK within 100ms of their scheduled
	// instant. A growing backlog breaks it within a probe, because every
	// late request's latency keeps its queueing delay.
	readSLO = slo{limit: 100 * time.Millisecond, minOK: 0.99}
)

// Phase lengths: the fixed-rate and lone-client phases as shares of
// --seconds (the closed-loop capacity phase takes the rest), the warm-ups
// (serve-read's in reads: at a user's first request Zipf's tail users miss
// every cache, and 2000 reads reach well into the tail), and the traced
// run's rate search: its budget as a share of --seconds, its probe length
// and in-flight cap.
const (
	fixedShare  = 0.35
	loneShare   = 0.15
	warmup      = 1500 * time.Millisecond
	warmReads   = 2000
	searchShare = 0.5
	probeLength = 3 * time.Second
	probeCap    = 256
)

func runServe(o options, w serveWorkload) (*result, error) {
	res := newResult()
	write := w.feedbackRate > 0
	st, setup, err := buildRepeated(func() (*stack, error) { return buildStack(o.seed, write, o.tmp) }, (*stack).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	res.values["setup_s"] = setup
	pl := &planner{ds: st.ds, cands: retrievalCandidates(st.model, st.ds)}
	var durable func() uint64
	if write {
		durable = st.wal.DurableSeq
	}
	phasePlan := func(stream int64, mix traffic.Mix, rate float64, dur time.Duration) ([]request, error) {
		reads, err := pl.plan(o.seed*1000+stream, rate, dur, mix)
		if err != nil || !write {
			return reads, err
		}
		fb, err := pl.plan(o.seed*1000+stream+500, w.feedbackRate, dur, feedbackMix)
		return merge(reads, fb), err
	}

	// Warm-up, not measured. On the read-only stack, warmReads reads of the
	// same stream, sent closed-loop, fill the engine caches as a server that
	// has been up a while has them filled. On the write stack, where every
	// publish empties the caches, a short open-loop run starts the trainer's
	// publish cycle.
	var phases []*phase
	if write {
		reqs, err := phasePlan(1, readMix, w.fixedRate, warmup)
		if err != nil {
			return nil, err
		}
		phases = append(phases, runOpenLoop(st.h, "warmup", w.fixedRate, reqs, 0, durable))
	} else {
		reqs, err := phasePlan(1, readMix, w.fixedRate, time.Duration(warmReads/w.fixedRate*float64(time.Second)))
		if err != nil {
			return nil, err
		}
		phases = append(phases, runClosedLoop(st.h, "warmup", reqs, saturationClients, time.Time{}))
	}

	// Fixed-rate phase: every endpoint's latency from the scheduled instant.
	share := func(f float64) time.Duration { return time.Duration(f * float64(o.seconds) * float64(time.Second)) }
	fixedDur := share(fixedShare)
	reqs, err := phasePlan(2, readMix, w.fixedRate, fixedDur)
	if err != nil {
		return nil, err
	}
	eng0, cpu0, used0 := st.eng.Stats(), readCPU(), processCPU()
	fixed := runOpenLoop(st.h, "fixed", w.fixedRate, reqs, 0, durable)
	eng1, cpu1, used1 := st.eng.Stats(), readCPU(), processCPU()
	phases = append(phases, fixed)
	fmt.Fprint(os.Stderr, fixed.summary())
	res.values["gen.lag_p99_ms"] = ms(fixed.lag.quantile(0.99))
	res.values["runtime.gc_cpu_frac"] = gcFrac(cpu0, cpu1)
	res.values["serve.dyn_hit_ratio"] = ratio(float64(eng1.DynHits-eng0.DynHits), float64(eng1.DynHits-eng0.DynHits+eng1.DynMisses-eng0.DynMisses))
	res.values["serve.static_hit_ratio"] = ratio(float64(eng1.StaticHits-eng0.StaticHits), float64(eng1.StaticHits-eng0.StaticHits+eng1.StaticMisses-eng0.StaticMisses))
	for _, e := range []struct {
		k    traffic.Kind
		name string
		tail bool
	}{{traffic.KindTopK, "topk", true}, {traffic.KindRecommend, "recommend", true}, {traffic.KindScore, "score", false}, {traffic.KindFeedback, "feedback", true}} {
		ks := fixed.stats(e.k)
		if ks.sent == 0 {
			continue
		}
		res.values[e.name+"_p50_ms"] = ms(ks.lat.quantile(0.5))
		if e.tail {
			res.values[e.name+"_p99_ms"] = ms(ks.lat.quantile(0.99))
		}
	}
	if write {
		res.values["freshness_p50_ms"] = ms(st.learner.ServableFreshness().Quantile(0.5))
	}
	// The working set after the warm-up and the fixed-rate phase, which
	// send the same requests on every run of a seed.
	res.values["heap_mb"] = liveHeapMB()

	// p50_ms: one client sends top-K requests back to back, so each is
	// timed with no other read in flight (on the write stack the feedback
	// stream and the trainer still run).
	if reqs, err = phasePlan(15, topKMix, closedRate, share(loneShare)); err != nil {
		return nil, err
	}
	lone := closedLoop(st.h, "lone-topk", reqs, 1, share(loneShare), durable)
	phases = append(phases, lone...)
	res.values["p50_ms"] = ms(lone[0].stats(traffic.KindTopK).lat.quantile(0.5))

	// rate_per_s: closed-loop read throughput over the rest of --seconds.
	satDur := share(1 - fixedShare - loneShare)
	if reqs, err = phasePlan(20, readMix, closedRate, satDur); err != nil {
		return nil, err
	}
	sat := closedLoop(st.h, "saturation", reqs, saturationClients, satDur, durable)
	phases = append(phases, sat...)
	rate := float64(sat[0].stats(traffic.KindTopK).ok+sat[0].stats(traffic.KindRecommend).ok+sat[0].stats(traffic.KindScore).ok) / sat[0].elapsed.Seconds()
	res.values["rate_per_s"] = rate
	fmt.Fprintf(os.Stderr, "lone top-K p50 %.3fms over %d requests; closed-loop capacity %.1f reads/s\n", res.values["p50_ms"], len(lone[0].outcomes), rate)

	// read_slo_rps, the traced run's: the open-loop SLO rate search. Its
	// probes pass or fail with the host's load, which moved the rate found
	// by a third between runs, so the untraced run measures capacity closed
	// loop instead.
	if !write && o.trace {
		// The fixed phase's CPU use predicts where the rate saturates the
		// cores; the search starts just below that.
		start := w.fixedRate
		if used := (used1 - used0).Seconds(); used > 0 {
			start = max(start, 0.9*w.fixedRate*fixed.elapsed.Seconds()*float64(runtime.GOMAXPROCS(0))/used)
		}
		slo, probes, err := searchRate(start, share(searchShare), func(i int, rate float64) (*phase, error) {
			reqs, err := phasePlan(int64(30+i), readMix, rate, probeLength)
			if err != nil {
				return nil, err
			}
			return runOpenLoop(st.h, fmt.Sprintf("probe-%d", i), rate, reqs, probeCap, nil), nil
		})
		if err != nil {
			return nil, err
		}
		phases = append(phases, probes...)
		res.values["read_slo_rps"] = slo
		fmt.Fprintf(os.Stderr, "read SLO rate: %.1f reads/s\n", slo)
	}

	st.stopLearner()
	checkServe(res, st, fixed, phases, write)
	rs, ws := st.srv.AdmissionStats()
	res.values["httpapi.shed"] = float64(rs.Shed() + ws.Shed())
	if write {
		layerOnline(res, st)
	}
	if o.trace {
		if err := traceServe(res, st, fixed, o); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// saturationClients is how many closed-loop readers saturate the server:
// enough that both cores always have a read to run. closedRate is the
// nominal rate closed-loop phases plan their reads at, more than they can
// send.
const (
	saturationClients = 8
	closedRate        = 1000
)

// closedLoop runs clients closed-loop readers over the reads of reqs for
// dur while, on the write stack, the feedback events of reqs arrive on
// their open-loop schedule. It returns the reads' phase, then the feedback
// phase if there is one. Unlike an open-loop SLO probe, whose pass or fail
// flips with where the trainer's publish cycle falls in it, a closed loop
// averages over many publish cycles.
func closedLoop(h http.Handler, name string, reqs []request, clients int, dur time.Duration, durable func() uint64) []*phase {
	var reads, feedback []request
	for _, rq := range reqs {
		if rq.kind == traffic.KindFeedback {
			feedback = append(feedback, rq)
		} else {
			reads = append(reads, rq)
		}
	}
	var (
		wg sync.WaitGroup
		fb *phase
	)
	if len(feedback) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fb = runOpenLoop(h, name+"-feedback", 0, feedback, 0, durable)
		}()
	}
	out := []*phase{runClosedLoop(h, name, reads, clients, time.Now().Add(dur))}
	wg.Wait()
	if fb != nil {
		out = append(out, fb)
	}
	return out
}

// searchRate finds the highest offered read rate meeting readSLO. It starts
// from start, multiplies by 1.15 until a probe fails (or divides until one
// passes), then bisects until the bracket is narrower than 3% — a
// resolution well inside the 25% by which a change may make an end-to-end
// metric worse. The first failure of the ramp is probed twice and counts
// only if both fail, so one stray hiccup cannot end the ramp early. The budget is a safety stop, not the usual end: a search cut
// short by time would make the result depend on machine speed twice over.
func searchRate(start float64, budget time.Duration, probe func(i int, rate float64) (*phase, error)) (float64, []*phase, error) {
	deadline := time.Now().Add(budget * 3 / 2)
	var phases []*phase
	try := func(rate float64) (bool, error) {
		ph, err := probe(len(phases), rate)
		if err != nil {
			return false, err
		}
		phases = append(phases, ph)
		met := readSLO.met(ph, probeLength)
		fmt.Fprintf(os.Stderr, "  probe %d: %.1f reads/s met=%v %s", len(phases), rate, met, ph.summary())
		return met, nil
	}
	lo, hi := 0.0, 0.0
	rate := start
	for lo == 0 || hi == 0 {
		if time.Now().After(deadline) && len(phases) > 0 {
			break
		}
		ok, err := try(rate)
		if err == nil && !ok && lo > 0 {
			ok, err = try(rate)
		}
		if err != nil {
			return 0, phases, err
		}
		if ok {
			lo = rate
			if hi == 0 {
				rate *= 1.15
			}
		} else {
			hi = rate
			if lo == 0 {
				rate /= 1.15
			}
		}
		if lo > 0 && hi > 0 {
			break
		}
	}
	for lo > 0 && hi > 0 && (hi-lo)/lo > 0.03 && time.Now().Before(deadline) {
		mid := (lo + hi) / 2
		ok, err := try(mid)
		if err != nil {
			return 0, phases, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, phases, nil
}

type jsonItem struct {
	Object int     `json:"object"`
	Score  float64 `json:"score"`
}

// checkServe verifies every answered request of the run and records the
// attempted and failed counts: ranked lists hold distinct items in
// descending score order drawn from the request's candidates (topk) or the
// catalog (recommend); on a read-only stack a sample of served scores is
// bit-identical to core.Model.Score on a fresh tape; on the write stack
// the WAL holds exactly the acknowledged feedback events, each durable when
// acknowledged (checkDurable), none was dropped, and the serving generation
// advanced.
func checkServe(res *result, st *stack, fixed *phase, phases []*phase, write bool) {
	var sent, failed, shed int
	for _, ph := range phases {
		for _, o := range ph.outcomes {
			sent++
			switch {
			case o.shed():
				shed++
			case !o.ok():
				failed++
				if failed <= 3 {
					res.check(false, "%s %s answered %d: %s", ph.name, o.req.kind, o.code, o.body)
				}
			default:
				if err := checkAnswer(st, o); err != nil {
					res.check(false, "%s %s user %d: %v", ph.name, o.req.kind, o.req.user, err)
				}
			}
		}
	}
	res.attempted, res.failed = int64(sent), int64(failed)
	res.values["failed_frac"] = ratio(float64(failed), float64(sent))
	fmt.Fprintf(os.Stderr, "checked %d requests: %d failed, %d shed\n", sent, failed, shed)
	if !write {
		checkBitIdentical(res, st, fixed)
		return
	}
	ls := st.learner.Stats()
	res.check(ls.Dropped == 0, "online learner dropped %d events", ls.Dropped)
	res.check(st.eng.Generation() > 1, "serving generation never advanced (still %d)", st.eng.Generation())
	checkDurable(res, st, phases)
}

// checkAnswer validates one 2xx response body.
func checkAnswer(st *stack, o outcome) error {
	switch o.req.kind {
	case traffic.KindTopK, traffic.KindRecommend:
		var resp struct {
			Items []jsonItem `json:"items"`
		}
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return err
		}
		allowed := func(obj int) bool { return obj >= 0 && obj < st.ds.NumObjects }
		if o.req.kind == traffic.KindTopK {
			cands := make(map[int]bool, len(o.req.cands))
			for _, c := range o.req.cands {
				cands[c] = true
			}
			allowed = func(obj int) bool { return cands[obj] }
			if len(resp.Items) != topK {
				return fmt.Errorf("%d items, want %d", len(resp.Items), topK)
			}
		} else if len(resp.Items) == 0 || len(resp.Items) > topK {
			return fmt.Errorf("%d items, want 1..%d", len(resp.Items), topK)
		}
		seen := map[int]bool{}
		for i, it := range resp.Items {
			if !allowed(it.Object) {
				return fmt.Errorf("item %d (object %d) not a candidate", i, it.Object)
			}
			if seen[it.Object] {
				return fmt.Errorf("object %d returned twice", it.Object)
			}
			seen[it.Object] = true
			if math.IsNaN(it.Score) || math.IsInf(it.Score, 0) {
				return fmt.Errorf("item %d score %v", i, it.Score)
			}
			if i > 0 && it.Score > resp.Items[i-1].Score {
				return fmt.Errorf("item %d scores above item %d", i, i-1)
			}
		}
	case traffic.KindScore:
		var resp struct {
			Scores []float64 `json:"scores"`
		}
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return err
		}
		if len(resp.Scores) != 1 || math.IsNaN(resp.Scores[0]) || math.IsInf(resp.Scores[0], 0) {
			return fmt.Errorf("scores %v", resp.Scores)
		}
	}
	return nil
}

// bitSample bounds how many answers the tape re-scores.
const bitSample = 40

// checkBitIdentical re-scores a sample of the fixed phase's answers with
// core.Model.Score on a fresh tape and requires bit-identical results. The
// read-only stack serves generation 1 and every user's history is the
// dataset log, so each served instance is reconstructible.
func checkBitIdentical(res *result, st *stack, fixed *phase) {
	checked := 0
	for i := 0; i < len(fixed.outcomes) && checked < bitSample; i++ {
		o := fixed.outcomes[i]
		if !o.ok() {
			continue
		}
		hist := datasetHistory(st.ds, o.req.user)
		base := feature.Instance{User: o.req.user, Hist: hist, UserAttr: feature.Pad, TargetAttr: feature.Pad}
		var items []jsonItem
		switch o.req.kind {
		case traffic.KindScore:
			var resp struct {
				Scores []float64 `json:"scores"`
			}
			if json.Unmarshal(o.body, &resp) != nil || len(resp.Scores) != 1 {
				continue
			}
			items = []jsonItem{{Object: o.req.target, Score: resp.Scores[0]}}
		default:
			var resp struct {
				Items []jsonItem `json:"items"`
			}
			if json.Unmarshal(o.body, &resp) != nil || len(resp.Items) == 0 {
				continue
			}
			items = resp.Items[:1]
		}
		for _, it := range items {
			inst := base
			inst.Target = it.Object
			want := st.model.Score(ag.NewTape(), inst).Value.ScalarValue()
			res.check(math.Float64bits(want) == math.Float64bits(it.Score),
				"%s user %d object %d: served %v, tape %v", o.req.kind, o.req.user, it.Object, it.Score, want)
		}
		checked++
	}
	res.check(checked == bitSample, "only %d answers to re-score, want %d", checked, bitSample)
}

// checkDurable reads the WAL back and requires that its event records are
// exactly the acknowledged feedback events, as a multiset, and that each
// acknowledgement was durable when it arrived: the durable prefix read as
// the k-th 2xx came back holds at least k event records.
func checkDurable(res *result, st *stack, phases []*phase) {
	r, err := st.wal.ReaderAt(1)
	if err != nil {
		res.check(false, "open wal reader: %v", err)
		return
	}
	defer r.Close()
	events := map[[2]int]int{} // durable minus acknowledged, per event
	var seqs []uint64          // the event records' sequence numbers, ascending
	for {
		rec, err := r.NextRecord()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			res.check(false, "read wal: %v", err)
			return
		}
		if rec.Type == wal.RecEvent {
			events[[2]int{rec.User, rec.Object}]++
			seqs = append(seqs, rec.Seq)
		}
	}
	acked, early := 0, 0
	for _, ph := range phases {
		for _, o := range ph.outcomes {
			if o.req.kind != traffic.KindFeedback || !o.ok() {
				continue
			}
			acked++
			events[[2]int{o.req.user, o.req.object}]--
			if sort.Search(len(seqs), func(i int) bool { return seqs[i] > o.durable }) < acked {
				early++
			}
		}
	}
	missing, extra := 0, 0
	for _, c := range events {
		if c < 0 {
			missing -= c
		} else {
			extra += c
		}
	}
	res.check(missing == 0 && extra == 0, "%d acknowledged feedback events are not in the WAL, %d WAL events were not acknowledged", missing, extra)
	res.check(early == 0, "%d feedback events were acknowledged before the WAL's durable prefix covered them", early)
	res.check(acked > 0, "no feedback event was acknowledged")
	fmt.Fprintf(os.Stderr, "durability: %d acknowledged events, %d durable event records\n", acked, len(seqs))
}

// layerOnline reads the write path's own counters after the run.
func layerOnline(res *result, st *stack) {
	ls := st.learner.Stats()
	res.values["online.step_ms"] = ms(st.learner.StepLatency().Quantile(0.5))
	res.values["online.publish_ms"] = ms(st.learner.PublishLatency().Quantile(0.5))
	res.values["online.events_per_step"] = ratio(float64(ls.Ingested), float64(ls.Steps))
	res.values["online.dropped"] = float64(ls.Dropped)
	res.values["serve.swap_ms"] = ms(st.eng.SwapLatency().Quantile(0.5))
	res.values["wal.fsync_ms"] = ms(st.wal.FsyncLatency().Quantile(0.5))
	res.values["wal.records_per_fsync"] = ratio(float64(st.wal.Pos().Seq), float64(st.wal.Fsyncs()))
	res.values["wal.bytes_per_event"] = ratio(float64(st.wal.AppendedBytes()), float64(ls.Ingested))
}
