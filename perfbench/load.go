package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seqfm/internal/core"
	"seqfm/internal/data"
	"seqfm/internal/index"
	"seqfm/internal/traffic"
)

// Request-shape constants. J is the paper's evaluation depth and, at K=10,
// also the engine's default retrieval depth, max(10·K,
// serve.DefaultMinRetrieve); topk requests carry an explicit candidate list
// of that size, because /v1/topk without candidates scores the whole
// catalog.
const (
	candidatesJ = 100
	topK        = 10
)

var kinds = []traffic.Kind{traffic.KindScore, traffic.KindTopK, traffic.KindRecommend, traffic.KindFeedback}

var paths = map[traffic.Kind]string{
	traffic.KindScore:     "/v1/score",
	traffic.KindTopK:      "/v1/topk",
	traffic.KindRecommend: "/v1/recommend",
	traffic.KindFeedback:  "/v1/feedback",
}

// request is one planned arrival with its ready-to-send body.
type request struct {
	at   time.Duration // scheduled offset from the phase start
	kind traffic.Kind
	user int
	body []byte
	// cands are a topk request's candidates; target is a score request's
	// target, object a feedback event's object.
	cands  []int
	target int
	object int
}

// retrievalCandidates gives every user the J objects the stack's own
// retrieval stage returns for their dataset history: the served model's
// retrieval query scored against its item embeddings, with the history
// excluded as Engine.RecommendOn excludes it. It runs the exact scan
// (index.Flat) that the engine's HNSW index approximates, so the lists
// depend on the seed alone and not on how the graph was built. A top-K
// request sends its user's list, as a two-stage recommender sends its
// retrieval output to the ranker.
func retrievalCandidates(m *core.Model, ds *data.Dataset) [][]int {
	flat := index.NewFlat(index.BuildStore(ds.Objects(), m.EmbedDim(), m.ObjectEmbedding))
	query := make([]float64, m.EmbedDim())
	out := make([][]int, ds.NumUsers)
	for u := range out {
		hist := datasetHistory(ds, u)
		seen := make(map[int]bool, len(hist))
		for _, o := range hist {
			seen[o] = true
		}
		m.RetrievalQuery(u, hist, query)
		for _, r := range flat.Search(query, candidatesJ, func(id int) bool { return seen[id] }) {
			out[u] = append(out[u], r.ID)
		}
	}
	return out
}

// planner turns a traffic.Plan schedule into requests with this benchmark's
// bodies. The schedule (arrival instants, Zipf users, endpoint mix) is
// traffic.Plan's; the bodies are rebuilt so topk carries the user's J
// retrieved candidates, score and feedback name one of them, and score
// carries the user's real history.
type planner struct {
	ds    *data.Dataset
	cands [][]int // per user, from retrievalCandidates
}

// plan schedules rate requests/s of mix over dur, deterministically in seed.
func (p *planner) plan(seed int64, rate float64, dur time.Duration, mix traffic.Mix) ([]request, error) {
	sched, err := traffic.Plan(traffic.Config{
		Seed: seed, Rate: rate, Duration: dur,
		Users: p.ds.NumUsers, Objects: p.ds.NumObjects, Mix: mix,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x601d))
	out := make([]request, len(sched))
	for i, s := range sched {
		out[i] = p.build(rng, s.At, s.Kind, s.User)
	}
	return out, nil
}

func (p *planner) build(rng *rand.Rand, at time.Duration, k traffic.Kind, user int) request {
	cands := p.cands[user]
	rq := request{at: at, kind: k, user: user}
	var b bytes.Buffer
	switch k {
	case traffic.KindTopK:
		rq.cands = cands
		fmt.Fprintf(&b, `{"user":%d,"candidates":%s,"k":%d}`, user, intList(rq.cands), topK)
	case traffic.KindRecommend:
		fmt.Fprintf(&b, `{"user":%d,"k":%d}`, user, topK)
	case traffic.KindScore:
		rq.target = cands[rng.Intn(len(cands))]
		fmt.Fprintf(&b, `{"instances":[{"user":%d,"target":%d,"hist":%s}]}`, user, rq.target, intList(datasetHistory(p.ds, user)))
	default:
		rq.object = cands[rng.Intn(len(cands))]
		fmt.Fprintf(&b, `{"user":%d,"object":%d}`, user, rq.object)
	}
	rq.body = b.Bytes()
	return rq
}

// merge interleaves request streams by scheduled instant (stable, so equal
// instants keep their stream order).
func merge(streams ...[]request) []request {
	var out []request
	for _, s := range streams {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

func datasetHistory(ds *data.Dataset, user int) []int {
	hist := make([]int, len(ds.Users[user]))
	for i, it := range ds.Users[user] {
		hist[i] = it.Object
	}
	return hist
}

func intList(xs []int) string {
	b := make([]byte, 0, 6*len(xs)+2)
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return string(append(b, ']'))
}

// outcome is one answered request.
type outcome struct {
	req  *request
	code int
	// lat runs from the scheduled instant to the response, so a stalled
	// generator or a queue in front of the handler counts against it.
	lat  time.Duration
	body []byte
	// durable is the WAL's durable sequence number read as a feedback
	// event's 2xx came back (0 otherwise).
	durable uint64
}

func (o outcome) ok() bool { return o.code >= 200 && o.code < 300 }

// shed reports an explicit overload rejection (429, or 503 with
// Retry-After), counted apart from failures.
func (o outcome) shed() bool {
	return o.code == http.StatusTooManyRequests || o.code == http.StatusServiceUnavailable
}

// phase is one open-loop run's outcomes.
type phase struct {
	name     string
	rate     float64 // offered reads/s
	outcomes []outcome
	lag      samples // how late the generator dispatched each request
	aborted  bool    // the backlog cap stopped dispatch early
	elapsed  time.Duration
}

// runOpenLoop replays reqs against h in open loop: each request is
// dispatched at its scheduled instant, concurrently with whatever is still
// in flight, and timed from that instant. When maxInFlight > 0 and the
// backlog exceeds it, dispatch stops and the phase is marked aborted — the
// rate search's way of ending a probe that can no longer pass. When durable
// is non-nil it is read as each feedback 2xx arrives, and the outcomes keep
// the order the answers arrived in.
func runOpenLoop(h http.Handler, name string, rate float64, reqs []request, maxInFlight int, durable func() uint64) *phase {
	ph := &phase{name: name, rate: rate, outcomes: make([]outcome, 0, len(reqs)), lag: make(samples, 0, len(reqs))}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		inFlight atomic.Int64
	)
	start := time.Now()
	for i := range reqs {
		rq := &reqs[i]
		due := start.Add(rq.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if maxInFlight > 0 && inFlight.Load() > int64(maxInFlight) {
			ph.aborted = true
			break
		}
		ph.lag = append(ph.lag, time.Since(due))
		inFlight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inFlight.Add(-1)
			w := serveHTTP(h, rq)
			o := outcome{req: rq, code: w.Code, lat: time.Since(due), body: w.Body.Bytes()}
			mu.Lock()
			if durable != nil && rq.kind == traffic.KindFeedback && o.ok() {
				o.durable = durable()
			}
			ph.outcomes = append(ph.outcomes, o)
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

// runClosedLoop sends reqs from clients goroutines, each sending its next
// request as soon as its previous one answers, until reqs run out or the
// deadline, when set, passes. Each request is timed from its dispatch.
func runClosedLoop(h http.Handler, name string, reqs []request, clients int, deadline time.Time) *phase {
	ph := &phase{name: name}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next atomic.Int64
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for deadline.IsZero() || time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					return
				}
				rq := &reqs[i]
				t0 := time.Now()
				w := serveHTTP(h, rq)
				o := outcome{req: rq, code: w.Code, lat: time.Since(t0), body: w.Body.Bytes()}
				mu.Lock()
				ph.outcomes = append(ph.outcomes, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

// kindStats summarises one endpoint class of a phase.
type kindStats struct {
	sent, ok, shed, failed int
	// lat holds every request's latency from its scheduled instant; a shed
	// or failed request reads as +Inf, missing every latency limit.
	lat samples
}

func (ph *phase) stats(k traffic.Kind) kindStats {
	var ks kindStats
	for _, o := range ph.outcomes {
		if o.req.kind != k {
			continue
		}
		ks.sent++
		lat := o.lat
		switch {
		case o.ok():
			ks.ok++
		case o.shed():
			ks.shed++
			lat = math.MaxInt64
		default:
			ks.failed++
			lat = math.MaxInt64
		}
		ks.lat = append(ks.lat, lat)
	}
	return ks
}

// summary is one line per endpoint: sent, ok, shed, failed, p50 and tail.
func (ph *phase) summary() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "phase %s: offered %.1f reads/s, %d requests in %.2fs, generator lag p99 %.3fms, aborted=%v\n",
		ph.name, ph.rate, len(ph.outcomes), ph.elapsed.Seconds(), ms(ph.lag.quantile(0.99)), ph.aborted)
	for _, k := range kinds {
		ks := ph.stats(k)
		if ks.sent == 0 {
			continue
		}
		tp := tailPercentile(ks.sent)
		fmt.Fprintf(&b, "  %-9s sent=%d ok=%d shed=%d failed=%d p50=%.3fms p%g=%.3fms\n",
			k, ks.sent, ks.ok, ks.shed, ks.failed, ms(ks.lat.quantile(0.5)), tp, ms(ks.lat.quantile(tp/100)))
	}
	return b.String()
}

// slo is the read service-level objective the rate search holds: at least
// minOK of the offered reads answer 2xx within limit of their scheduled
// instant, and the backlog never passes the probe's in-flight cap.
type slo struct {
	limit time.Duration
	minOK float64
}

// met judges a probe of the given length window by window (sloWindows
// equal windows by scheduled instant) and passes it when most windows meet
// the objective. A growing backlog fails the later windows, so it still
// fails the probe; a burst of interference from outside the process fails
// one window, and does not.
func (s slo) met(ph *phase, length time.Duration) bool {
	if ph.aborted {
		return false
	}
	var good, planned [sloWindows]int
	for _, o := range ph.outcomes {
		if o.req.kind == traffic.KindFeedback {
			continue
		}
		i := min(int(int64(o.req.at)*sloWindows/int64(length)), sloWindows-1)
		planned[i]++
		if o.ok() && o.lat <= s.limit {
			good[i]++
		}
	}
	passed := 0
	for i := range good {
		if float64(good[i]) >= s.minOK*float64(planned[i]) {
			passed++
		}
	}
	return passed > sloWindows/2
}

// sloWindows is how many windows met splits a probe into.
const sloWindows = 3
