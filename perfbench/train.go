package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"seqfm/internal/ag"
	"seqfm/internal/core"
	"seqfm/internal/data"
	"seqfm/internal/feature"
	"seqfm/internal/optim"
	"seqfm/internal/train"
)

// The train-epoch stand-in: a POI dataset whose training split is cut to a
// fixed instance count, so every seed trains the same amount of work, and
// a fixed number of epochs per training job. The minibatch is smaller than
// the paper's 512 so that three epochs over 2048 instances take enough
// optimizer steps for HR@10 to clear chance by a wide margin.
const (
	trainUsers     = 200
	trainObjects   = 300
	trainInstances = 2048
	trainEpochs    = 3
	trainBatch     = 64
	evalJ          = 100
)

type trainSetup struct {
	split *data.Split
	init  *core.Model // every job trains a clone of these weights
}

func buildTrain(seed int64) (*trainSetup, error) {
	// Each user has one home neighbourhood that half of their check-ins
	// fall in: a preference a few epochs can learn, so the HR@10 check
	// separates a working trainer from chance with a wide margin.
	ds, err := data.GeneratePOI(data.POIConfig{
		Name: "perfbench-train", Seed: seed, NumUsers: trainUsers, NumPOIs: trainObjects,
		NumClusters: trainObjects / 10, MinLen: 12, MaxLen: 60,
		PSeq: 0.3, PPref: 0.5, PReturn: 0.1, ReturnLag: 3, PrefClusters: 1,
	})
	if err != nil {
		return nil, err
	}
	split := data.NewSplit(ds)
	if len(split.Train) < trainInstances {
		return nil, fmt.Errorf("train stand-in has %d training instances, want %d", len(split.Train), trainInstances)
	}
	// A seeded sample across all users (Split.SubsetTrain keeps a prefix,
	// which would hold the first users' instances only).
	keep := rand.New(rand.NewSource(seed)).Perm(len(split.Train))[:trainInstances]
	sort.Ints(keep)
	kept := make([]feature.Instance, len(keep))
	for i, k := range keep {
		kept[i] = split.Train[k]
	}
	sub := *split
	sub.Train = kept
	split = &sub
	cfg := core.DefaultConfig(ds.Space())
	cfg.Seed = seed
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &trainSetup{split: split, init: m}, nil
}

// job is one training run plus its evaluation.
type job struct {
	hist *train.History
	hr10 float64
}

func runJob(ts *trainSetup, seed int64, split *data.Split) (job, error) {
	m := ts.init.Clone()
	// train.Config at its defaults (engine, workers, negatives) apart from
	// the epoch count, minibatch size, learning rate and seed.
	hist, err := train.Ranking(m, split, train.Config{Epochs: trainEpochs, BatchSize: trainBatch, LR: 3e-3, Seed: seed})
	if err != nil {
		return job{}, err
	}
	ev := train.EvalRanking(m, split, train.EvalConfig{J: evalJ, Ks: []int{10}, Seed: seed})
	return job{hist: hist, hr10: ev.HR[10]}, nil
}

func runTrain(o options) (*result, error) {
	res := newResult()
	ts, setup, err := buildRepeated(func() (*trainSetup, error) { return buildTrain(o.seed) }, func(*trainSetup) {})
	if err != nil {
		return nil, err
	}
	res.values["setup_s"] = setup
	heap := startHeapSampler()
	defer heap.finish()

	// Train whole jobs while another one fits in --seconds (at least one).
	var jobs []job
	var epochs []float64
	var trained, total float64
	cpu0 := readCPU()
	start := time.Now()
	for len(jobs) == 0 || time.Since(start)*time.Duration(len(jobs)+1)/time.Duration(len(jobs)) <= time.Duration(o.seconds)*time.Second {
		j, err := runJob(ts, o.seed, ts.split)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
		for _, e := range j.hist.Epochs {
			epochs = append(epochs, ms(e.Duration))
		}
		trained += float64(len(ts.split.Train) * len(j.hist.Epochs))
		total += j.hist.Total.Seconds()
		fmt.Fprintf(os.Stderr, "train job %d: %d epochs in %.2fs, final loss %.4f, HR@10 %.4f\n",
			len(jobs), len(j.hist.Epochs), j.hist.Total.Seconds(), j.hist.FinalLoss(), j.hr10)
	}
	res.values["runtime.gc_cpu_frac"] = gcFrac(cpu0, readCPU())
	res.values["heap_mb"] = heap.finish()
	res.values["p50_ms"] = medianFloat(epochs)
	res.values["rate_per_s"] = trained / total
	res.values["hr_at_10"] = jobs[0].hr10
	res.attempted = int64(trained) + int64(len(jobs)*len(ts.split.Test))

	// Output checks: a finite loss, HR@10 above the chance level of a
	// random ranking of J+1 items, and — the determinism contract of a
	// fixed {Seed, Workers} — identical results from every job.
	chance := 10.0 / (evalJ + 1)
	for i, j := range jobs {
		loss := j.hist.FinalLoss()
		res.check(!math.IsNaN(loss) && !math.IsInf(loss, 0), "job %d: final loss %v", i, loss)
		res.check(j.hr10 > chance, "job %d: HR@10 %.4f does not beat chance %.4f", i, j.hr10, chance)
		res.check(j.hr10 == jobs[0].hr10 && loss == jobs[0].hist.FinalLoss(),
			"job %d: HR@10 %v / loss %v differ from job 0's %v / %v", i, j.hr10, loss, jobs[0].hr10, jobs[0].hist.FinalLoss())
	}
	if o.trace {
		if err := traceTrain(res, ts, o, total/float64(len(jobs))); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceTrain reports the training layers: one minibatch step rebuilt from
// the default (tape) engine's public calls on one goroutine, with a span
// around each instance's forward and backward and around the optimizer
// step; and the paper's Fig. 4 scalability anchor, the time to train the
// full training set over the time to train half of it.
func traceTrain(res *result, ts *trainSetup, o options, fullJob float64) error {
	half, err := runJob(ts, o.seed, ts.split.SubsetTrain(0.5))
	if err != nil {
		return err
	}
	res.values["train.scaling_ratio"] = ratio(fullJob, half.hist.Total.Seconds())

	if err := checkDefaultEngineIsTape(ts); err != nil {
		return err
	}
	batch := ts.split.Train[:trainBatch]
	untraced := traceStep(ts, o.seed, batch, nil)
	tr := newTracer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	traced := traceStep(ts, o.seed, batch, tr)
	runtime.ReadMemStats(&m1)
	spans := tr.spans
	res.values["train.forward_ms"] = ms(sum(durations(spans, "train.forward")))
	res.values["train.backward_ms"] = ms(sum(durations(spans, "train.backward")))
	res.values["train.optim_ms"] = ms(sum(durations(spans, "train.optim")))
	res.values["train.allocs_per_step"] = float64(m1.Mallocs - m0.Mallocs)
	res.values["trace.coverage.train_step"] = medianFloat(coverage(spans, "train.step"))
	res.values["trace.overhead_ratio"] = ratio(float64(traced), float64(untraced))
	return tr.write(filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed)))
}

// specless hides a SeqFM's compilable spec, leaving only the training
// interface.
type specless struct{ train.SharedScorer }

// checkDefaultEngineIsTape fails the traced run unless a train.Config left
// at its defaults trains on the tape engine, the engine traceStep rebuilds;
// otherwise the train.* metrics would go on timing an engine training no
// longer uses. It asks the trainer: the compiled engine refuses a model
// without a compilable spec and the tape engine takes any model, so a
// default-config Stepper over a spec-less SeqFM builds only while the
// default is the tape. The explicit compiled engine must refuse the same
// model, or the probe cannot tell the two apart.
func checkDefaultEngineIsTape(ts *trainSetup) error {
	m, ds := specless{ts.init.Clone()}, ts.split.Dataset()
	if _, err := train.NewStepper(m, ds, data.Ranking, nil, train.Config{Engine: train.EngineCompiled}); err == nil {
		return fmt.Errorf("the compiled training engine accepts a model without a spec; the default-engine probe needs revisiting")
	}
	if _, err := train.NewStepper(m, ds, data.Ranking, nil, train.Config{}); err != nil {
		return fmt.Errorf("the default training engine is no longer the tape engine that the traced step rebuilds (%v); rebuild the step for the new default", err)
	}
	return nil
}

// traceStep runs one BPR minibatch step of the tape engine through its
// public calls — negative sampling, ForwardDynamic/ForwardCandidate and the
// loss ops, Backward and FlushGradsTo, optim.StepShards — and returns its
// duration. With a tracer it records the step as a root span with forward,
// backward and optimizer children.
func traceStep(ts *trainSetup, seed int64, batch []feature.Instance, tr *tracer) time.Duration {
	m := ts.init.Clone()
	params := m.Params()
	ds := ts.split.Dataset()
	t := ag.NewTrainingTape(rand.New(rand.NewSource(seed + 1)))
	sampler := data.NewNegativeSampler(ds, rand.New(rand.NewSource(seed+2)))
	shard := ag.NewGradShard(params)
	opt := optim.NewAdam(params, 1e-3) // NewStepper's default optimizer at the default LR
	negatives := 5                     // train.Config's default, the paper's five sampled negatives
	invBatch := 1 / float64(len(batch))
	span := func(name string, parent int, f func()) {
		if tr == nil {
			f()
			return
		}
		tr.timed(name, parent, 1, f)
	}
	start := time.Now()
	root := 0
	if tr != nil {
		root = tr.begin("train.step", 0, 1)
	}
	for _, inst := range batch {
		var loss *ag.Node
		span("train.forward", root, func() {
			t.Reset()
			dyn := m.ForwardDynamic(t, inst.Hist)
			pos := m.ForwardCandidate(t, dyn, inst)
			terms := make([]*ag.Node, 0, negatives)
			for k := 0; k < negatives; k++ {
				neg := m.ForwardCandidate(t, dyn, ds.WithTargetObject(inst, sampler.Sample(inst.User)))
				terms = append(terms, t.Softplus(t.Sub(neg, pos)))
			}
			loss = t.Scale(invBatch, t.MeanScalars(terms))
		})
		span("train.backward", root, func() {
			t.Backward(loss)
			t.FlushGradsTo(shard)
		})
	}
	span("train.optim", root, func() { optim.StepShards(opt, []*ag.GradShard{shard}, 0) })
	if tr != nil {
		tr.end(root)
	}
	return time.Since(start)
}

func sum(xs samples) time.Duration {
	var s time.Duration
	for _, x := range xs {
		s += x
	}
	return s
}
