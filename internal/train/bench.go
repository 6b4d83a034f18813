package train

import (
	"seqfm/internal/core"
	"seqfm/internal/data"
)

// BenchWorkload builds the standard training-benchmark workload shared by
// bench_test.go's BenchmarkTrain* suite and seqfm-bench -mode train: a small
// synthetic check-in dataset (16 users × 300 POIs, ~190 training instances)
// and a SeqFM at the paper's default configuration {d=64, l=1, n.=20}. The
// two harnesses must measure the same workload for BENCH_train.json to stay
// comparable with the go-test benchmark output, so the literals live here.
func BenchWorkload() (*core.Model, *data.Split, error) {
	ds, err := data.GeneratePOI(data.POIConfig{
		Name: "train-bench", Seed: 3, NumUsers: 16, NumPOIs: 300,
		NumClusters: 10, MinLen: 12, MaxLen: 24,
		PSeq: 0.45, PPref: 0.2, PReturn: 0.25, ReturnLag: 3, PrefClusters: 3,
	})
	if err != nil {
		return nil, nil, err
	}
	m, err := core.New(core.DefaultConfig(ds.Space()))
	if err != nil {
		return nil, nil, err
	}
	return m, data.NewSplit(ds), nil
}

// BenchConfig is the one-epoch training configuration the benchmark
// harnesses pair with BenchWorkload.
func BenchConfig(negatives, workers int) Config {
	return Config{Epochs: 1, BatchSize: 64, LR: 1e-3,
		Negatives: negatives, Workers: workers, Seed: 17}
}
