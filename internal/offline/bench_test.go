package offline

import (
	"sync"
	"testing"

	"glider/internal/ml"
	"glider/internal/workload"
)

// BenchmarkTrainLSTM compares end-to-end epoch throughput of the serial
// per-sequence trainer against the data-parallel minibatch trainer. The
// batch16-workers4 case is the configuration the acceptance bar measures:
// it must train ≥ 2× faster than serial.

var (
	benchOnce sync.Once
	benchData *Dataset
	benchErr  error
)

func benchDataset(b *testing.B) *Dataset {
	b.Helper()
	benchOnce.Do(func() {
		spec, err := workload.Lookup("omnetpp")
		if err != nil {
			benchErr = err
			return
		}
		benchData, benchErr = BuildDataset(spec, 120000, 42)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchData
}

func BenchmarkTrainLSTM(b *testing.B) {
	d := benchDataset(b)
	cases := []struct {
		name           string
		batch, workers int
	}{
		{"serial", 1, 1},
		{"batch16-workers1", 16, 1},
		{"batch16-workers2", 16, 2},
		{"batch16-workers4", 16, 4},
	}
	const seqsPerEpoch = 128
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			opts := LSTMOptions{
				HistoryLen:        30,
				Epochs:            1,
				MaxTrainSequences: seqsPerEpoch,
				MaxEvalSequences:  1, // keep eval out of the training measurement
				BatchSize:         c.batch,
				Workers:           c.workers,
				Config:            ml.FastConfig(1),
				Seed:              1,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := TrainLSTM(d, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(seqsPerEpoch)*float64(b.N)/b.Elapsed().Seconds(), "seqs/s")
		})
	}
}
