package main

import (
	"context"
	"fmt"
	"time"

	"glider/internal/cache"
	"glider/internal/cpu"
	"glider/internal/ml"
	"glider/internal/obs"
	"glider/internal/offline"
	"glider/internal/opt"
	"glider/internal/workload"
)

// Train sizes: the Figure 9 offline attention-LSTM, well beyond
// experiments.Quick(). One operation labels one offline benchmark's LLC
// stream with Belady's MIN (offline.BuildDataset from the warm trace store)
// and trains the LSTM on it.
const (
	trainAccesses = 200_000
	trainSetups   = 7
	trainLimit    = 30.0 // seconds; an operation slower than this misses goodput
)

func trainOptions(r *run) offline.LSTMOptions {
	o := offline.DefaultLSTMOptions()
	o.Epochs, o.MaxTrainSequences, o.MaxEvalSequences = 2, 400, 100
	o.Workers, o.Seed = r.workers, r.opts.seed
	if r.opts.tiny {
		o.Epochs, o.MaxTrainSequences, o.MaxEvalSequences = 1, 48, 20
	}
	return o
}

// trainOutcome is one dataset's training result, for the checks.
type trainOutcome struct {
	Dataset  string
	Accuracy []float64
	Baseline float64
}

// runTrain measures dataset-and-train operations over workload.OfflineSet,
// cycling through the benchmarks until the measured time is up.
func runTrain(r *run) error {
	accesses := trainAccesses
	if r.opts.tiny {
		accesses = 40_000
	}
	specs := workload.OfflineSet()
	var keys []traceKey
	for _, s := range specs {
		keys = append(keys, traceKey{s, accesses, r.opts.seed})
	}
	var err error
	if r.e2e["setup_s"], err = setupMedian(trainSetups, func() error { return generateAll(r, keys) }); err != nil {
		return err
	}
	opts := trainOptions(r)
	if r.tr != nil {
		return trainTraced(r, specs, accesses, opts)
	}

	outcomes := make([]*trainOutcome, len(specs))
	rss := startRSS()
	defer rss.close()
	var lat, rates, peaks []float64
	var oks []bool
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < r.opts.seconds; i++ {
		k := i % len(specs)
		rss.take()
		t0 := time.Now()
		out, err := trainOp(specs[k], accesses, r.opts.seed, opts)
		d := time.Since(t0).Seconds()
		peaks = append(peaks, rss.take())
		lat, oks = append(lat, d), append(oks, err == nil)
		if err != nil {
			fmt.Fprintf(r.log, "train %s: %v\n", specs[k].Name, err)
			continue
		}
		rates = append(rates, float64(accesses)/d)
		if outcomes[k] == nil {
			outcomes[k] = &out
		} else {
			r.check("train.repeat."+specs[k].Name, digestOf(out) == digestOf(*outcomes[k]), fmt.Sprint(out.Accuracy))
		}
	}
	wall := time.Since(start).Seconds()
	r.e2e["sim_accesses_per_s"] = median(rates)
	r.e2e["peak_rss_mb"] = median(peaks)
	r.latencyMetrics(lat, oks, trainLimit, wall)
	fmt.Fprintf(r.log, "train: %d operations of %d accesses, %d epochs × %d sequences\n", len(lat), accesses, opts.Epochs, opts.MaxTrainSequences)

	// Datasets the measured window did not reach are trained now, so the
	// digest always covers all of them.
	for k, o := range outcomes {
		if o == nil {
			out, err := trainOp(specs[k], accesses, r.opts.seed, opts)
			if err != nil {
				r.check("train.late."+specs[k].Name, false, err.Error())
				continue
			}
			outcomes[k] = &out
		}
	}
	trainChecks(r, outcomes)
	return nil
}

// trainOp builds one dataset and trains the LSTM on it.
func trainOp(spec workload.Spec, accesses int, seed int64, opts offline.LSTMOptions) (trainOutcome, error) {
	d, err := offline.BuildDataset(spec, accesses, seed)
	if err != nil {
		return trainOutcome{}, err
	}
	_, res, err := offline.TrainLSTM(d, opts)
	if err != nil {
		return trainOutcome{}, err
	}
	return trainOutcome{Dataset: d.Name, Accuracy: res.EpochAccuracy, Baseline: majorityBaseline(d)}, nil
}

// majorityBaseline is the accuracy of always predicting the test split's
// majority label.
func majorityBaseline(d *offline.Dataset) float64 {
	test := d.Labels[d.TrainEnd:]
	friendly := 0
	for _, l := range test {
		if l {
			friendly++
		}
	}
	if len(test) == 0 {
		return 0
	}
	f := float64(friendly) / float64(len(test))
	return max(f, 1-f)
}

// trainChecks requires the trained models to beat the majority-class
// baseline on the offline set as a whole (mean final accuracy against mean
// baseline; per-dataset figures are logged, not counted, because a dataset
// whose test split is all one class cannot be beaten) and records the
// digest of every accuracy curve.
func trainChecks(r *run, outcomes []*trainOutcome) {
	var all []trainOutcome
	var acc, base []float64
	for _, o := range outcomes {
		if o == nil {
			continue
		}
		final := o.Accuracy[len(o.Accuracy)-1]
		fmt.Fprintf(r.log, "train %-8s final accuracy %.4f, majority baseline %.4f\n", o.Dataset, final, o.Baseline)
		acc, base = append(acc, final), append(base, o.Baseline)
		all = append(all, *o)
	}
	r.check("train.beats_majority", len(acc) > 0 && mean(acc) > mean(base), fmt.Sprintf("mean accuracy %.4f vs mean baseline %.4f", mean(acc), mean(base)))
	r.checkDigest(digestOf(all))
}

// trainTraced runs each dataset once with spans around dataset building,
// training and evaluation, and decomposes dataset building into the L1/L2
// filter and MIN labelling. Each operation first runs untraced, as the
// overhead reference.
func trainTraced(r *run, specs []workload.Spec, accesses int, opts offline.LSTMOptions) error {
	r.layers["workload.generate_ms"] /= trainSetups // generateAll accumulated every set-up
	seed := r.opts.seed

	reg := obs.NewRegistry()
	traced := opts
	traced.Obs = reg
	var untraced, tracedOps, dataset, eval, label, upper time.Duration
	labelled, filtered := 0, 0
	outcomes := make([]*trainOutcome, len(specs))
	for k, spec := range specs {
		t0 := time.Now()
		if _, err := trainOp(spec, accesses, seed, opts); err != nil {
			return err
		}
		untraced += time.Since(t0)

		op := r.tr.begin("train.op", spec.Name, 0)
		var d *offline.Dataset
		dd, err := r.tr.timed("offline.dataset", spec.Name, op, func() error {
			var err error
			d, err = offline.BuildDataset(spec, accesses, seed)
			return err
		})
		if err != nil {
			r.tr.end(op)
			r.check("layers.train."+spec.Name, false, err.Error())
			continue
		}
		var res offline.TrainResult
		var lstm *ml.AttentionLSTM
		td, err := r.tr.timed("offline.train", spec.Name, op, func() error {
			var err error
			lstm, res, err = offline.TrainLSTM(d, traced)
			return err
		})
		r.tr.end(op)
		if err != nil {
			r.check("layers.train."+spec.Name, false, err.Error())
			continue
		}
		tracedOps += dd + td
		dataset += dd
		outcomes[k] = &trainOutcome{Dataset: d.Name, Accuracy: res.EpochAccuracy, Baseline: majorityBaseline(d)}

		ed, _ := r.tr.timed("offline.eval", spec.Name, 0, func() error {
			offline.EvalLSTM(lstm, d.Sequences(opts.HistoryLen, false), opts.MaxEvalSequences, opts.Seed)
			return nil
		})
		eval += ed

		// BuildDataset's two stages, from outside: the L1/L2 filter that
		// yields the LLC stream, then MIN labelling of that stream.
		t, err := workload.SharedE(spec, accesses, seed)
		if err != nil {
			return err
		}
		var stream cpu.FunctionalResult
		ud, err := r.tr.timed("cache.upper", spec.Name, 0, func() error {
			h, err := cache.NewHierarchy(1, recorderLLC, &llcRecorder{}, nil)
			if err != nil {
				return err
			}
			stream, err = cpu.RunFunctional(context.Background(), t, h, 0, true)
			return err
		})
		if err != nil {
			return err
		}
		upper += ud
		filtered += t.Len()
		ld, _ := r.tr.timed("opt.label", spec.Name, 0, func() error {
			opt.LabelTrace(stream.LLCStream, cache.LLCConfig.Sets, cache.LLCConfig.Ways)
			return nil
		})
		label += ld
		labelled += stream.LLCStream.Len()
		r.check("layers.train_stream."+spec.Name, d.Len() == int(float64(stream.LLCStream.Len())*0.8), fmt.Sprintf("dataset %d of stream %d", d.Len(), stream.LLCStream.Len()))
	}
	n := float64(len(specs))
	r.layers["offline.dataset_ms"] = 1000 * dataset.Seconds() / n
	r.layers["offline.eval_ms"] = 1000 * eval.Seconds() / n
	if epochs := reg.Timer("offline.epoch.seconds").Histogram(); epochs.Count() > 0 {
		r.layers["offline.epoch_ms"] = 1000 * epochs.Mean()
	}
	if labelled > 0 {
		r.layers["opt.label_ns_per_access"] = float64(label.Nanoseconds()) / float64(labelled)
	}
	if filtered > 0 {
		r.layers["cache.upper_ns_per_access"] = float64(upper.Nanoseconds()) / float64(filtered)
	}
	r.layers["bench.trace_overhead_frac"] = float64(tracedOps)/float64(untraced) - 1
	trainChecks(r, outcomes)
	return nil
}
