// Command perfbench is the repository's benchmark. One invocation runs one
// named workload with a seed and prints every metric by name and unit as
// the last line of standard output:
//
//	bash perfbench/run.sh --workload sweep --seed 42 --seconds 35 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that records spans around the benchmark's calls into each layer and
// reports the per-layer metrics instead. Every run checks the program's
// outputs (digests, bit-for-bit re-runs, byte-identical responses) and
// counts failed checks with failed operations. See README.md.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// Seeds. DefaultSeed is the seed whose output digests are recorded in
// digests.json; HeldOutSeed is kept out of tuning, for confirming a claim on
// inputs the change was not written against.
const (
	DefaultSeed = 42
	HeldOutSeed = 7919
)

//go:embed digests.json
var digestsJSON []byte

// options are the command-line arguments plus where the run may write.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // tiny sizes, for the self-tests
	build    string // scratch directory for spans, ledgers and temp files
}

// run is the state one workload run accumulates.
type run struct {
	opts    options
	tr      *tracer
	log     io.Writer
	workers int

	attempted, failed int
	e2e               map[string]float64
	layers            map[string]float64
}

// op counts one operation of the workload (a cell, job, request or
// training operation) and whether it succeeded.
func (r *run) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// check counts one output check and logs its verdict.
func (r *run) check(name string, ok bool, detail string) {
	r.op(ok)
	verdict := "ok"
	if !ok {
		verdict = "FAILED"
	}
	fmt.Fprintf(r.log, "check %-40s %s %s\n", name, verdict, detail)
}

// checkDigest compares a workload's simulated-statistics digest with the
// recorded one. Only default-seed, full-size runs have a recorded value.
func (r *run) checkDigest(digest string) {
	fmt.Fprintf(r.log, "digest %s %s\n", r.opts.workload, digest)
	if r.opts.seed != DefaultSeed || r.opts.tiny {
		return
	}
	var recorded map[string]string
	if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
		r.check("digest.recorded", false, err.Error())
		return
	}
	want, ok := recorded[r.opts.workload]
	r.check("digest.recorded", ok && want == digest, "want "+want)
}

// workloadFn runs one workload: set-up (repeated, timed), the measured
// phase, and its output checks, filling r.e2e or (traced) r.layers.
type workloadFn func(r *run) error

var workloads = map[string]workloadFn{
	"sweep":     runSweep,
	"multicore": runMulticore,
	"serve":     runServe,
	"train":     runTrain,
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: sweep, multicore, serve or train")
	flag.Int64Var(&o.seed, "seed", DefaultSeed, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 35, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	flag.StringVar(&o.build, "build", ".bench_build", "directory for spans and temporary files")
	flag.Parse()
	o.trace = *traceFlag == 1
	res, err := execute(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload and assembles the result line. Temporary files
// live in a per-process directory under o.build, removed at the end; a
// traced run leaves its spans in o.build/spans.
func execute(o options, log io.Writer) (result, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want sweep, multicore, serve or train)", o.workload)
	}
	if o.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	build := o.build
	tmp, err := filepath.Abs(filepath.Join(build, "perfbench-tmp", fmt.Sprintf("%s-%d", o.workload, os.Getpid())))
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)
	o.build = tmp

	r := &run{opts: o, log: log, workers: runtime.GOMAXPROCS(0), e2e: map[string]float64{}, layers: map[string]float64{}}
	if o.trace {
		r.tr = newTracer()
	}
	if err := fn(r); err != nil {
		return result{}, err
	}

	values, want := r.e2e, endToEnd
	if o.trace {
		err := r.tr.validate()
		r.check("spans.nest", err == nil, fmt.Sprintf("%d spans %v", len(r.tr.spans), err))
		path := filepath.Join(build, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return result{}, err
		}
		if err := r.tr.write(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(log, "spans written to %s\n", path)
		values, want = r.layers, perLayer()
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range want {
		res.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	return res, nil
}

// setupMedian runs fn n times and returns the median duration in seconds.
// The state of the last run is the one the measured phase uses. Each
// repetition starts with the heap collected and its free memory returned
// to the OS, so every repetition allocates from the same state instead of
// depending on when the runtime's background scavenger last ran.
func setupMedian(n int, fn func() error) (float64, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		debug.FreeOSMemory()
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	return median(ds), nil
}

// repeatUnits runs unit until the measured time is up, at least once. A
// unit returns the trace accesses it simulated and a digest of its
// statistics; every unit must repeat the first unit's digest. It returns
// each unit's access rate and peak resident set, and the first digest.
func (r *run) repeatUnits(name string, unit func() (accesses int, digest string, err error)) (rates, peaks []float64, first string) {
	rss := startRSS()
	defer rss.close()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < r.opts.seconds; i++ {
		rss.take()
		t0 := time.Now()
		n, digest, err := unit()
		wall := time.Since(t0).Seconds()
		peaks = append(peaks, rss.take())
		switch {
		case err != nil:
			r.check(name+".unit", false, err.Error())
		case first == "":
			first = digest
			rates = append(rates, float64(n)/wall)
		default:
			r.check(fmt.Sprintf("%s.unit%d_repeats_first", name, i), digest == first, "")
			rates = append(rates, float64(n)/wall)
		}
	}
	fmt.Fprintf(r.log, "%s: %d units, accesses/s per unit %.4g\n", name, len(peaks), rates)
	return rates, peaks, first
}

// latencyMetrics counts one operation per request and fills the latency
// and goodput metrics from per-request latencies (seconds), success flags,
// the latency limit and the measured wall time.
func (r *run) latencyMetrics(lat []float64, ok []bool, limit, wall float64) {
	r.e2e["req_p50_ms"] = 1000 * quantile(lat, 0.50)
	r.e2e["req_p95_ms"] = 1000 * quantile(lat, 0.95)
	good := 0
	for i, l := range lat {
		r.op(ok[i])
		if ok[i] && l <= limit {
			good++
		}
	}
	r.e2e["goodput_rps"] = float64(good) / wall
	fmt.Fprintf(r.log, "requests %d, within %.3gs limit %d, p50 %.3f ms, p95 %.3f ms\n",
		len(lat), limit, good, r.e2e["req_p50_ms"], r.e2e["req_p95_ms"])
}

// median returns the middle value (mean of the two middles), 0 if empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean, 0 if empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile returns the q-quantile by linear interpolation between order
// statistics, 0 if empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// digestOf hashes values' JSON encoding. Floats encode with every
// significant digit, so the digest changes with any bit of any statistic.
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of numbers and strings are hashed
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// rssSampler polls the process's resident set every 10 ms and keeps the
// peak since the last reset, so each unit of work gets its own peak.
type rssSampler struct {
	mu   sync.Mutex
	peak int64
	stop chan struct{}
	done chan struct{}
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return
	}
	s.mu.Lock()
	s.peak = max(s.peak, resident*int64(os.Getpagesize()))
	s.mu.Unlock()
}

// take returns the peak in MiB since the last take and resets it.
func (s *rssSampler) take() float64 {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.peak
	s.peak = 0
	return float64(p) / (1 << 20)
}

// close stops the sampler and waits for it.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}
