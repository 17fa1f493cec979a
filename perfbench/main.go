// Command perfbench is OREO's end-to-end benchmark. One process drives
// the real leader serve.Core, its HTTP server, the client SDK and an
// in-process replica.Follower over loopback, on one of three workloads:
//
//	decide  the decision path: a drifting TPC-H stream fed through Core.Observe
//	read    the read path: closed-loop executed queries over a fixed layout
//	write   the write path: appends with auto-compaction, a reader and a follower
//
// Every run checks the program's answers against oracles computed here
// from the benchmark's own inputs, and prints as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0
// the metrics are the end-to-end ones; with -trace 1 a separate traced
// run reports per-layer metrics and writes its spans under
// .bench_build/spans. See README.md for the metric catalog.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// spanDir is where a traced run writes its span file.
	spanDir string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opCount tallies one operation type's attempts and failures.
type opCount struct {
	name      string
	attempted int
	failed    int
}

// report collects a run's metrics, operation counts and check failures.
type report struct {
	metrics map[string]metric
	ops     []*opCount
	// failures are the output checks that did not hold.
	failures []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// set records a metric.
func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// op returns the counter for one operation type, creating it on first use.
func (r *report) op(name string) *opCount {
	for _, o := range r.ops {
		if o.name == name {
			return o
		}
	}
	o := &opCount{name: name}
	r.ops = append(r.ops, o)
	return o
}

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func main() {
	workload := flag.String("workload", "", "workload to run: decide, read or write")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long the run measures, in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	spanDir := flag.String("span-dir", ".bench_build/spans", "directory a traced run writes its spans to")
	flag.Parse()

	if *seconds < 1 {
		fatalf("-seconds must be at least 1, got %d", *seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	opts := options{seed: *seed, seconds: float64(*seconds), trace: *traceFlag == 1, spanDir: *spanDir}
	run, ok := map[string]func(options, *report) error{
		"decide": runDecide,
		"read":   runRead,
		"write":  runWrite,
	}[*workload]
	if !ok {
		fatalf("unknown -workload %q (want decide, read or write)", *workload)
	}

	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%d trace=%d num_cpu=%d gomaxprocs=%d\n",
		*workload, *seed, *seconds, *traceFlag, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	rep := newReport()
	if err := run(opts, rep); err != nil {
		fatalf("%s: %v", *workload, err)
	}

	res := result{Correct: len(rep.failures) == 0, Metrics: rep.metrics}
	for _, o := range rep.ops {
		fmt.Printf("ops %s attempted=%d failed=%d\n", o.name, o.attempted, o.failed)
		res.Attempted += o.attempted
		res.Failed += o.failed
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
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

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// liveHeapMB forces a garbage collection and returns the heap still in
// use, in MB: the live state the run holds at this instant.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
