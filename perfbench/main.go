// Command perfbench is the repository's serving benchmark. It drives the
// serving stack from outside, through its public packages, on one of three
// seeded workloads (fleet, swarm, wire), checks every stream's transcript
// against hub.Reference, and prints one JSON result line. See README.md.
//
//	bash perfbench/run.sh --workload fleet --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh compare old.txt new.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// logf reports progress on standard error.
func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

// endToEnd lists the end-to-end metrics every run reports, with units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_pts_s", "pts/s"},
	{"cpu_ns_per_pt", "ns"},
	{"heap_bytes_per_stream", "B"},
	{"alarm_p50_s", "s"},
	{"push_p50_s", "s"},
}

var workloads = []string{"fleet", "swarm", "wire"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, in the benchmark contract's
// shape.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full result of a run, printed on the line before the
// result. The comparator reads these lines.
type record struct {
	Bench    string             `json:"bench"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    int                `json:"trace"`
	Env      map[string]any     `json:"env"`
	Correct  bool               `json:"correct"`
	Mismatch string             `json:"mismatch,omitempty"`
	Ops      opCounts           `json:"ops"`
	Metrics  map[string]metric  `json:"metrics"`
	Info     map[string]float64 `json:"info"`
	Overhead map[string]float64 `json:"tracing_overhead,omitempty"`
}

const recordTag = "perfbench-record"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: fleet, swarm or wire")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured time budget of one pass, in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: float64(*seconds), swarmStreams: swarmStreams}
	rec, err := execute(cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rec.Seconds = *seconds
	if err := emit(stdout, rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rec.Correct {
		fmt.Fprintf(stderr, "perfbench: transcript of %s differs from hub.Reference\n", rec.Mismatch)
		return 1
	}
	return 0
}

// runConfig is one invocation. swarmStreams is fixed on the command line;
// the smoke test shrinks it.
type runConfig struct {
	workload     string
	seed         int64
	seconds      float64
	swarmStreams int
	traceDir     string
}

func makePlan(cfg runConfig, seconds float64, verif *timedVerifier) (*plan, error) {
	switch cfg.workload {
	case "fleet":
		return fleetPlan(cfg.seed, seconds, verif)
	case "swarm":
		return swarmPlan(cfg.seed, seconds, cfg.swarmStreams)
	case "wire":
		return wirePlan(cfg.seed, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (want fleet, swarm or wire)", cfg.workload)
}

// execute runs the workload untraced, or, for a traced run, the per-layer
// measurement described in layers.go.
func execute(cfg runConfig, traced bool) (*record, error) {
	rec := &record{Bench: recordTag, Workload: cfg.workload, Seed: cfg.seed, Env: environment()}
	if traced {
		rec.Trace = 1
		return rec, tracedRun(cfg, rec)
	}
	t0 := time.Now()
	p, err := makePlan(cfg, cfg.seconds, nil)
	if err != nil {
		return nil, err
	}
	logf("%s: inputs and references ready in %.2fs", cfg.workload, time.Since(t0).Seconds())
	res, err := runPass(p, nil)
	if err != nil {
		return nil, err
	}
	rec.Correct, rec.Mismatch, rec.Ops, rec.Info = res.correct, res.mismatch, res.ops, res.info
	rec.Metrics = map[string]metric{}
	for _, m := range endToEnd {
		v, ok := res.metrics[m.name]
		if !ok || math.IsNaN(v) {
			return nil, fmt.Errorf("%s: no samples for %s", cfg.workload, m.name)
		}
		rec.Metrics[m.name] = metric{v, m.unit}
	}
	return rec, nil
}

// emit prints the record line and then the contract's result line.
// A latency that landed on a failed operation is +Inf, which JSON cannot
// carry; it is printed as 1e300 (a miss of any limit).
func emit(w io.Writer, rec *record) error {
	for k, m := range rec.Metrics {
		if math.IsInf(m.Value, 0) {
			rec.Metrics[k] = metric{math.Copysign(1e300, m.Value), m.Unit}
		}
	}
	for k, v := range rec.Info {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			delete(rec.Info, k)
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	attempted, failed := rec.Ops.totals()
	out, err := json.Marshal(result{Correct: rec.Correct, Attempted: attempted, Failed: failed, Metrics: rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, out)
	return err
}

// environment stamps what the numbers depend on besides the code.
func environment() map[string]any {
	// run.sh reads the commit from git when the checkout is a repository.
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"commit":     commit,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// traceFile is where a traced run writes its spans, inside the build
// directory run.sh uses.
func traceFile(cfg runConfig, workload string) string {
	dir := cfg.traceDir
	if dir == "" {
		dir = filepath.Join(".bench_build", "traces")
	}
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv", workload, cfg.seed))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
