// Benchmarks of the inference hot path — the streaming-prefix evaluation
// loop the deployment argument lives on. BenchmarkEvalAll pits the pruned
// lazy-frontier engine against the eager reference engine for every native
// classifier on the demo datasets; BenchmarkHubPush measures the hub's
// steady-state ingest path with allocation reporting; BenchmarkHubPushSharded
// sweeps the hub across shard × stream-count cells. CI runs all
// three at -benchtime=1x and appends the output to BENCH_eval.json (with
// host cpus and go version), building the eval-path performance trajectory
// alongside BENCH_train.json's training trajectory.
//
//	go test -bench 'BenchmarkEvalAll|BenchmarkHubPush' -benchmem .
package etsc_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"etsc/internal/dataset"
	"etsc/internal/etsc"
	"etsc/internal/hub"
	"etsc/internal/ts"
)

// BenchmarkEvalAll evaluates each native classifier over the GunPoint demo
// test split through the session engine, point-at-a-time (step 1) — the
// paper's streaming-prefix loop at its real granularity, where every
// arriving sample is a decision opportunity. The bank-backed classifiers
// (ECTS, ProbThreshold) run under both engine modes; the ECTS pruned/eager
// delta is the frontier's measured win (a global-NN consumer with a strong
// cutoff prunes hard), while ProbThreshold's pruned row tracks the
// frontier-crossover fallback — per-class minima over few, similar classes
// prune too weakly to pay for the frontier, so small banks ride the
// blocked eager kernel (DESIGN.md §Layer 11). RelClass appears twice: the
// default precomputed suffix-table kernel and the eager Monte Carlo
// reference it replaced. The remaining classifiers have a single session
// path (their Extend work is snapshot- or shapelet-driven, not
// bank-driven) and appear once.
func BenchmarkEvalAll(b *testing.B) {
	train, test := benchSplit(b)
	builds := []struct {
		name  string
		modal bool // distinct pruned/eager sessions
		make  func() (etsc.EarlyClassifier, error)
	}{
		{"ECTS", true, func() (etsc.EarlyClassifier, error) { return etsc.NewECTS(train, false, 0) }},
		{"ProbThreshold", true, func() (etsc.EarlyClassifier, error) { return etsc.NewProbThreshold(train, 0.8, 10) }},
		{"TEASER", false, func() (etsc.EarlyClassifier, error) { return etsc.NewTEASER(train, etsc.DefaultTEASERConfig()) }},
		{"EDSC-CHE", false, func() (etsc.EarlyClassifier, error) { return etsc.NewEDSC(train, etsc.DefaultEDSCConfig(etsc.CHE)) }},
		{"RelClass", false, func() (etsc.EarlyClassifier, error) {
			return etsc.NewRelClass(train, etsc.DefaultRelClassConfig(false))
		}},
		// The eager Monte Carlo reference kernel, kept in the trajectory so
		// the suffix-table win stays measured (RelClass above defaults to
		// the precomputed table; see internal/etsc RelClassMode).
		{"RelClass-eagerMC", false, func() (etsc.EarlyClassifier, error) {
			cfg := etsc.DefaultRelClassConfig(false)
			cfg.Mode = etsc.RelEager
			return etsc.NewRelClass(train, cfg)
		}},
		{"FixedPrefix", false, func() (etsc.EarlyClassifier, error) { return etsc.NewFixedPrefix(train, train.SeriesLen()/3, true) }},
	}
	for _, bc := range builds {
		c, err := bc.make()
		if err != nil {
			b.Fatal(err)
		}
		modes := []etsc.EngineMode{etsc.Eager, etsc.Pruned}
		if !bc.modal {
			modes = modes[1:]
		}
		for _, mode := range modes {
			name := bc.name
			if bc.modal {
				name = fmt.Sprintf("%s/%s", bc.name, mode)
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := etsc.EvaluateParallelMode(c, test, 1, 1, mode); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkHubPush measures steady-state hub ingest on the demo workload
// with allocation reporting: 4 streams over the three kinds registered
// explicitly up front (the /v1-era shape — POST /v1/streams then pushes),
// batch-64 pushes through a single-worker pool, one op = pushing every
// stream's full series and draining via Flush. Hub construction, stream
// registration, and final Close all sit outside the timer, so allocs/op is
// the ingest path alone — recycled batch buffers plus the sessions'
// zero-allocation Extends. Records in BENCH_eval.json up to 2026-08-07
// measured the older per-op shape (hub construction + lazy demo attach +
// Close inside the loop); the trajectory restarts from that date.
func BenchmarkHubPush(b *testing.B) {
	kinds, err := hub.DemoKinds(17)
	if err != nil {
		b.Fatal(err)
	}
	const nStreams = 4
	const perStream = 4_000
	gens, err := hub.DemoStreams(kinds, 17, nStreams, perStream)
	if err != nil {
		b.Fatal(err)
	}
	totalPoints := 0
	for _, g := range gens {
		totalPoints += len(g.Data)
	}
	const batch = 64
	h, err := hub.New(hub.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range gens {
		if err := h.Attach(g.ID, g.Config); err != nil {
			b.Fatal(err)
		}
	}
	push := func() {
		for _, g := range gens {
			for off := 0; off < len(g.Data); off += batch {
				end := off + batch
				if end > len(g.Data) {
					end = len(g.Data)
				}
				if err := h.Push(g.ID, g.Data[off:end]); err != nil {
					b.Fatal(err)
				}
			}
		}
		h.Flush()
	}
	// One untimed pass warms the queue freelists and session buffers, so
	// the op measures steady state even at CI's -benchtime=1x.
	push()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push()
	}
	b.StopTimer()
	b.SetBytes(int64(totalPoints * 8))
	if _, err := h.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchQuietConfig builds the deliberately cheap pipeline the sharded
// sweep attaches everywhere: a FixedPrefix detector over two constant
// exemplars, evaluation stride pushed to the exemplar length, so the
// measurement isolates routing, queueing, and lock contention rather than
// classifier CPU.
func benchQuietConfig(b *testing.B, seriesLen int) hub.StreamConfig {
	b.Helper()
	mk := func(level float64) dataset.Instance {
		s := make(ts.Series, seriesLen)
		for i := range s {
			s[i] = level
		}
		return dataset.Instance{Label: int(level) + 2, Series: s}
	}
	d, err := dataset.New("quiet", []dataset.Instance{mk(-1), mk(1)})
	if err != nil {
		b.Fatal(err)
	}
	clf, err := etsc.NewFixedPrefix(d, seriesLen, false)
	if err != nil {
		b.Fatal(err)
	}
	return hub.StreamConfig{Classifier: clf, Stride: seriesLen, Step: 8}
}

// BenchmarkHubPushSharded sweeps the hub across shards {1,4,16} ×
// stream counts {16, 1k, 100k}: GOMAXPROCS pusher goroutines partitioned
// over the streams, batch-64 pushes against quiet pipelines, one op = a
// fixed ~1M-point budget split evenly across the cell's streams (floor one
// batch per stream). Hub construction and the attach storm sit outside the
// timer. On a multi-core host the multi-shard cells scale with the shard
// count — the shards share nothing on the push path; a single-core runner
// pins GOMAXPROCS=1 and measures routing overhead instead (see the cpus
// field of each BENCH_eval.json record).
func BenchmarkHubPushSharded(b *testing.B) {
	const (
		seriesLen   = 512
		batch       = 64
		totalBudget = 1 << 20
	)
	sc := benchQuietConfig(b, seriesLen)
	pushers := runtime.GOMAXPROCS(0)
	for _, nShards := range []int{1, 4, 16} {
		for _, nStreams := range []int{16, 1024, 100_000} {
			b.Run(fmt.Sprintf("shards=%d/streams=%d", nShards, nStreams), func(b *testing.B) {
				sh, err := hub.New(hub.Config{Shards: nShards, Workers: pushers, QueueDepth: 4})
				if err != nil {
					b.Fatal(err)
				}
				ids := make([]string, nStreams)
				for i := range ids {
					ids[i] = fmt.Sprintf("s-%06d", i)
					if err := sh.Attach(ids[i], sc); err != nil {
						b.Fatal(err)
					}
				}
				perStream := totalBudget / nStreams
				if perStream < batch {
					perStream = batch
				}
				data := make([]float64, perStream)
				for i := range data {
					data[i] = float64(i%7) * 0.25
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for p := 0; p < pushers; p++ {
						wg.Add(1)
						go func(p int) {
							defer wg.Done()
							for s := p; s < nStreams; s += pushers {
								for off := 0; off < perStream; off += batch {
									end := off + batch
									if end > perStream {
										end = perStream
									}
									if err := sh.Push(ids[s], data[off:end]); err != nil {
										b.Error(err)
										return
									}
								}
							}
						}(p)
					}
					wg.Wait()
					sh.Flush()
				}
				b.StopTimer()
				b.SetBytes(int64(nStreams) * int64(perStream) * 8)
				if _, err := sh.Close(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
