package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"etsc/internal/hub"
	"etsc/internal/stream"
)

// input is one monitored stream of a workload: its pipeline, the points it
// receives (the closed-loop part first, then the paced part), and the
// hub.Reference transcript for those points, JSON-encoded.
type input struct {
	id       string
	kind     string
	cfg      hub.StreamConfig
	data     []float64
	ref      []byte
	verified bool // the kind re-checks alarms on the completed window
}

// plan is a workload: its streams and how the phases drive them.
type plan struct {
	name      string
	streams   []input
	batch     int
	closedPts int     // points per stream pushed by the closed loop
	rate      float64 // offered rate of the paced phase, points/s over all streams
	// tick makes every stream's batch of a paced round due at the same
	// instant, as when a fleet reports on one clock; otherwise the batches
	// are spread evenly over the round.
	tick bool
	// watchEvery subscribes a hub.Watch to every k-th stream in the paced
	// phase (1 = all of them).
	watchEvery int
	// readEvery makes each pusher read the pushed stream's detection cursor
	// after every k-th push (0 = never).
	readEvery int
	// setups is how many times set-up is repeated; its median is setup_s
	// and the last system built is the one driven.
	setups int
	// chunks is how many drained chunks the closed loop is timed in.
	chunks int
	// exportPasses is how many export passes over every stream a run
	// takes; the record's checkpoint_s is the median pass.
	exportPasses int
	// build trains the kinds, builds the serving stack and attaches every
	// stream. tr is nil except for the last, traced build.
	build func(tr *tracer, ops opCounts) (system, error)
}

// system is the serving stack as a workload drives it: in-process hubs for
// fleet and swarm, client → router → two servers over loopback for wire.
// Stream arguments are indexes into plan.streams.
type system interface {
	push(l *lane, i int, pts []float64) error
	read(l *lane, i int) error
	flush()
	backlog() int
	watch(i int) (*hub.Watch, error)
	export(l *lane, i int) (bytes int, err error)
	// finish detaches every stream and returns the final transcripts in
	// stream order.
	finish() ([][]stream.Detection, error)
	// close releases everything; it is safe after finish.
	close()
}

// passResult is what one pass of a workload measured.
type passResult struct {
	metrics map[string]float64 // end-to-end metrics, keyed by name
	info    map[string]float64 // sample counts and per-layer raw numbers
	ops     opCounts
	correct bool
	// mismatch names the first stream whose transcript differed from
	// hub.Reference (empty when correct).
	mismatch string
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// pushers is the generator's goroutine (and connection) count: one per CPU,
// so the generator never has more runnable goroutines than the machine has
// cores to give it.
func pushers() int { return runtime.NumCPU() }

// runPass sets the workload up, drives the closed-loop and paced phases,
// takes the export pass, detaches everything and checks every transcript
// against hub.Reference. With tr non-nil every layer call is recorded.
func runPass(p *plan, tr *tracer) (*passResult, error) {
	res := &passResult{metrics: map[string]float64{}, info: map[string]float64{}, ops: opCounts{}}
	n := len(p.streams)
	steal0 := stealTime()

	// Set-up, repeated; the last build is kept and driven.
	var sys system
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	var setupTimes []float64
	var heap0 uint64
	for k := 0; k < p.setups; k++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		var btr *tracer
		if k == p.setups-1 {
			btr = tr
		}
		heap0 = heapAlloc()
		t0 := time.Now()
		s, err := p.build(btr, res.ops)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", p.name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		sys = s
	}
	res.metrics["setup_s"] = median(setupTimes)
	logf("%s: set-up %v", p.name, setupTimes)
	res.info["hub.cold_heap_bytes_per_stream"] = (float64(heapAlloc()) - float64(heap0)) / float64(n)

	closedPhase(p, sys, tr, res)
	logf("%s: closed loop %.2fs", p.name, res.info["closed.wall_s"])
	tp := time.Now()
	collect, err := pacedPhase(p, sys, tr, res)
	if err != nil {
		return nil, err
	}
	collected := false
	defer func() {
		if !collected {
			_ = collect(true)
		}
	}()
	logf("%s: paced phase %.2fs", p.name, time.Since(tp).Seconds())
	res.metrics["heap_bytes_per_stream"] = (float64(heapAlloc()) - float64(heap0)) / float64(n)

	// Export passes: every stream once per pass, as the checkpointer does.
	l := tr.lane()
	var snapBytes, failed int64
	var passes []float64
	for k := 0; k < p.exportPasses; k++ {
		snapBytes = 0
		t0 := time.Now()
		for i := range p.streams {
			b, err := sys.export(l, i)
			if err != nil {
				failed++
			}
			snapBytes += int64(b)
		}
		passes = append(passes, time.Since(t0).Seconds())
	}
	res.info["checkpoint_s"] = median(passes)
	res.ops.add("export", int64(n*p.exportPasses), failed)
	res.info["snap.bytes_per_stream"] = float64(snapBytes) / float64(n)

	// Correctness gate, outside every timed phase.
	tf := time.Now()
	got, err := sys.finish()
	if err != nil {
		return nil, fmt.Errorf("%s detach: %w", p.name, err)
	}
	res.ops.add("detach", int64(n), 0)
	collected = true
	if err := collect(false); err != nil {
		return nil, err
	}
	logf("%s: detach and collect %.2fs", p.name, time.Since(tf).Seconds())
	res.info["peak_rss_bytes"] = peakRSS()
	res.info["steal_s"] = stealTime() - steal0
	res.correct = true
	for i, in := range p.streams {
		enc, err := json.Marshal(got[i])
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(enc, in.ref) {
			res.correct = false
			res.mismatch = in.id
			break
		}
	}
	return res, nil
}

// closedPhase pushes each stream's first closedPts points as fast as the
// stack accepts them: every pusher owns the streams i ≡ p (mod pushers) and
// walks them round-robin, one batch each per round, each push issued when
// the previous returned. The rounds run in consecutive chunks, each timed
// from its first push until the stack has drained it; throughput and CPU
// per point are the medians over the chunks, so a transient disturbance
// moves one chunk rather than the run.
func closedPhase(p *plan, sys system, tr *tracer, res *passResult) {
	np := pushers()
	rounds := (p.closedPts + p.batch - 1) / p.batch
	var (
		mu      sync.Mutex
		pushN   int64
		failed  int64
		reads   int64
		rfailed int64
		backlog []float64
		flushes []float64
		rates   []float64
		cpus    []float64
		total   int64
		wall    float64
	)
	var m0 uint64
	if tr != nil {
		m0 = mallocs()
	}
	chunks := min(p.chunks, rounds)
	for c := 0; c < chunks; c++ {
		r0, r1 := c*rounds/chunks, (c+1)*rounds/chunks
		var pushed int64
		var wg sync.WaitGroup
		cpu0 := cpuTime()
		start := time.Now()
		for g := 0; g < np; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				l := tr.lane()
				var pts, n, f, r, rf int64
				var bl []float64
				k := 0
				for b := r0; b < r1; b++ {
					if tr != nil && g == 0 {
						bl = append(bl, float64(sys.backlog()))
					}
					lo, hi := b*p.batch, min((b+1)*p.batch, p.closedPts)
					for i := g; i < len(p.streams); i += np {
						n++
						if err := sys.push(l, i, p.streams[i].data[lo:hi]); err != nil {
							f++
							continue
						}
						pts += int64(hi - lo)
						if k++; p.readEvery > 0 && k%p.readEvery == 0 {
							r++
							if sys.read(l, i) != nil {
								rf++
							}
						}
					}
				}
				mu.Lock()
				pushed += pts
				pushN += n
				failed += f
				reads += r
				rfailed += rf
				backlog = append(backlog, bl...)
				mu.Unlock()
			}(g)
		}
		wg.Wait()
		fl := time.Now()
		sys.flush()
		end := time.Now()
		cpu := cpuTime() - cpu0
		flushes = append(flushes, end.Sub(fl).Seconds())
		rates = append(rates, float64(pushed)/end.Sub(start).Seconds())
		cpus = append(cpus, float64(cpu.Nanoseconds())/float64(pushed))
		total += pushed
		wall += end.Sub(start).Seconds()
	}

	res.ops.add("push", pushN, failed)
	res.ops.add("read", reads, rfailed)
	res.metrics["throughput_pts_s"] = median(rates)
	res.metrics["cpu_ns_per_pt"] = median(cpus)
	res.info["closed.points"] = float64(total)
	res.info["closed.wall_s"] = wall
	if tr != nil {
		res.info["hub.allocs_per_push"] = float64(mallocs()-m0) / float64(pushN)
		res.info["hub.backlog_batches_mean"] = mean(backlog)
		res.info["hub.flush_s"] = median(flushes)
	}
}

// pacedPhase offers the rest of every stream's points on a fixed schedule
// (open loop): batch b of stream i is due at t0 + (b·n + i)·batch/rate, or
// with p.tick at t0 + b·n·batch/rate, no matter how the stack keeps up.
// Alarm latency runs from when the batch holding the alarm's last
// contributing point was sent to when the settled detection reached a
// hub.Watch subscriber; push latency is the round trip of each ingest
// call. The generator shares the machine's CPUs with the stack, so how
// late it sent is reported beside them, and so is the alarm latency
// counted from when the batch was due.
func pacedPhase(p *plan, sys system, tr *tracer, res *passResult) (collect func(abort bool) error, err error) {
	n := len(p.streams)
	np := pushers()
	pacedPts := len(p.streams[0].data) - p.closedPts
	rounds := (pacedPts + p.batch - 1) / p.batch
	perBatch := time.Duration(float64(p.batch) / p.rate * float64(time.Second))

	// Subscribe before the schedule starts; since past the settled prefix
	// clamps to it, so each watcher sees exactly the paced phase's alarms.
	type watcher struct {
		i int
		w *hub.Watch
	}
	var ws []watcher
	for i := 0; i < n; i += p.watchEvery {
		w, err := sys.watch(i)
		if err != nil {
			for _, w := range ws {
				w.w.Close()
			}
			return nil, fmt.Errorf("%s watch %s: %w", p.name, p.streams[i].id, err)
		}
		ws = append(ws, watcher{i, w})
	}
	t0 := time.Now().Add(20 * time.Millisecond)
	due := func(b, i int) time.Time { return t0.Add(time.Duration(b*n+i) * perBatch) }
	if p.tick {
		due = func(b, _ int) time.Time { return t0.Add(time.Duration(b*n) * perBatch) }
	}
	// sent[b*n+i] is when batch b of stream i was handed to the stack, as
	// an offset from t0; a watcher reads it after the batch's alarm settled.
	sent := make([]atomic.Int64, rounds*n)

	var (
		wmu       sync.Mutex
		alarms    []sample
		alarmsDue []sample
		atClose   int64
		early     int64
		wwg       sync.WaitGroup
		watchErrs []error
	)
	ctx, cancel := context.WithCancel(context.Background())
	for _, w := range ws {
		wwg.Add(1)
		go func(w watcher) {
			defer wwg.Done()
			defer w.w.Close()
			in := p.streams[w.i]
			total := len(in.data)
			window := in.cfg.Classifier.FullLength()
			var local, localDue []sample
			var closeN, earlyN int64
			for {
				dets, final, err := w.w.Next(ctx)
				seen := time.Now()
				if err != nil {
					wmu.Lock()
					watchErrs = append(watchErrs, err)
					wmu.Unlock()
					return
				}
				for _, d := range dets {
					cp := d.DecisionAt
					if in.verified {
						cp = d.Start + window - 1
					}
					switch {
					case cp >= total:
						closeN++ // window never completed: recanted at Close
					case cp < p.closedPts:
						earlyN++
					default:
						b := (cp - p.closedPts) / p.batch
						at := due(b, w.i)
						from := t0.Add(time.Duration(sent[b*n+w.i].Load()))
						local = append(local, sample{at.Sub(t0), seen.Sub(from).Seconds()})
						localDue = append(localDue, sample{at.Sub(t0), seen.Sub(at).Seconds()})
					}
				}
				if final {
					break
				}
			}
			wmu.Lock()
			alarms = append(alarms, local...)
			alarmsDue = append(alarmsDue, localDue...)
			atClose += closeN
			early += earlyN
			wmu.Unlock()
		}(w)
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		lats     []sample
		late     []float64
		failed   int64
		pushN    int64
		reads    int64
		rfailed  int64
		lateness time.Duration
	)
	for g := 0; g < np; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := tr.lane()
			var local []sample
			var lt []float64
			var f, pn, r, rf int64
			var maxLate time.Duration
			k := 0
			for b := 0; b < rounds; b++ {
				lo := p.closedPts + b*p.batch
				hi := min(lo+p.batch, len(p.streams[0].data))
				for i := g; i < n; i += np {
					at := due(b, i)
					if d := time.Until(at); d > 0 {
						time.Sleep(d)
					}
					sentAt := time.Now()
					sent[b*n+i].Store(int64(sentAt.Sub(t0)))
					lateBy := sentAt.Sub(at)
					lt = append(lt, lateBy.Seconds())
					maxLate = max(maxLate, lateBy)
					pn++
					err := sys.push(l, i, p.streams[i].data[lo:hi])
					rt := time.Since(sentAt).Seconds()
					if err != nil {
						f++
						rt = math.Inf(1)
					}
					local = append(local, sample{at.Sub(t0), rt})
					if k++; p.readEvery > 0 && k%p.readEvery == 0 {
						r++
						if sys.read(l, i) != nil {
							rf++
						}
					}
				}
			}
			mu.Lock()
			lats = append(lats, local...)
			late = append(late, lt...)
			failed += f
			pushN += pn
			reads += r
			rfailed += rf
			lateness = max(lateness, maxLate)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	sys.flush()
	res.ops.add("push", pushN, failed)
	res.ops.add("read", reads, rfailed)
	res.metrics["push_p50_s"] = segmentQuantile(lats, 0.50)
	res.info["push.p99_s"] = segmentQuantile(lats, 0.99)
	res.info["push.samples"] = float64(len(lats))
	res.info["loadgen.late_max_s"] = lateness.Seconds()
	res.info["loadgen.late_p99_s"] = quantile(late, 0.99)

	// Watchers end when detach finalizes their streams; collect them then.
	return func(abort bool) error {
		if abort {
			cancel()
		}
		wwg.Wait()
		cancel()
		if len(watchErrs) > 0 {
			return fmt.Errorf("%s watch: %w", p.name, watchErrs[0])
		}
		res.metrics["alarm_p50_s"] = segmentQuantile(alarms, 0.50)
		res.info["alarm.p99_s"] = segmentQuantile(alarms, 0.99)
		res.info["alarm.samples"] = float64(len(alarms))
		res.info["alarm.from_due_p50_s"] = segmentQuantile(alarmsDue, 0.50)
		res.info["alarm.from_due_p99_s"] = segmentQuantile(alarmsDue, 0.99)
		res.info["alarm.recanted_at_close"] = float64(atClose)
		res.info["alarm.before_paced"] = float64(early)
		return nil
	}, nil
}
