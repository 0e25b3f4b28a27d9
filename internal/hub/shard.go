package hub

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"etsc/internal/metrics"
	"etsc/internal/par"
	"etsc/internal/stream"
)

// hubMetrics is the hub's hot-path instrument set — atomic counters and a
// histogram resolved once at SetMetrics, so Push pays atomic ops only (no
// map lookups, no allocation) and pays nothing at all when metrics are off.
type hubMetrics struct {
	push    *metrics.Histogram
	batches *metrics.Counter
	points  *metrics.Counter
	dropped *metrics.Counter
	shedB   *metrics.Counter
	shedP   *metrics.Counter
}

// shard is one independent partition of a Hub: its own lock, stream map,
// bounded per-stream queues, worker pool and metrics. A stream lives on
// exactly one shard; every method here sees only that shard's streams.
type shard struct {
	depth  int
	policy Policy
	pool   *par.Pool

	mu      sync.Mutex
	met     *hubMetrics
	streams map[string]*hubStream
	closed  bool
	// Close is idempotent: the first call does the work, every later or
	// concurrent call waits on closeDone and returns the same reports (or
	// re-panics with the same pipeline panic the first call hit).
	closeDone    chan struct{}
	closeReports []StreamReport
	closePanic   any
}

type hubStream struct {
	id string

	// Pipeline state, touched only by the single active drain task (the
	// running flag serializes drains per stream).
	online *stream.Online
	supp   *stream.Suppressor
	verif  stream.Verifier
	window int

	mu       sync.Mutex
	cond     *sync.Cond
	queue    [][]float64
	free     [][]float64 // drained batch buffers for Push to reuse
	running  bool
	detached bool
	// pause holds drains off the stream while a snapshot export reads its
	// pipeline state: the active drain yields within one batch, no new drain
	// starts, and the last exporter out resubmits the drain if work queued
	// up meanwhile. Pushes keep being accepted throughout.
	pause int
	// ingest is the accepted-point watermark: total points admitted to the
	// queue (applied or not). Positioned pushes (PushAt) dedup against it,
	// so replaying a prefix of already-accepted points is a no-op instead of
	// double-feeding the pipeline.
	ingest  int
	stats   StreamStats
	dets    []stream.Detection
	pend    []int // indices into dets awaiting full-window verification
	settled int   // prefix of dets whose Recanted flags are committed-final
	tail    []float64
	tailAt  int // stream position of tail[0]

	// Watch machinery: notify is closed-and-replaced whenever the settled
	// prefix advances or the stream finalizes (a broadcast every blocked
	// Watch.Next observes without polling); final marks the transcript
	// complete — no detection will ever be appended or re-flagged again.
	notify   chan struct{}
	final    bool
	watchers int
}

// wakeWatchersLocked broadcasts a state change to every blocked watcher by
// closing the current notify channel and installing a fresh one. Caller
// holds s.mu and calls this only when settled actually advanced or final
// flipped — never on the per-batch fast path — so idle streams allocate
// nothing.
func (s *hubStream) wakeWatchersLocked() {
	close(s.notify)
	s.notify = make(chan struct{})
}

// settledBoundLocked computes the settled prefix length: every detection
// before it is final — not awaiting its window (pend) and not in a taken
// verification batch whose flags have yet to be committed (inflight).
// Caller holds s.mu.
func (s *hubStream) settledBoundLocked(inflight []verifyJob) int {
	bound := len(s.dets)
	for _, di := range s.pend {
		if di < bound {
			bound = di
		}
	}
	for _, j := range inflight {
		if j.di < bound {
			bound = j.di
		}
	}
	return bound
}

// newShard builds an empty shard over a pool of workers drain goroutines;
// New has already validated and defaulted every argument.
func newShard(workers, depth int, policy Policy) *shard {
	return &shard{
		depth:   depth,
		policy:  policy,
		pool:    par.NewPool(workers),
		streams: map[string]*hubStream{},
	}
}

func (h *shard) attach(id string, sc StreamConfig) error {
	if sc.Suppress < 0 {
		return fmt.Errorf("hub: Suppress must be >= 0 (0 = off), got %d", sc.Suppress)
	}
	online, err := stream.NewOnlineEngine(sc.Classifier, sc.Stride, sc.Step, sc.Engine)
	if err != nil {
		return err
	}
	s := &hubStream{
		id:     id,
		online: online,
		supp:   stream.NewSuppressor(sc.Suppress),
		verif:  sc.Verifier,
		window: sc.Classifier.FullLength(),
		// Queue and freelist capacities cover the stream's whole batch
		// population (at most depth queued plus one draining), so the
		// steady-state Push path never grows either slice.
		queue:  make([][]float64, 0, h.depth),
		free:   make([][]float64, 0, h.depth+1),
		notify: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ErrClosed
	}
	if _, ok := h.streams[id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicate, id)
	}
	h.streams[id] = s
	return nil
}

// push is the admission path behind Hub.Push and Hub.PushAt: at < 0 is an
// unpositioned append, at >= 0 a positioned, deduplicated write.
func (h *shard) push(id string, at int, points []float64) error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return ErrClosed
	}
	s, ok := h.streams[id]
	met := h.met
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownStream, id)
	}
	if len(points) == 0 {
		return nil
	}
	var start time.Time
	if met != nil {
		start = time.Now()
	}

	s.mu.Lock()
	for len(s.queue) >= h.depth && !s.detached {
		switch h.policy {
		case Drop:
			s.stats.DroppedBatches++
			s.stats.DroppedPoints += int64(len(points))
			s.mu.Unlock()
			if met != nil {
				met.dropped.Inc()
			}
			return fmt.Errorf("%w: %q", ErrDropped, id)
		case Shed:
			// Evict the oldest queued batch: the slow stream pays for its
			// own backlog, the pusher is admitted unconditionally. The
			// evicted buffer goes back on the freelist so the shed path
			// stays allocation-free too.
			old := s.queue[0]
			copy(s.queue, s.queue[1:])
			s.queue = s.queue[:len(s.queue)-1]
			s.stats.ShedBatches++
			s.stats.ShedPoints += int64(len(old))
			if met != nil {
				met.shedB.Inc()
				met.shedP.Add(float64(len(old)))
			}
			if len(s.free) < cap(s.free) {
				s.free = append(s.free, old[:0])
			}
		default: // Block
			s.cond.Wait()
		}
	}
	if s.detached {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownStream, id)
	}
	if at >= 0 {
		// Positioned write: clip the prefix already at or behind the
		// watermark (idempotent replay), reject anything past it (a gap).
		if at > s.ingest {
			s.mu.Unlock()
			return fmt.Errorf("%w: %q at %d, watermark %d", ErrGap, id, at, s.ingest)
		}
		if skip := s.ingest - at; skip >= len(points) {
			s.mu.Unlock()
			return nil // wholly behind the watermark: already accepted
		} else if skip > 0 {
			points = points[skip:]
		}
	}
	var batch []float64
	if k := len(s.free); k > 0 {
		batch = s.free[k-1][:0]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
	}
	batch = append(batch, points...)
	s.queue = append(s.queue, batch)
	s.ingest += len(batch)
	s.stats.QueuedBatches = len(s.queue)
	if !s.running && s.pause == 0 {
		s.running = true
		h.pool.Submit(func() { h.drain(s) })
	}
	s.mu.Unlock()
	if met != nil {
		met.batches.Inc()
		met.points.Add(float64(len(points)))
		met.push.Observe(time.Since(start).Seconds())
	}
	return nil
}

// drain applies a stream's queued batches in order. At most one drain per
// stream runs at a time (the running flag), which is the whole determinism
// argument: per-stream work is serial, only distinct streams overlap.
func (h *shard) drain(s *hubStream) {
	defer func() {
		if r := recover(); r != nil {
			// A panicking classifier/verifier must not strand the stream:
			// discard the remaining queue (counted as drops, never silent)
			// and mark the stream idle so Detach/Close/Flush and blocked
			// pushers terminate. The panic is re-raised into the pool,
			// which rethrows it at Close.
			s.mu.Lock()
			for _, b := range s.queue {
				s.stats.DroppedBatches++
				s.stats.DroppedPoints += int64(len(b))
			}
			s.queue = nil
			s.stats.QueuedBatches = 0
			// Fail-stop: the pipeline state is suspect mid-panic, so the
			// stream stops accepting pushes rather than running on it.
			// Watchers terminate too — the settled prefix can never grow
			// on a sealed stream, so holding them open would hang them.
			s.detached = true
			s.running = false
			s.final = true
			s.wakeWatchersLocked()
			s.cond.Broadcast()
			s.mu.Unlock()
			panic(r)
		}
	}()
	var done []float64 // previous batch's buffer, recycled under the lock
	for {
		s.mu.Lock()
		if done != nil {
			// applyBatch copied what it keeps (the tail), so the buffer is
			// free for the next Push to fill. The freelist is bounded by
			// the batch population (depth queued + one draining).
			s.free = append(s.free, done)
			done = nil
		}
		if s.pause > 0 {
			// A snapshot export wants the pipeline state quiescent: yield
			// between batches. The exporter resubmits the drain when it
			// releases the pause and work remains queued.
			s.running = false
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		if len(s.queue) == 0 {
			s.running = false
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		batch := s.queue[0]
		copy(s.queue, s.queue[1:])
		s.queue = s.queue[:len(s.queue)-1]
		s.stats.QueuedBatches = len(s.queue)
		s.cond.Broadcast() // free space for blocked pushers
		s.mu.Unlock()

		if kill := testDrainKill.Load(); kill != nil && (*kill)(s.id) {
			// Fault injection (tests only): vanish mid-batch like a killed
			// process — the dequeued batch is lost, running stays true so
			// the stream freezes exactly as a SIGKILL would leave it. Only
			// the crash-recovery battery installs this hook.
			return
		}

		s.applyBatch(batch)
		done = batch
	}
}

// testDrainKill, when non-nil, is consulted with the stream ID before each
// batch is applied; returning true makes the drain worker vanish without
// cleanup, simulating a process kill mid-drain. Only the crash-recovery
// battery installs it (an atomic pointer so installing and clearing it
// cannot race with drains already in flight).
var testDrainKill atomic.Pointer[func(string) bool]

// applyBatch runs one batch through the stream's pipeline. The classifier
// and the verifier both run without the lock (the verifier's NN scan is
// O(train × window) per detection — holding the lock through a detection
// burst would stall Snapshot/Stats readers); only the bookkeeping commits
// hold it, via defers, so a panicking classifier or verifier unwinds with
// the lock released and drain's recovery can still seal the stream.
func (s *hubStream) applyBatch(batch []float64) {
	// Pipeline work happens without holding the lock; the stream's
	// Online, Suppressor, and window are drain-owned. The whole queued
	// batch decodes in one candidate-major pass, so every live session
	// reaches the blocked extend kernel with multi-point chunks instead of
	// once per point.
	dets := s.online.PushBatch(batch)
	kept := dets[:0]
	for _, d := range dets {
		if s.supp.Keep(d) {
			kept = append(kept, d)
		}
	}

	var jobs []verifyJob
	func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.stats.Batches++
		s.stats.Points += int64(len(batch))
		s.stats.Position = s.online.Pos()
		s.stats.ActiveCandidates = s.online.ActiveCandidates()
		base := len(s.dets)
		s.dets = append(s.dets, kept...)
		if s.verif != nil {
			s.tail = append(s.tail, batch...)
			for i := range kept {
				s.pend = append(s.pend, base+i)
			}
			jobs = s.takeResolvableLocked(false)
		}
		s.stats.Detections = len(s.dets)
		s.stats.PendingVerify = len(s.pend)
		// Taken jobs commit their flags after the lock is released, so
		// the settled prefix must not advance past them yet.
		before := s.settled
		s.settled = s.settledBoundLocked(jobs)
		if s.settled != before {
			s.wakeWatchersLocked()
		}
	}()
	s.runVerifications(jobs)
}

// verifyJob is one detection whose recant check is ready to run: its
// completed window (copied, so the tail can be trimmed immediately), or a
// nil window meaning the pattern never completed and the detection recants
// without a verifier call.
type verifyJob struct {
	di     int
	label  int
	window []float64
}

// takeResolvableLocked removes from the pending list every detection whose
// full window has arrived — or, with final set, every detection at all
// (windows that will never complete recant, exactly stream.Verify's rule
// for windows that run past the end of the stream) — returning them as
// jobs, and trims the tail buffer to what is still needed.
func (s *hubStream) takeResolvableLocked(final bool) []verifyJob {
	pos := s.stats.Position
	var jobs []verifyJob
	remain := s.pend[:0]
	for _, di := range s.pend {
		d := &s.dets[di]
		end := d.Start + s.window
		switch {
		case end <= pos:
			w := append([]float64(nil), s.tail[d.Start-s.tailAt:end-s.tailAt]...)
			jobs = append(jobs, verifyJob{di: di, label: d.Label, window: w})
		case final:
			jobs = append(jobs, verifyJob{di: di})
		default:
			remain = append(remain, di)
		}
	}
	s.pend = remain
	// A live candidate window can still fire for any start in
	// (pos-window, pos), so the tail must always retain the last window of
	// samples, plus everything back to the earliest pending detection.
	keepFrom := pos - s.window
	if keepFrom < 0 {
		keepFrom = 0
	}
	for _, di := range s.pend {
		if st := s.dets[di].Start; st < keepFrom {
			keepFrom = st
		}
	}
	if keepFrom > s.tailAt {
		s.tail = s.tail[keepFrom-s.tailAt:]
		s.tailAt = keepFrom
	}
	s.stats.PendingVerify = len(s.pend)
	return jobs
}

// runVerifications executes taken jobs outside the lock and commits the
// recant flags. Only the stream's single active drain (or finalize, which
// runs after the last drain) calls this, so the detections the jobs index
// are stable.
func (s *hubStream) runVerifications(jobs []verifyJob) {
	if len(jobs) == 0 {
		return
	}
	results := make([]bool, len(jobs))
	for i, j := range jobs {
		results[i] = j.window == nil || !s.verif.Verify(j.window, j.label)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, j := range jobs {
		s.dets[j.di].Recanted = results[i]
		if results[i] {
			s.stats.Recanted++
		}
	}
	before := s.settled
	s.settled = s.settledBoundLocked(nil)
	if s.settled != before {
		s.wakeWatchersLocked()
	}
}

// waitDrainedLocked blocks until the stream's queue is empty and no drain
// task is running. Caller holds s.mu.
func (s *hubStream) waitDrainedLocked() {
	for s.running || len(s.queue) > 0 {
		s.cond.Wait()
	}
}

func (h *shard) flush() {
	for _, s := range h.snapshotStreams() {
		s.mu.Lock()
		s.waitDrainedLocked()
		s.mu.Unlock()
	}
}

func (h *shard) detach(id string) (StreamReport, error) {
	h.mu.Lock()
	s, ok := h.streams[id]
	if ok {
		delete(h.streams, id)
	}
	h.mu.Unlock()
	if !ok {
		return StreamReport{}, fmt.Errorf("%w: %q", ErrUnknownStream, id)
	}
	return h.finalize(s), nil
}

// finalize seals a stream already removed from the map: new pushes are
// rejected and blocked pushers released first, then the already-accepted
// queue is allowed to drain (every batch Push accepted is applied), and
// still-pending detections resolve — completed windows verify, incomplete
// ones recant.
func (h *shard) finalize(s *hubStream) StreamReport {
	s.mu.Lock()
	s.detached = true
	s.cond.Broadcast()
	s.waitDrainedLocked()
	var jobs []verifyJob
	if s.verif != nil {
		jobs = s.takeResolvableLocked(true)
	}
	s.mu.Unlock()
	// No drain can run anymore (queue empty, pushes rejected), so the
	// verifier work races with nothing.
	s.runVerifications(jobs)

	s.mu.Lock()
	s.tail = nil
	// Every pending detection was just resolved, so settled == len(dets):
	// watchers drain the full transcript and then observe final — the
	// clean-termination contract behind DELETE-while-watching.
	s.final = true
	s.wakeWatchersLocked()
	rep := StreamReport{
		ID:         s.id,
		Stats:      s.stats,
		Detections: append([]stream.Detection(nil), s.dets...),
	}
	s.mu.Unlock()
	return rep
}

// close drains and finalizes every stream on the shard, stops its pool, and
// returns the final reports sorted by stream ID. Exactly one caller does
// the shutdown; every other or later call waits for it and returns the same
// reports (or re-panics with the same pipeline panic the first call hit).
func (h *shard) close() ([]StreamReport, error) {
	h.mu.Lock()
	if h.closed {
		done := h.closeDone
		h.mu.Unlock()
		<-done
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.closePanic != nil {
			panic(h.closePanic)
		}
		return h.closeReports, nil
	}
	h.closed = true
	done := make(chan struct{})
	h.closeDone = done
	// Waiters are released even if a pipeline panic unwinds the shutdown
	// below (pool.Close rethrows the first task panic): a hang would turn
	// one fail-stopped stream into a deadlocked process. The panic is
	// recorded so waiters observe it too instead of a clean nil result.
	defer func() {
		if r := recover(); r != nil {
			h.mu.Lock()
			h.closePanic = r
			h.mu.Unlock()
			close(done)
			panic(r)
		}
		close(done)
	}()
	streams := make([]*hubStream, 0, len(h.streams))
	for _, s := range h.streams {
		streams = append(streams, s)
	}
	h.streams = map[string]*hubStream{}
	h.mu.Unlock()

	reports := make([]StreamReport, 0, len(streams))
	for _, s := range streams {
		reports = append(reports, h.finalize(s))
	}
	sort.Slice(reports, func(a, b int) bool { return reports[a].ID < reports[b].ID })
	h.mu.Lock()
	h.closeReports = reports
	h.mu.Unlock()
	h.pool.Close()
	return reports, nil
}

// snapshotStreams copies the live stream set.
func (h *shard) snapshotStreams() []*hubStream {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*hubStream, 0, len(h.streams))
	for _, s := range h.streams {
		out = append(out, s)
	}
	return out
}

func (h *shard) snapshot() map[string]StreamStats {
	out := map[string]StreamStats{}
	for _, s := range h.snapshotStreams() {
		s.mu.Lock()
		out[s.id] = s.stats
		s.mu.Unlock()
	}
	return out
}

func (h *shard) setMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	m := &hubMetrics{
		push:    reg.Histogram("etsc_hub_push_seconds", "Push call latency in seconds (enqueue only; drains are asynchronous).", metrics.DefaultLatencyBuckets, labels...),
		batches: reg.Counter("etsc_hub_batches_total", "Batches accepted by Push.", labels...),
		points:  reg.Counter("etsc_hub_points_total", "Points accepted by Push.", labels...),
		dropped: reg.Counter("etsc_hub_dropped_batches_total", "Batches rejected with ErrDropped under the Drop policy.", labels...),
		shedB:   reg.Counter("etsc_hub_shed_batches_total", "Queued batches evicted under the Shed policy.", labels...),
		shedP:   reg.Counter("etsc_hub_shed_points_total", "Points discarded by Shed-policy evictions.", labels...),
	}
	h.mu.Lock()
	h.met = m
	h.mu.Unlock()
}

func (h *shard) detectionsSettled(id string) (dets []stream.Detection, settled int, err error) {
	h.mu.Lock()
	s, ok := h.streams[id]
	h.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrUnknownStream, id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]stream.Detection(nil), s.dets...), s.settled, nil
}
