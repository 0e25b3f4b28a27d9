// Package hub multiplexes many independent monitored streams through
// shared worker pools — the production shape of the paper's deployment
// argument. A single stream's monitor loop was made incremental and
// parallel in internal/stream; the hub owns N such pipelines (one
// stream.Online, suppressor, and verifier per stream), ingests batched
// points via Push(streamID, points), and fans per-stream drain work across
// a par.Pool with bounded per-stream queues and explicit backpressure.
//
// Sharding: a Hub is Config.Shards independent shards, each with its own
// mutex, stream map, queues, par.Pool, and detection log, so pushes to
// streams on different shards share no lock, no map, and no pool queue.
// A stream lives on shard placement.Index(id, shards) — FNV-1a over the
// stream ID, mod the shard count — a pure function of (id, shards), so any
// layer that knows the shard count (the /v1 serving layer, the etsc-router
// front tier, an external router) computes the same placement without
// asking the hub. With one shard, the default, there is no hash at all.
//
// Determinism contract: each stream is processed by at most one worker at
// a time and its batches are applied in arrival order, so for any shard
// count × worker count — including 1 × 1 — a stream's detection transcript
// is byte-identical to driving stream.Online directly over the
// concatenated batches (plus the same suppression and full-window
// verification), which TestHubMatchesOnline and the golden tests assert.
// Cross-shard reads merge deterministically: Close returns reports sorted
// by stream ID, Snapshot is a disjoint union, Stats a sum, and detection
// cursors are per stream. Parallelism changes wall-clock time only. Backpressure
// is never silent: a full queue either blocks the pusher (Block), rejects
// the batch with ErrDropped (Drop), or evicts the stream's oldest batch
// (Shed), and every loss is counted in the stream's stats.
package hub

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"etsc/internal/etsc"
	"etsc/internal/metrics"
	"etsc/internal/par"
	"etsc/internal/placement"
	"etsc/internal/stream"
)

// Policy says what Push does when a stream's queue is full.
type Policy int

const (
	// Block makes Push wait until the drain worker frees queue space.
	Block Policy = iota
	// Drop makes Push reject the batch with ErrDropped and count it.
	Drop
	// Shed makes Push accept the new batch by evicting the stream's OLDEST
	// queued batch — per-stream admission control. A slow stream sheds its
	// own backlog (counted in ShedBatches/ShedPoints, never silent) while
	// every other stream and the pusher itself stay unaffected: ingest
	// never blocks and never rejects, so one degraded consumer cannot 429
	// the whole fleet. Shedding loses mid-stream data by design — the
	// degradation is explicit, bounded (queue depth), and observable in
	// Stats and /metrics.
	Shed
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Drop:
		return "drop"
	case Shed:
		return "shed"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a policy name as rendered by String.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return Block, nil
	case "drop":
		return Drop, nil
	case "shed":
		return Shed, nil
	default:
		return 0, fmt.Errorf("hub: unknown policy %q (want block, drop, or shed)", s)
	}
}

// Errors surfaced by the hub. ErrDropped is the Drop policy doing its job:
// the caller learns, on every rejected batch, that it outran the hub.
var (
	ErrClosed        = errors.New("hub: closed")
	ErrUnknownStream = errors.New("hub: unknown stream")
	ErrDuplicate     = errors.New("hub: stream already attached")
	ErrDropped       = errors.New("hub: batch dropped, stream queue full")
	// ErrGap rejects a positioned push (PushAt) whose offset lies beyond the
	// stream's accepted-point watermark: admitting it would silently skip
	// the missing points. Replays at or behind the watermark are fine — the
	// overlap is deduplicated, which is what makes crash-recovery replay
	// idempotent.
	ErrGap = errors.New("hub: positioned push beyond the stream's ingest watermark")
	// ErrBadSnapshot rejects a Restore whose snapshot decodes but does not
	// match the supplied stream config (wrong classifier window, verifier
	// presence, or duplicate/foreign stream ID).
	ErrBadSnapshot = errors.New("hub: snapshot does not match the stream config")
)

// Config sizes the hub.
type Config struct {
	// Workers is the total drain-worker budget (0 = one per CPU), split
	// evenly across shards with a floor of one per shard, so raising
	// Shards redistributes the same CPU budget rather than multiplying it.
	Workers int
	// QueueDepth is the per-stream bound on queued batches (0 = 16).
	QueueDepth int
	// Policy is the full-queue behaviour; the zero value blocks.
	Policy Policy
	// Shards is the number of independent shards (0 = 1). More shards
	// divide lock and map contention but multiply idle pools; values
	// beyond the core count stop paying once no two pushers collide.
	Shards int
}

// StreamConfig is one stream's pipeline: the same knobs stream.Monitor
// takes, applied online. Suppress debounces same-label alarms with
// stream.Suppressor; Verifier, when non-nil, re-checks each surviving
// detection against its completed window (the paper's "recant" step) —
// windows still incomplete at Detach/Close are recanted, exactly as
// stream.Verify treats windows that run past the end of a batch stream.
type StreamConfig struct {
	Classifier etsc.EarlyClassifier
	Stride     int // candidate spacing (0 = default 4)
	Step       int // prefix growth per decision opportunity (0 = default 4)
	Suppress   int // same-label debounce radius (0 = off)
	Verifier   stream.Verifier
	// Engine selects the candidate sessions' inference engine (the zero
	// value is the default pruned lazy-frontier engine). Transcripts are
	// identical for every mode.
	Engine etsc.EngineMode
}

// StreamStats is one stream's observable state.
type StreamStats struct {
	Position         int // samples applied to the pipeline so far
	ActiveCandidates int // live candidate windows
	QueuedBatches    int // batches waiting in the stream's queue
	Batches          int64
	Points           int64
	DroppedBatches   int64
	DroppedPoints    int64
	ShedBatches      int64 // oldest-first queue evictions under the Shed policy
	ShedPoints       int64
	Detections       int
	Recanted         int // detections whose completed (or truncated) window failed verification
	PendingVerify    int // detections whose full window has not arrived yet
	Watchers         int // live Watch subscriptions on the stream
}

// Totals aggregates StreamStats across the hub. QueuedBatches is the
// instantaneous backlog (batches accepted but not yet drained) — the
// saturation signal the serving layer exposes per shard.
type Totals struct {
	Streams        int
	Batches        int64
	Points         int64
	QueuedBatches  int
	DroppedBatches int64
	DroppedPoints  int64
	ShedBatches    int64
	ShedPoints     int64
	Detections     int
	Recanted       int
	Watchers       int
}

// ShardTotals is one shard's aggregate view: the shard index plus the same
// totals the whole hub reports, including the instantaneous queue backlog
// and drop counters — the per-shard saturation signals /v1/stats exposes.
type ShardTotals struct {
	Shard int `json:"shard"`
	Totals
}

// add folds one stream's stats into the totals.
func (t *Totals) add(st StreamStats) {
	t.Streams++
	t.Batches += st.Batches
	t.Points += st.Points
	t.QueuedBatches += st.QueuedBatches
	t.DroppedBatches += st.DroppedBatches
	t.DroppedPoints += st.DroppedPoints
	t.ShedBatches += st.ShedBatches
	t.ShedPoints += st.ShedPoints
	t.Detections += st.Detections
	t.Recanted += st.Recanted
	t.Watchers += st.Watchers
}

// StreamReport is the final state Detach and Close return for a stream.
type StreamReport struct {
	ID         string
	Stats      StreamStats
	Detections []stream.Detection
}

// Hub owns the streams, spread over one or more shards. The zero value is
// not usable; construct with New. All methods are safe for concurrent use.
type Hub struct {
	shards []*shard
}

// New builds a hub. The zero Config is usable: one shard, NumCPU workers,
// queue depth 16, Block policy.
func New(cfg Config) (*Hub, error) {
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("hub: Shards must be >= 0 (0 = 1), got %d", cfg.Shards)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("hub: Workers must be >= 0 (0 = NumCPU), got %d", cfg.Workers)
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("hub: QueueDepth must be >= 0 (0 = default), got %d", cfg.QueueDepth)
	}
	if cfg.Policy != Block && cfg.Policy != Drop && cfg.Policy != Shed {
		return nil, fmt.Errorf("hub: unknown policy %d", int(cfg.Policy))
	}
	n := max(cfg.Shards, 1)
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = 16
	}
	workers := max(par.Workers(cfg.Workers)/n, 1)
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = newShard(workers, depth, cfg.Policy)
	}
	return &Hub{shards: shards}, nil
}

// Shards returns the shard count.
func (h *Hub) Shards() int { return len(h.shards) }

// ShardFor returns the shard index owning id — placement.Index(id,
// Shards()), exported so serving layers can report (and external routers
// precompute) stream placement.
func (h *Hub) ShardFor(id string) int {
	if len(h.shards) == 1 {
		return 0
	}
	return placement.Index(id, len(h.shards))
}

// shard returns the shard owning id.
func (h *Hub) shard(id string) *shard { return h.shards[h.ShardFor(id)] }

// Attach registers a new stream under id on its owning shard.
func (h *Hub) Attach(id string, sc StreamConfig) error { return h.shard(id).attach(id, sc) }

// Push ingests one batch of points for a stream, touching only the owning
// shard's lock and map. The batch is copied — the caller may reuse its
// buffer — into a buffer recycled from the stream's drained batches, so
// with steadily sized batches the Push path is allocation-free in steady
// state (the alloc regression test pins this). With a full queue, Block
// policy waits, Drop policy returns ErrDropped (and counts the drop in the
// stream's stats), and Shed policy evicts the stream's own oldest queued
// batch to admit the new one — the push always succeeds, the loss is
// counted in ShedBatches/ShedPoints. Detections surface asynchronously via
// Detections/Snapshot after the drain worker applies the batch; Flush
// waits for that.
func (h *Hub) Push(id string, points []float64) error { return h.shard(id).push(id, -1, points) }

// PushAt is Push with an explicit stream offset: at is the stream index of
// points[0] in accepted-point coordinates (StreamStats.Position plus any
// still-queued points — the ingest watermark). Points at or before the
// watermark are deduplicated, so replaying a checkpoint's tail after a
// crash — including pushing the same batch twice — feeds each point to the
// pipeline exactly once; a batch starting beyond the watermark fails with
// ErrGap. Under the Shed policy evicted batches leave holes in the
// coordinate space, so positioned replay is only exact for Block and Drop.
func (h *Hub) PushAt(id string, at int, points []float64) error {
	if at < 0 {
		return fmt.Errorf("%w: negative position %d", ErrGap, at)
	}
	return h.shard(id).push(id, at, points)
}

// Detach drains a stream's queue, finalizes pending verifications
// (incomplete windows recant), removes the stream, and returns its final
// report. Pushers blocked on the stream's queue are released with
// ErrUnknownStream.
func (h *Hub) Detach(id string) (StreamReport, error) { return h.shard(id).detach(id) }

// Detections returns a copy of a stream's detection transcript so far.
// Recanted flags settle once each detection's full window has been applied
// (or at Detach/Close); PendingVerify in the stream's stats counts the
// unsettled ones.
func (h *Hub) Detections(id string) ([]stream.Detection, error) {
	dets, _, err := h.DetectionsSettled(id)
	return dets, err
}

// DetectionsSettled is Detections plus the length of the transcript's
// settled prefix: every detection before it has its final Recanted flag
// and can never change again, while later entries still await full-window
// verification. Cursor-style consumers (the /v1 detections endpoint) page
// only the settled prefix so each detection is observed exactly once, in
// its final state. Streams without a verifier settle immediately, so
// settled == len(dets) for them.
func (h *Hub) DetectionsSettled(id string) (dets []stream.Detection, settled int, err error) {
	return h.shard(id).detectionsSettled(id)
}

// SetMetrics registers the hub's hot-path instruments on reg and turns on
// Push instrumentation: batch/point/drop/shed counters and a push-latency
// histogram, all under the given constant labels — plus a shard="i" label
// per shard when there is more than one, the saturation view that tells a
// hot shard from a hot fleet. Instruments are atomic, so the
// zero-allocation Push contract holds with metrics enabled; with
// SetMetrics never called, Push pays nothing. Call before traffic — it is
// safe to call later, but batches pushed first are not retroactively
// counted. Scrape-time per-stream and per-kind families live in the
// serving layer (which joins Snapshot with stream metadata); the hub
// registers only what the hot path touches.
func (h *Hub) SetMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	for i, sh := range h.shards {
		ls := labels
		if len(h.shards) > 1 {
			ls = append(labels[:len(labels):len(labels)], metrics.L("shard", strconv.Itoa(i)))
		}
		sh.setMetrics(reg, ls...)
	}
}

// Flush blocks until the hub is quiescent: every queued batch applied and
// no drain running. With producers still pushing concurrently it waits for
// their batches too, so it is a tool for tests, benchmarks, and shutdown
// sequencing — not for read paths that must stay responsive under load
// (those should read Snapshot/Stats directly; both are safe at any time).
func (h *Hub) Flush() {
	for _, sh := range h.shards {
		sh.flush()
	}
}

// Close drains and finalizes every stream, stops the worker pools, and
// returns the final reports sorted by stream ID. Push and Attach fail with
// ErrClosed afterwards. Close is idempotent and safe to race with both
// in-flight Pushes and other Close calls: exactly one caller performs the
// shutdown, every other call blocks until it completes and then returns
// the same reports with a nil error, so "Close returned" always means
// "every accepted batch was applied and the pools are stopped".
func (h *Hub) Close() ([]StreamReport, error) {
	var reports []StreamReport
	for _, sh := range h.shards {
		reps, err := sh.close()
		if err != nil {
			return nil, err
		}
		reports = append(reports, reps...)
	}
	sort.Slice(reports, func(a, b int) bool { return reports[a].ID < reports[b].ID })
	return reports, nil
}

// Snapshot returns per-stream stats for every attached stream. Stream IDs
// are unique across the hub, so the merge over shards is a disjoint union.
func (h *Hub) Snapshot() map[string]StreamStats {
	out := h.shards[0].snapshot()
	for _, sh := range h.shards[1:] {
		for id, st := range sh.snapshot() {
			out[id] = st
		}
	}
	return out
}

// Stats aggregates the hub-wide totals.
func (h *Hub) Stats() Totals {
	var t Totals
	for _, sh := range h.shards {
		for _, st := range sh.snapshot() {
			t.add(st)
		}
	}
	return t
}

// ShardTotals reports each shard's aggregate totals in shard-index order —
// the per-shard load, backlog, and drop view behind GET /v1/stats.
func (h *Hub) ShardTotals() []ShardTotals {
	out := make([]ShardTotals, len(h.shards))
	for i, sh := range h.shards {
		out[i].Shard = i
		for _, st := range sh.snapshot() {
			out[i].add(st)
		}
	}
	return out
}

// Reference is the serial oracle the hub's determinism contract points at:
// the transcript a stream's config produces when the whole series is
// driven through a standalone stream.Online, the same suppressor, and a
// final stream.Verify pass. Hub output per stream must be byte-identical
// to Reference over the concatenation of its pushed batches.
func Reference(sc StreamConfig, series []float64) ([]stream.Detection, error) {
	if sc.Suppress < 0 {
		return nil, fmt.Errorf("hub: Suppress must be >= 0 (0 = off), got %d", sc.Suppress)
	}
	o, err := stream.NewOnlineEngine(sc.Classifier, sc.Stride, sc.Step, sc.Engine)
	if err != nil {
		return nil, err
	}
	dets := stream.NewSuppressor(sc.Suppress).Filter(o.PushAll(series))
	if sc.Verifier != nil {
		stream.Verify(dets, series, sc.Classifier.FullLength(), sc.Verifier)
	}
	return dets, nil
}
