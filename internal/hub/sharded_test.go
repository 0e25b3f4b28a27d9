package hub

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestShardedGoldenDeterminism extends the golden battery to the sharded
// hub: the pinned 3-kinds × 8-streams scenario at shards ∈ {1, 4, 16} ×
// workers ∈ {1, 4, GOMAXPROCS} must produce the exact transcript of the
// single-hub run — the same goldenHash — for every cell. Sharding must be
// invisible in output: it changes which locks contend, never what any
// stream reports or the order Close merges reports in.
func TestShardedGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded golden scenario runs 24 streams × 9 shard/worker cells")
	}
	kinds, err := DemoKinds(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	series, batches, ids := goldenBatches(t, kinds)

	byKind := map[string]Kind{}
	for _, k := range kinds {
		byKind[k.Name] = k
	}
	for _, shards := range []int{1, 4, 16} {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			sh, err := New(Config{Shards: shards, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			reports := runGoldenOn(t, sh, kinds, batches, ids)
			if got := hashTranscript(transcript(reports)); got != goldenHash {
				t.Errorf("shards=%d workers=%d: transcript hash = %s, want pinned %s",
					shards, workers, got, goldenHash)
			}
			// Spot-check one cell per shard count against the serial oracle
			// directly, so a stale pin cannot hide a real divergence.
			if workers == 1 {
				for _, r := range reports {
					kind := byKind[strings.SplitN(r.ID, "-", 2)[0]]
					want, err := Reference(kind.Config, series[r.ID])
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(r.Detections, want) {
						t.Errorf("shards=%d %s: sharded transcript != Reference", shards, r.ID)
					}
				}
			}
		}
	}
}

// TestShardedRoutingAndMerge pins the hash contract and the cross-shard
// read paths: ShardFor is deterministic and in range, a stream's state
// lives on exactly the shard ShardFor names, and Snapshot/Stats/
// ShardTotals merge to the same view a flat iteration over streams gives.
func TestShardedRoutingAndMerge(t *testing.T) {
	const shards = 4
	sh, err := New(Config{Shards: shards, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d", sh.Shards(), shards)
	}
	c := &gateClassifier{full: 16}
	ids := make([]string, 12)
	used := map[int]bool{}
	for i := range ids {
		ids[i] = fmt.Sprintf("stream-%02d", i)
		want := sh.ShardFor(ids[i])
		if got := sh.ShardFor(ids[i]); got != want || got < 0 || got >= shards {
			t.Fatalf("ShardFor(%q) unstable or out of range: %d then %d", ids[i], want, got)
		}
		used[want] = true
		if err := sh.Attach(ids[i], StreamConfig{Classifier: c, Stride: 4, Step: 4}); err != nil {
			t.Fatal(err)
		}
		// The stream must be registered on its hash-owned shard and only
		// there — that is the whole routing contract.
		for si, part := range sh.shards {
			_, _, err := part.detectionsSettled(ids[i])
			if owned := si == want; (err == nil) != owned {
				t.Fatalf("%s on shard %d: err=%v, want owned=%v", ids[i], si, err, owned)
			}
		}
	}
	if len(used) < 2 {
		t.Fatalf("12 ids landed on %d shard(s); hash is not spreading", len(used))
	}

	batch := make([]float64, 32)
	for _, id := range ids {
		if err := sh.Push(id, batch); err != nil {
			t.Fatal(err)
		}
	}
	sh.Flush()

	snap := sh.Snapshot()
	if len(snap) != len(ids) {
		t.Fatalf("Snapshot has %d streams, want %d", len(snap), len(ids))
	}
	tot := sh.Stats()
	if tot.Streams != len(ids) || tot.Points != int64(32*len(ids)) || tot.Batches != int64(len(ids)) {
		t.Errorf("totals = %+v, want %d streams / %d points / %d batches",
			tot, len(ids), 32*len(ids), len(ids))
	}
	per := sh.ShardTotals()
	if len(per) != shards {
		t.Fatalf("ShardTotals has %d entries, want %d", len(per), shards)
	}
	var sum Totals
	for i, st := range per {
		if st.Shard != i {
			t.Errorf("ShardTotals[%d].Shard = %d", i, st.Shard)
		}
		sum.Streams += st.Streams
		sum.Points += st.Points
		sum.Batches += st.Batches
		sum.Detections += st.Detections
		sum.Recanted += st.Recanted
	}
	if sum.Streams != tot.Streams || sum.Points != tot.Points || sum.Batches != tot.Batches ||
		sum.Detections != tot.Detections {
		t.Errorf("per-shard totals sum %+v != hub totals %+v", sum, tot)
	}

	// Detach routes to the owning shard; the report is the stream's own.
	rep, err := sh.Detach(ids[3])
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != ids[3] || rep.Stats.Position != 32 {
		t.Errorf("detach report = %+v", rep)
	}
	if err := sh.Push(ids[3], batch); !errors.Is(err, ErrUnknownStream) {
		t.Errorf("push after detach: %v", err)
	}

	reports, err := sh.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(ids)-1 {
		t.Fatalf("Close returned %d reports, want %d", len(reports), len(ids)-1)
	}
	for i := 1; i < len(reports); i++ {
		if reports[i-1].ID >= reports[i].ID {
			t.Fatalf("Close reports out of order: %q before %q", reports[i-1].ID, reports[i].ID)
		}
	}
}

// TestShardedQueueBackpressure checks the per-stream queue bound and drop
// accounting survive the shard indirection, and that the queue backlog
// surfaces in the shard's totals.
func TestShardedQueueBackpressure(t *testing.T) {
	gate := make(chan struct{})
	slow := &gateClassifier{full: 16, gate: gate}
	sh, err := New(Config{Shards: 3, Workers: 3, QueueDepth: 2, Policy: Drop})
	if err != nil {
		t.Fatal(err)
	}
	const id = "jammed"
	if err := sh.Attach(id, StreamConfig{Classifier: slow, Stride: 4, Step: 4}); err != nil {
		t.Fatal(err)
	}
	batch := []float64{1, 2, 3, 4}
	// First batch occupies the owning shard's worker inside the gated
	// classifier; wait until the drain has dequeued it (backlog back to 0)
	// so the next two pushes deterministically fill the queue.
	if err := sh.Push(id, batch); err != nil {
		t.Fatal(err)
	}
	for sh.Snapshot()[id].QueuedBatches != 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		if err := sh.Push(id, batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Push(id, batch); !errors.Is(err, ErrDropped) {
		t.Fatalf("overflow push: got %v, want ErrDropped", err)
	}
	per := sh.ShardTotals()
	own := per[sh.ShardFor(id)]
	if own.QueuedBatches != 2 || own.DroppedBatches != 1 || own.DroppedPoints != 4 {
		t.Errorf("owning shard totals = %+v, want 2 queued / 1 dropped batch / 4 dropped points", own)
	}
	for i, st := range per {
		if i != sh.ShardFor(id) && (st.Streams != 0 || st.QueuedBatches != 0) {
			t.Errorf("shard %d has load %+v for a stream it does not own", i, st)
		}
	}
	close(gate)
	sh.Flush()
	if tot := sh.Stats(); tot.QueuedBatches != 0 || tot.Points != 12 {
		t.Errorf("after flush: totals = %+v, want 0 queued / 12 points", tot)
	}
	if _, err := sh.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedConfigValidation rejects bad shard counts and bad per-shard
// settings at New, and pins the zero Config to one shard.
func TestShardedConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Shards: -1},
		{Workers: -1},
		{Shards: 2, Workers: -1},
		{Shards: 2, QueueDepth: -1},
		{Shards: 2, Policy: Policy(7)},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted an invalid config", cfg)
		}
	}
	// Zero value: one shard, usable.
	sh, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Shards() != 1 {
		t.Errorf("zero config built %d shards, want 1", sh.Shards())
	}
	if _, err := sh.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardIndexStable pins the hash contract itself: ShardFor is a pure
// function of (id, shards) with pinned values, so external routers
// computing placement from the documented FNV-1a formula cannot drift from
// the hub.
func TestShardIndexStable(t *testing.T) {
	pins := []struct {
		id     string
		n, out int
	}{
		{"", 4, 1}, // FNV-1a offset basis 2166136261 % 4
		{"coop7", 4, 1},
		{"coop7", 16, 13},
		{"words-00", 4, 1},
		{"gunpoint-01", 16, 7},
	}
	for _, p := range pins {
		h, err := New(Config{Shards: p.n, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := h.ShardFor(p.id); got != p.out {
			t.Errorf("ShardFor(%q) over %d shards = %d, want pinned %d", p.id, p.n, got, p.out)
		}
		if _, err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseIdempotentUnderPush is the regression test for the Close
// contract: Close racing with in-flight Pushes and with other Close calls
// must neither panic nor hang, every Close call must return the same
// drained reports, and no accepted batch may be lost — on one shard and
// on several.
func TestCloseIdempotentUnderPush(t *testing.T) {
	builds := []struct {
		name string
		cfg  Config
	}{
		{"hub", Config{Workers: 2, QueueDepth: 4}},
		{"sharded", Config{Shards: 4, Workers: 4, QueueDepth: 4}},
	}
	for _, bc := range builds {
		t.Run(bc.name, func(t *testing.T) {
			h, err := New(bc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := &gateClassifier{full: 16}
			const nStreams = 8
			for i := 0; i < nStreams; i++ {
				if err := h.Attach(fmt.Sprintf("s%d", i), StreamConfig{Classifier: c, Stride: 4, Step: 4}); err != nil {
					t.Fatal(err)
				}
			}
			// Pushers hammer until the hub closes under them; every push
			// must either succeed or fail with ErrClosed/ErrUnknownStream.
			stop := make(chan struct{})
			var pushers sync.WaitGroup
			for i := 0; i < nStreams; i++ {
				pushers.Add(1)
				go func(id string) {
					defer pushers.Done()
					batch := make([]float64, 8)
					for {
						select {
						case <-stop:
							return
						default:
						}
						err := h.Push(id, batch)
						if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrUnknownStream) {
							t.Errorf("%s: push during close: %v", id, err)
							return
						}
						if err != nil {
							return
						}
					}
				}(fmt.Sprintf("s%d", i))
			}

			const nClosers = 4
			results := make([][]StreamReport, nClosers)
			errs := make([]error, nClosers)
			var closers sync.WaitGroup
			for i := 0; i < nClosers; i++ {
				closers.Add(1)
				go func(i int) {
					defer closers.Done()
					results[i], errs[i] = h.Close()
				}(i)
			}
			closers.Wait()
			close(stop)
			pushers.Wait()

			for i := 0; i < nClosers; i++ {
				if errs[i] != nil {
					t.Fatalf("closer %d: %v", i, errs[i])
				}
				if len(results[i]) != nStreams {
					t.Fatalf("closer %d got %d reports, want %d", i, len(results[i]), nStreams)
				}
				if !reflect.DeepEqual(results[i], results[0]) {
					t.Errorf("closer %d reports differ from closer 0", i)
				}
			}
			// Every accepted batch was applied: position == accepted points.
			for _, r := range results[0] {
				if int64(r.Stats.Position) != r.Stats.Points {
					t.Errorf("%s: position %d != accepted points %d", r.ID, r.Stats.Position, r.Stats.Points)
				}
			}
			// A straggler Close after the fact returns the same thing again.
			again, err := h.Close()
			if err != nil {
				t.Fatalf("post-hoc Close: %v", err)
			}
			if !reflect.DeepEqual(again, results[0]) {
				t.Error("post-hoc Close reports differ")
			}
		})
	}
}

// TestShardedHubMatchesOnline is the shard-count sweep of the equivalence
// contract: one stream per demo kind pushed in ragged batches through 1-,
// 4-, and 16-shard hubs all reproduce the serial Reference transcript.
func TestShardedHubMatchesOnline(t *testing.T) {
	kinds, err := DemoKinds(11)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, shards := range []int{1, 4, 16} {
		sh, err := New(Config{Shards: shards, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		for _, k := range kinds {
			if series[k.Name] == nil {
				data, err := k.Gen(rand.New(rand.NewSource(7)), 2600)
				if err != nil {
					t.Fatal(err)
				}
				series[k.Name] = data
			}
			data := series[k.Name]
			if err := sh.Attach(k.Name, k.Config); err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(data); {
				n := 1 + rng.Intn(97)
				if off+n > len(data) {
					n = len(data) - off
				}
				if err := sh.Push(k.Name, data[off:off+n]); err != nil {
					t.Fatal(err)
				}
				off += n
			}
		}
		reports, err := sh.Close()
		if err != nil {
			t.Fatal(err)
		}
		byID := map[string]StreamReport{}
		for _, r := range reports {
			byID[r.ID] = r
		}
		for _, k := range kinds {
			ref, err := Reference(k.Config, series[k.Name])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(byID[k.Name].Detections, ref) {
				t.Errorf("shards=%d %s: transcript diverges from Reference", shards, k.Name)
			}
			if len(ref) == 0 {
				t.Errorf("%s: no detections — equivalence vacuous", k.Name)
			}
		}
	}
}
