package hub

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"etsc/internal/metrics"
	"etsc/internal/stream"
)

// collectWatch drains a Watch to completion, returning the full delivered
// transcript. It marks the test failed (without Fatal — it runs on watcher
// goroutines) if the watch does not finalize in time, returning what it
// collected so the caller's comparison reports the shortfall.
func collectWatch(t *testing.T, w *Watch) []stream.Detection {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var out []stream.Detection
	for {
		dets, final, err := w.Next(ctx)
		if err != nil {
			t.Errorf("watch Next: %v", err)
			return out
		}
		out = append(out, dets...)
		if final {
			return out
		}
	}
}

// TestWatchMatchesReference subscribes before any data arrives, pushes a
// demo workload concurrently, and requires the live subscription transcript
// to equal both the final report and the serial Reference oracle — the
// exactly-once delivery contract, at several worker counts.
func TestWatchMatchesReference(t *testing.T) {
	kinds, err := DemoKinds(41)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := DemoStreams(kinds, 41, 4, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		h, err := New(Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range gens {
			if err := h.Attach(g.ID, g.Config); err != nil {
				t.Fatal(err)
			}
		}
		watched := make(map[string]chan []stream.Detection, len(gens))
		for _, g := range gens {
			w, err := h.Watch(g.ID, 0)
			if err != nil {
				t.Fatal(err)
			}
			ch := make(chan []stream.Detection, 1)
			watched[g.ID] = ch
			go func(w *Watch) {
				defer w.Close()
				ch <- collectWatch(t, w)
			}(w)
		}
		for _, g := range gens {
			for off := 0; off < len(g.Data); off += 64 {
				end := off + 64
				if end > len(g.Data) {
					end = len(g.Data)
				}
				if err := h.Push(g.ID, g.Data[off:end]); err != nil {
					t.Fatal(err)
				}
			}
		}
		reports, err := h.Close()
		if err != nil {
			t.Fatal(err)
		}
		byID := map[string]StreamReport{}
		for _, r := range reports {
			byID[r.ID] = r
		}
		for _, g := range gens {
			got := <-watched[g.ID]
			want, err := Reference(g.Config, g.Data)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
				t.Errorf("workers=%d stream %s: watch transcript differs from Reference:\n%+v\n!=\n%+v",
					workers, g.ID, got, want)
			}
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", byID[g.ID].Detections) {
				t.Errorf("workers=%d stream %s: watch transcript differs from final report", workers, g.ID)
			}
		}
	}
}

// TestWatchResume pins the reconnect contract: a watch killed mid-stream
// and resumed at its cursor delivers exactly the suffix, so the stitched
// transcript equals an uninterrupted one.
func TestWatchResume(t *testing.T) {
	kinds, err := DemoKinds(43)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := DemoStreams(kinds, 43, 1, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	g := gens[0]
	h, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Attach(g.ID, g.Config); err != nil {
		t.Fatal(err)
	}
	// First half of the data, then drain and read what settled.
	half := len(g.Data) / 2
	for off := 0; off < half; off += 64 {
		end := off + 64
		if end > half {
			end = half
		}
		if err := h.Push(g.ID, g.Data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	h.Flush()
	w1, err := h.Watch(g.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	first, _, err := w1.Next(ctx)
	cancel()
	if err != nil {
		// No settled detections in the first half is possible but would make
		// the resume test vacuous; the demo workload is chosen to detect.
		t.Fatalf("no settled detections after half the data: %v", err)
	}
	cursor := w1.Cursor()
	w1.Close()
	if cursor != len(first) {
		t.Fatalf("cursor %d != delivered %d", cursor, len(first))
	}

	// Reconnect at the cursor, push the rest, and drain to final.
	w2, err := h.Watch(g.ID, cursor)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []stream.Detection, 1)
	go func() {
		defer w2.Close()
		done <- collectWatch(t, w2)
	}()
	for off := half; off < len(g.Data); off += 64 {
		end := off + 64
		if end > len(g.Data) {
			end = len(g.Data)
		}
		if err := h.Push(g.ID, g.Data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Detach(g.ID); err != nil {
		t.Fatal(err)
	}
	rest := <-done
	got := append(append([]stream.Detection(nil), first...), rest...)
	want, err := Reference(g.Config, g.Data)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("stitched resume transcript differs from Reference:\n%+v\n!=\n%+v", got, want)
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWatchSinceClamp pins the overshoot clamp: subscribing far beyond the
// settled prefix starts at the settled boundary (nothing is skipped), and a
// negative since starts at zero.
func TestWatchSinceClamp(t *testing.T) {
	h, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Attach("s", quietStreamConfig(t, 100_000)); err != nil {
		t.Fatal(err)
	}
	w, err := h.Watch("s", 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if c := w.Cursor(); c != 0 {
		t.Errorf("overshot since clamped to %d, want 0 (settled)", c)
	}
	w.Close()
	w, err = h.Watch("s", -5)
	if err != nil {
		t.Fatal(err)
	}
	if c := w.Cursor(); c != 0 {
		t.Errorf("negative since gave cursor %d, want 0", c)
	}
	w.Close()
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWatchFinalOnDetach pins the detach-under-watch contract: a watcher
// blocked in Next when its stream is detached observes final instead of
// hanging, and the same for Close; watcher counts drop back to zero on
// Watch.Close.
func TestWatchFinalOnDetach(t *testing.T) {
	for _, mode := range []string{"detach", "close"} {
		h, err := New(Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Attach("s", quietStreamConfig(t, 100_000)); err != nil {
			t.Fatal(err)
		}
		w, err := h.Watch("s", 0)
		if err != nil {
			t.Fatal(err)
		}
		if st := h.Snapshot()["s"]; st.Watchers != 1 {
			t.Fatalf("%s: Watchers = %d, want 1", mode, st.Watchers)
		}
		got := make(chan bool, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, final, err := w.Next(ctx)
			got <- final && err == nil
		}()
		// Give the watcher a moment to block, then finalize the stream.
		time.Sleep(10 * time.Millisecond)
		if mode == "detach" {
			if _, err := h.Detach("s"); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := h.Close(); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case ok := <-got:
			if !ok {
				t.Errorf("%s: watcher did not observe a clean final", mode)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%s: watcher hung after stream finalization", mode)
		}
		w.Close()
		if mode == "detach" {
			if _, err := h.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestWatchAfterCloseRejected pins subscription admission: watching an
// unknown stream or a closed hub fails fast with the sentinel errors.
func TestWatchAfterCloseRejected(t *testing.T) {
	h, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Watch("nope", 0); !strings.Contains(fmt.Sprint(err), "unknown stream") {
		t.Errorf("unknown stream watch error = %v", err)
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Watch("s", 0); err != ErrClosed {
		t.Errorf("watch after close error = %v, want ErrClosed", err)
	}
}

// TestShedEvictsOldest pins the Shed policy mechanics with a parked drain:
// pushes beyond the queue depth evict oldest-first, every push succeeds,
// the evictions are counted, and the queue retains the newest batches.
func TestShedEvictsOldest(t *testing.T) {
	const depth = 4
	h, err := New(Config{Workers: 1, QueueDepth: depth, Policy: Shed})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Attach("s", quietStreamConfig(t, 100_000)); err != nil {
		t.Fatal(err)
	}
	s := testStream(h, "s")
	s.mu.Lock()
	s.running = true // park the drain so the queue can only fill
	s.mu.Unlock()

	for i := 0; i < 10; i++ {
		batch := []float64{float64(i), float64(i), float64(i)}
		if err := h.Push("s", batch); err != nil {
			t.Fatalf("push %d rejected under Shed: %v", i, err)
		}
	}
	s.mu.Lock()
	var heads []int
	for _, b := range s.queue {
		heads = append(heads, int(b[0]))
	}
	st := s.stats
	s.mu.Unlock()
	if want := []int{6, 7, 8, 9}; fmt.Sprint(heads) != fmt.Sprint(want) {
		t.Errorf("queue after shedding = %v, want newest %v", heads, want)
	}
	if st.ShedBatches != 6 || st.ShedPoints != 18 {
		t.Errorf("shed counters = %d batches / %d points, want 6 / 18", st.ShedBatches, st.ShedPoints)
	}
	if st.DroppedBatches != 0 {
		t.Errorf("Shed must not count drops, got %d", st.DroppedBatches)
	}
	if tot := h.Stats(); tot.ShedBatches != 6 || tot.ShedPoints != 18 {
		t.Errorf("totals shed = %d/%d, want 6/18", tot.ShedBatches, tot.ShedPoints)
	}

	s.mu.Lock()
	s.running = false
	s.mu.Unlock()
	if err := h.Push("s", []float64{10}); err != nil {
		t.Fatal(err)
	}
	h.Flush()
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShedUnderRoomMatchesReference pins that Shed is invisible when the
// queue never fills: with ample depth the transcript equals Reference, so
// the policy only changes behaviour at the saturation boundary.
func TestShedUnderRoomMatchesReference(t *testing.T) {
	kinds, err := DemoKinds(47)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := DemoStreams(kinds, 47, 3, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(Config{Workers: 4, QueueDepth: 1 << 12, Policy: Shed})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gens {
		if err := h.Attach(g.ID, g.Config); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range gens {
		for off := 0; off < len(g.Data); off += 128 {
			end := off + 128
			if end > len(g.Data) {
				end = len(g.Data)
			}
			if err := h.Push(g.ID, g.Data[off:end]); err != nil {
				t.Fatal(err)
			}
		}
	}
	reports, err := h.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.Stats.ShedBatches != 0 {
			t.Errorf("stream %s shed %d batches with an oversized queue", r.ID, r.Stats.ShedBatches)
		}
	}
	byID := map[string][]stream.Detection{}
	for _, r := range reports {
		byID[r.ID] = r.Detections
	}
	for _, g := range gens {
		want, err := Reference(g.Config, g.Data)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", byID[g.ID]) != fmt.Sprintf("%+v", want) {
			t.Errorf("stream %s: Shed-policy transcript differs from Reference", g.ID)
		}
	}
}

// TestParsePolicyRoundTrip pins the String/ParsePolicy pairing the CLI
// -policy flag depends on.
func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{Block, Drop, Shed} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("lossy"); err == nil {
		t.Error("ParsePolicy accepted an unknown name")
	}
}

// TestHubPushAllocFreeWithMetrics re-runs the zero-allocation Push
// regression with metrics instrumentation enabled: atomic instrument
// updates must not cost the hot path its contract.
func TestHubPushAllocFreeWithMetrics(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	const runs = 200
	const batchLen = 64
	h, err := New(Config{Workers: 1, QueueDepth: runs + 8})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	h.SetMetrics(reg, metrics.L("hub", "test"))
	if err := h.Attach("s", quietStreamConfig(t, 100_000)); err != nil {
		t.Fatal(err)
	}
	s := testStream(h, "s")
	s.mu.Lock()
	s.running = true
	for i := 0; i < runs+2; i++ {
		s.free = append(s.free, make([]float64, 0, batchLen))
	}
	s.mu.Unlock()

	batch := make([]float64, batchLen)
	allocs := testing.AllocsPerRun(runs, func() {
		if err := h.Push("s", batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hub.Push with metrics allocated %v per call, want 0", allocs)
	}

	s.mu.Lock()
	s.running = false
	s.mu.Unlock()
	if err := h.Push("s", batch); err != nil {
		t.Fatal(err)
	}
	h.Flush()
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `etsc_hub_batches_total{hub="test"}`) {
		t.Errorf("metrics missing hub batch counter:\n%s", b.String())
	}
	if err := metrics.Lint(strings.NewReader(b.String())); err != nil {
		t.Errorf("hub metrics fail lint: %v", err)
	}
}

// TestShardedWatchAndMetrics pins the sharded delegations: watches land on
// the owning shard and deliver the same transcript as the flat hub, and
// SetMetrics registers per-shard labelled series.
func TestShardedWatchAndMetrics(t *testing.T) {
	kinds, err := DemoKinds(53)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := DemoStreams(kinds, 53, 4, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := New(Config{Shards: 3, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	sh.SetMetrics(reg)
	watched := make(map[string]chan []stream.Detection, len(gens))
	for _, g := range gens {
		if err := sh.Attach(g.ID, g.Config); err != nil {
			t.Fatal(err)
		}
		w, err := sh.Watch(g.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		ch := make(chan []stream.Detection, 1)
		watched[g.ID] = ch
		go func(w *Watch) {
			defer w.Close()
			ch <- collectWatch(t, w)
		}(w)
	}
	for _, g := range gens {
		for off := 0; off < len(g.Data); off += 96 {
			end := off + 96
			if end > len(g.Data) {
				end = len(g.Data)
			}
			if err := sh.Push(g.ID, g.Data[off:end]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	for _, g := range gens {
		got := <-watched[g.ID]
		want, err := Reference(g.Config, g.Data)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Errorf("sharded stream %s: watch transcript differs from Reference", g.ID)
		}
	}
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !strings.Contains(b.String(), fmt.Sprintf(`etsc_hub_batches_total{shard="%d"}`, i)) {
			t.Errorf("metrics missing shard %d series:\n%s", i, b.String())
		}
	}
	if err := metrics.Lint(strings.NewReader(b.String())); err != nil {
		t.Errorf("sharded metrics fail lint: %v", err)
	}
}
