package hub

import (
	"fmt"
	"runtime"
	"testing"

	"etsc/internal/dataset"
	"etsc/internal/etsc"
	"etsc/internal/ts"
)

// quietStreamConfig builds a pipeline that ingests indefinitely without
// detecting: a FixedPrefix model over a very long exemplar, with the
// monitor's stride pushed past the horizon so exactly one quiet candidate
// exists. It isolates the hub's enqueue/drain bookkeeping from classifier
// work in the allocation tests.
func quietStreamConfig(t testing.TB, seriesLen int) StreamConfig {
	t.Helper()
	mk := func(level float64) dataset.Instance {
		s := make(ts.Series, seriesLen)
		for i := range s {
			s[i] = level
		}
		return dataset.Instance{Label: int(level) + 2, Series: s}
	}
	d, err := dataset.New("quiet", []dataset.Instance{mk(-1), mk(1)})
	if err != nil {
		t.Fatal(err)
	}
	clf, err := etsc.NewFixedPrefix(d, seriesLen, false)
	if err != nil {
		t.Fatal(err)
	}
	return StreamConfig{Classifier: clf, Stride: seriesLen, Step: 8}
}

// TestHubPushAllocFree is the steady-state zero-allocation regression test
// for the Push path. It measures the enqueue path in isolation: the
// stream's drain is parked (running pinned true) with the freelist and
// queue prewarmed to the measured population, exactly the state of a
// saturated stream whose drain lags its pusher, so every Push must pop a
// recycled buffer, copy, and enqueue without touching the heap.
func TestHubPushAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	const runs = 200
	const batchLen = 64
	h, err := New(Config{Workers: 1, QueueDepth: runs + 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Attach("s", quietStreamConfig(t, 100_000)); err != nil {
		t.Fatal(err)
	}
	s := testStream(h, "s")

	// Park the drain and prewarm: with the queue preallocated to depth and
	// one recycled buffer per measured Push in the freelist, the enqueue
	// path has everything it will ever need.
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
		t.Fatalf("hub.Push allocated %v per call, want 0", allocs)
	}

	// Unpark: hand the queue to a real drain, then shut down cleanly.
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
}

// TestHubPushRecyclesBuffers pins the freelist round trip end to end: after
// pushes drain, their buffers are back on the stream's freelist (bounded by
// the batch population), and a subsequent Push reuses one instead of
// allocating.
func TestHubPushRecyclesBuffers(t *testing.T) {
	h, err := New(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Attach("s", quietStreamConfig(t, 100_000)); err != nil {
		t.Fatal(err)
	}
	s := testStream(h, "s")

	batch := make([]float64, 48)
	for i := 0; i < 12; i++ {
		if err := h.Push("s", batch); err != nil {
			t.Fatal(err)
		}
	}
	h.Flush()
	s.mu.Lock()
	nfree := len(s.free)
	var caps []int
	for _, b := range s.free {
		caps = append(caps, cap(b))
	}
	s.mu.Unlock()
	if nfree < 1 {
		t.Fatal("no drained buffers returned to the freelist")
	}
	if nfree > 5 { // depth + 1 draining
		t.Fatalf("freelist grew to %d buffers, want <= depth+1 = 5", nfree)
	}
	for i, c := range caps {
		if c < len(batch) {
			t.Fatalf("recycled buffer %d has cap %d < batch size %d", i, c, len(batch))
		}
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHubEngineModesIdentical runs the demo-kind golden workload under both
// engine modes and every worker count of interest, requiring transcript-
// identical reports: the pruned frontier must be invisible in hub output.
func TestHubEngineModesIdentical(t *testing.T) {
	kinds, err := DemoKinds(23)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := DemoStreams(kinds, 23, 6, 2_500)
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode etsc.EngineMode, workers int) []StreamReport {
		h, err := New(Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range gens {
			cfg := g.Config
			cfg.Engine = mode
			if err := h.Attach(g.ID, cfg); err != nil {
				t.Fatal(err)
			}
		}
		for _, g := range gens {
			for off := 0; off < len(g.Data); off += 96 {
				end := off + 96
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
		return reports
	}
	want := run(etsc.Eager, 1)
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		got := run(etsc.Pruned, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d reports != %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("workers=%d report %d: ID %q != %q", workers, i, got[i].ID, want[i].ID)
			}
			if fmt.Sprintf("%+v", got[i].Detections) != fmt.Sprintf("%+v", want[i].Detections) {
				t.Fatalf("workers=%d stream %s: pruned transcript differs from eager:\n%+v\n!=\n%+v",
					workers, got[i].ID, got[i].Detections, want[i].Detections)
			}
		}
	}
}
