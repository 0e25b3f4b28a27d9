package serve_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"etsc/internal/client"
	"etsc/internal/hub"
	"etsc/internal/serve/servetest"
	"etsc/internal/stream"
)

// fuzzGen caches one deterministic demo stream per test binary; fuzz
// iterations slice prefixes off it rather than re-running the generator.
var fuzzGen = sync.OnceValues(func() (hub.DemoStream, error) {
	kinds, err := hub.DemoKinds(3)
	if err != nil {
		return hub.DemoStream{}, err
	}
	gens, err := hub.DemoStreams(kinds, 97, 1, 2_400)
	if err != nil {
		return hub.DemoStream{}, err
	}
	return gens[0], nil
})

// FuzzWatchFrames fuzzes the serve-layer subscription path: arbitrary push
// batch boundaries (batchPlan) interleaved with plan-driven watcher
// disconnect/reconnect points (watchPlan, resuming at the frame's Next
// cursor each time) must never deliver a settled detection twice, out of
// order, or not at all — the stitched transcript always equals the serial
// hub.Reference oracle and the stream's final report.
func FuzzWatchFrames(f *testing.F) {
	f.Add(uint8(255), []byte{10, 50, 3, 96}, []byte{0, 1, 2, 3, 4})
	f.Add(uint8(64), []byte{1, 1, 1}, []byte{0, 0, 0, 0})
	f.Add(uint8(200), []byte{}, []byte{})
	f.Add(uint8(16), []byte{200, 200}, []byte{5, 0, 5, 0})

	f.Fuzz(func(t *testing.T, lenByte uint8, batchPlan, watchPlan []byte) {
		gen, err := fuzzGen()
		if err != nil {
			t.Fatal(err)
		}
		kinds := servetest.DemoKinds(t)
		var kind hub.Kind
		for _, k := range kinds {
			if k.Name == gen.Kind {
				kind = k
			}
		}
		// 256..2400 points, scaled by the fuzz byte.
		data := gen.Data[:min(256+int(lenByte)*9, len(gen.Data))]

		srv := servetest.New(t, hub.Config{Workers: 2}, kinds)
		c := srv.Client
		ctx := context.Background()
		if _, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: "fz", Kind: kind.Name}); err != nil {
			t.Fatal(err)
		}

		// Watcher: collect frames, reconnecting at the resume cursor whenever
		// the plan says so. Runs concurrently with the pushes below; the
		// cursor is published only after any reconnect for that frame
		// completed, and st.stop is set before the DELETE below, so a forced
		// reconnect can never race the stream's removal.
		st := &watcherState{}
		done := make(chan []stream.Detection, 1)
		go func() {
			wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
			defer cancel()
			var out []stream.Detection
			next, plan := 0, 0
			ws, err := c.Watch(wctx, "fz", next)
			if err != nil {
				t.Errorf("watch: %v", err)
				done <- out
				return
			}
			defer func() {
				if ws != nil {
					ws.Close()
				}
			}()
			for {
				fr, err := ws.Next()
				if err != nil {
					t.Errorf("watch frame at cursor %d: %v", next, err)
					done <- out
					return
				}
				if fr.Final {
					done <- out
					return
				}
				if fr.Detection == nil || fr.Index != next {
					t.Errorf("frame %+v out of sequence at cursor %d", fr, next)
					done <- out
					return
				}
				out = append(out, *fr.Detection)
				next = fr.Next
				if len(watchPlan) > 0 && !st.stop.Load() {
					b := watchPlan[plan%len(watchPlan)]
					plan++
					if b%5 == 0 {
						ws.Close()
						ws, err = c.Watch(wctx, "fz", next)
						if err != nil {
							t.Errorf("reconnect at %d: %v", next, err)
							done <- out
							return
						}
					}
				}
				st.cursor.Store(int64(next))
			}
		}()

		// Push with fuzz-chosen batch boundaries.
		bi := 0
		for off := 0; off < len(data); {
			n := 64
			if len(batchPlan) > 0 {
				n = 1 + int(batchPlan[bi%len(batchPlan)])
				bi++
			}
			end := min(off+n, len(data))
			if _, err := c.Push(ctx, "fz", data[off:end]); err != nil {
				t.Fatal(err)
			}
			off = end
		}
		srv.Hub.Flush()
		settled, err := c.Detections(ctx, "fz", 1_000_000_000) // clamped: Next == settled
		if err != nil {
			t.Fatal(err)
		}
		st.await(t, settled.Next)
		rep, err := c.DeleteStream(ctx, "fz")
		if err != nil {
			t.Fatal(err)
		}
		got := <-done

		want, err := hub.Reference(kind.Config, data)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := detJSON(t, got), detJSON(t, want); g != w {
			t.Errorf("watch transcript != Reference (len %d):\n got %s\nwant %s", len(data), g, w)
		}
		if g, w := detJSON(t, got), detJSON(t, rep.Detections); g != w {
			t.Errorf("watch transcript != final report (len %d)", len(data))
		}
		srv.CloseHub(t)
	})
}
