package hub

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"etsc/internal/snap"
)

// recoveryKinds trains the demo kinds once for every recovery test in the
// package (training dominates wall-clock; the battery reuses it across
// topologies and worker counts).
var (
	recKindsOnce sync.Once
	recKinds     []Kind
	recKindsErr  error
)

func recoveryKinds(t testing.TB) []Kind {
	t.Helper()
	recKindsOnce.Do(func() {
		recKinds, recKindsErr = DemoKinds(77)
	})
	if recKindsErr != nil {
		t.Fatal(recKindsErr)
	}
	return recKinds
}

// TestCrashRecoveryBattery is the tentpole proof: run the demo workload,
// checkpoint every stream mid-flight, keep pushing, then kill each
// stream's drain worker at a random later batch — the SIGKILL-equivalent:
// the dequeued batch is lost, the stream freezes, the hub is abandoned
// without shutdown. A fresh hub restores every stream from its checkpoint
// and replays from the snapshot watermark with deliberate overlap and
// duplicated pushes (the watermark dedup must make replay idempotent). The
// final per-stream transcripts must be byte-identical to the uninterrupted
// serial Reference oracle — flat and sharded, workers {1, 4, GOMAXPROCS},
// and the whole battery runs under -race in CI.
func TestCrashRecoveryBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-recovery battery replays the demo workload many times")
	}
	kinds := recoveryKinds(t)
	streams, err := DemoStreams(kinds, 77, 6, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, ds := range streams {
		ref, err := Reference(ds.Config, ds.Data)
		if err != nil {
			t.Fatal(err)
		}
		want[ds.ID] = fmt.Sprintf("%+v", ref)
	}
	// Queue depth covers every batch a stream can ever push, so the Block
	// policy never actually blocks — a frozen (killed) stream must not
	// deadlock the pusher.
	maxBatches := 0
	for _, ds := range streams {
		if n := len(ds.Data)/16 + 2; n > maxBatches {
			maxBatches = n
		}
	}

	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, sharded := range []bool{false, true} {
		for _, workers := range workerCounts {
			name := fmt.Sprintf("sharded=%v/workers=%d", sharded, workers)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(workers)*31 + int64(len(name))))
				shards := 1
				if sharded {
					shards = 3
				}
				newHub := func() *Hub {
					h, err := New(Config{Shards: shards, Workers: workers, QueueDepth: maxBatches, Policy: Block})
					if err != nil {
						t.Fatal(err)
					}
					return h
				}

				// batches splits a stream's data into uneven chunks, the
				// same split for both phases of a stream.
				batchesOf := func(data []float64, seed int64) [][]float64 {
					r := rand.New(rand.NewSource(seed))
					var out [][]float64
					for at := 0; at < len(data); {
						n := 16 + r.Intn(48)
						if at+n > len(data) {
							n = len(data) - at
						}
						out = append(out, data[at:at+n])
						at += n
					}
					return out
				}

				// Phase A: push a random prefix, checkpoint every stream.
				h1 := newHub()
				for _, ds := range streams {
					if err := h1.Attach(ds.ID, ds.Config); err != nil {
						t.Fatal(err)
					}
				}
				allBatches := map[string][][]float64{}
				cut := map[string]int{}
				for i, ds := range streams {
					bs := batchesOf(ds.Data, int64(i)*17+3)
					allBatches[ds.ID] = bs
					cut[ds.ID] = 1 + rng.Intn(len(bs)-1)
					for _, b := range bs[:cut[ds.ID]] {
						if err := h1.Push(ds.ID, b); err != nil {
							t.Fatal(err)
						}
					}
				}
				h1.Flush()
				checkpoints := map[string][]byte{}
				watermarks := map[string]int{}
				for _, ds := range streams {
					data, err := h1.Export(ds.ID)
					if err != nil {
						t.Fatal(err)
					}
					id, pos, err := SnapshotInfo(data)
					if err != nil || id != ds.ID {
						t.Fatalf("%s: snapshot info (%q, %v)", ds.ID, id, err)
					}
					checkpoints[ds.ID] = data
					watermarks[ds.ID] = pos
				}

				// Phase B: arm the kill hook (each stream's drain dies a
				// random number of batches past the checkpoint) and keep
				// pushing. Some streams freeze mid-drain; the hub is then
				// abandoned exactly as a killed process abandons memory.
				var fuses sync.Map // id -> *int64 batches to live
				for _, ds := range streams {
					n := int64(rng.Intn(6))
					fuses.Store(ds.ID, &n)
				}
				kill := func(id string) bool {
					v, ok := fuses.Load(id)
					if !ok {
						return false
					}
					return atomic.AddInt64(v.(*int64), -1) < 0
				}
				testDrainKill.Store(&kill)
				for _, ds := range streams {
					for _, b := range allBatches[ds.ID][cut[ds.ID]:] {
						if err := h1.Push(ds.ID, b); err != nil {
							t.Fatal(err)
						}
					}
				}
				testDrainKill.Store(nil)
				// h1 is deliberately abandoned: killed streams hold running
				// drains that will never finish, so Close would hang — which
				// is the point. Recovery must need nothing from the wreck.

				// Phase C: fresh hub, restore from checkpoints, replay from
				// each watermark with overlap, every third batch pushed
				// twice. The watermark dedup absorbs both.
				h2 := newHub()
				for _, ds := range streams {
					if _, err := h2.Restore(checkpoints[ds.ID], ds.Config); err != nil {
						t.Fatalf("%s: restore: %v", ds.ID, err)
					}
				}
				for _, ds := range streams {
					wm := watermarks[ds.ID]
					from := wm - 17
					if from < 0 {
						from = 0
					}
					for at, i := from, 0; at < len(ds.Data); i++ {
						n := 16 + rng.Intn(48)
						if at+n > len(ds.Data) {
							n = len(ds.Data) - at
						}
						if err := h2.PushAt(ds.ID, at, ds.Data[at:at+n]); err != nil {
							t.Fatalf("%s: replay at %d: %v", ds.ID, at, err)
						}
						if i%3 == 0 { // duplicated delivery
							if err := h2.PushAt(ds.ID, at, ds.Data[at:at+n]); err != nil {
								t.Fatalf("%s: duplicate replay at %d: %v", ds.ID, at, err)
							}
						}
						at += n
					}
					// A positioned push past the watermark must be refused,
					// not silently accepted with a hole.
					if err := h2.PushAt(ds.ID, len(ds.Data)+100, []float64{1}); !errors.Is(err, ErrGap) {
						t.Fatalf("%s: gap push error = %v, want ErrGap", ds.ID, err)
					}
				}
				reports, err := h2.Close()
				if err != nil {
					t.Fatal(err)
				}
				if len(reports) != len(streams) {
					t.Fatalf("%d reports for %d streams", len(reports), len(streams))
				}
				total := 0
				for _, r := range reports {
					if got := fmt.Sprintf("%+v", r.Detections); got != want[r.ID] {
						t.Errorf("%s: recovered transcript != Reference\n got %s\nwant %s", r.ID, got, want[r.ID])
					}
					// Position must equal the full stream length: every point
					// applied exactly once despite the overlap and duplicates.
					if n := streamLen(allBatches[r.ID]); r.Stats.Position != n {
						t.Errorf("%s: final position %d, stream length %d", r.ID, r.Stats.Position, n)
					}
					total += len(r.Detections)
				}
				if total == 0 {
					t.Fatal("recovery battery produced no detections — the comparison is vacuous")
				}
			})
		}
	}
}

// streamLen sums a stream's batch lengths (its full data length).
func streamLen(bs [][]float64) int {
	n := 0
	for _, b := range bs {
		n += len(b)
	}
	return n
}

// TestExportIsNonDestructive pins that Export is a read: a stream
// continues after an export (even one taken under queued load) and its
// final transcript is unchanged.
func TestExportIsNonDestructive(t *testing.T) {
	kinds := recoveryKinds(t)
	streams, err := DemoStreams(kinds, 78, 3, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range streams {
		ref, err := Reference(ds.Config, ds.Data)
		if err != nil {
			t.Fatal(err)
		}
		h, err := New(Config{Workers: 2, QueueDepth: 256})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Attach(ds.ID, ds.Config); err != nil {
			t.Fatal(err)
		}
		for at := 0; at < len(ds.Data); at += 64 {
			end := at + 64
			if end > len(ds.Data) {
				end = len(ds.Data)
			}
			if err := h.Push(ds.ID, ds.Data[at:end]); err != nil {
				t.Fatal(err)
			}
			// Export mid-flight, without flushing: the pause gate must cut
			// between batches and resume the drain afterwards.
			if at == 256 || at == 768 {
				if _, err := h.Export(ds.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
		reports, err := h.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%+v", reports[0].Detections), fmt.Sprintf("%+v", ref); got != want {
			t.Errorf("%s: transcript changed by mid-flight exports\n got %s\nwant %s", ds.ID, got, want)
		}
	}
}

// TestRestoreRejectsCorruptSnapshots is the hub half of the
// restore-hardening battery: a real exported snapshot, hand-corrupted
// every way a disk or a bug can corrupt it, must always fail with a typed
// error — never attach, never panic.
func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	kinds := recoveryKinds(t)
	streams, err := DemoStreams(kinds, 80, 1, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	ds := streams[0]
	h, err := New(Config{Workers: 1, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Attach(ds.ID, ds.Config); err != nil {
		t.Fatal(err)
	}
	if err := h.Push(ds.ID, ds.Data[:600]); err != nil {
		t.Fatal(err)
	}
	h.Flush()
	good, err := h.Export(ds.ID)
	if err != nil {
		t.Fatal(err)
	}
	_, _, payload, err := snap.Decode(good)
	if err != nil {
		t.Fatal(err)
	}

	otherKind := kinds[0]
	if otherKind.Name == ds.Kind {
		otherKind = kinds[1]
	}

	fresh := func() *Hub {
		h2, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		return h2
	}
	cases := []struct {
		name string
		data []byte
		sc   StreamConfig
		want error // nil = any non-nil error accepted
	}{
		{"empty", nil, ds.Config, snap.ErrTruncated},
		{"bad magic", append([]byte("JUNK"), good[4:]...), ds.Config, snap.ErrBadMagic},
		{"wrong kind", snap.Encode("etsc-checkpoint", 1, payload), ds.Config, snap.ErrCorrupt},
		{"future version", snap.Encode("etsc-stream-state", 99, payload), ds.Config, snap.ErrVersion},
		{"no classifier", good, StreamConfig{}, ErrBadSnapshot},
		{"wrong classifier window", good, otherKind.Config, ErrBadSnapshot},
		{"verifier mismatch", good, StreamConfig{Classifier: ds.Config.Classifier,
			Verifier: nil}, func() error {
			if ds.Config.Verifier != nil {
				return ErrBadSnapshot
			}
			return nil
		}()},
	}
	for _, tc := range cases {
		if tc.name == "verifier mismatch" && tc.want == nil {
			continue // this kind has no verifier; the case is covered by another kind
		}
		t.Run(tc.name, func(t *testing.T) {
			h2 := fresh()
			if _, err := h2.Restore(tc.data, tc.sc); !errors.Is(err, tc.want) {
				t.Fatalf("Restore(%s) error = %v, want %v", tc.name, err, tc.want)
			}
			if _, err := h2.Detections(ds.ID); !errors.Is(err, ErrUnknownStream) {
				t.Fatalf("stream attached despite failed restore")
			}
		})
	}

	// Torn files: every truncation of the frame must fail (CRC or
	// truncated), and every single corrupted byte must fail (CRC covers
	// the whole frame). The sweep asserts the error path, panics fail the
	// test on their own.
	for cut := 0; cut < len(good); cut += 7 {
		h2 := fresh()
		if _, err := h2.Restore(good[:cut], ds.Config); err == nil {
			t.Fatalf("restore of %d/%d-byte torn snapshot succeeded", cut, len(good))
		}
	}
	for i := 0; i < len(good); i += 11 {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x3C
		h2 := fresh()
		if _, err := h2.Restore(bad, ds.Config); err == nil {
			t.Fatalf("restore with byte %d corrupted succeeded", i)
		}
	}

	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}

	// Duplicate attach: restoring a stream's own export over it while it is
	// live is refused on every shard count, and leaves exactly one stream.
	for _, shards := range []int{1, 4} {
		hd, err := New(Config{Shards: shards, Workers: 1, QueueDepth: 64})
		if err != nil {
			t.Fatal(err)
		}
		if err := hd.Attach(ds.ID, ds.Config); err != nil {
			t.Fatal(err)
		}
		if err := hd.Push(ds.ID, ds.Data[:300]); err != nil {
			t.Fatal(err)
		}
		live, err := hd.Export(ds.ID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hd.Restore(live, ds.Config); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("shards=%d: duplicate restore error = %v, want ErrDuplicate", shards, err)
		}
		if n := hd.Stats().Streams; n != 1 {
			t.Fatalf("shards=%d: %d streams after a refused duplicate restore, want 1", shards, n)
		}
		reports, err := hd.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != 1 || reports[0].ID != ds.ID {
			t.Fatalf("shards=%d: Close returned %d reports, want one for %s", shards, len(reports), ds.ID)
		}
	}
}
