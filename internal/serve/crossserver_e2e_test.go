package serve_test

// Cross-process durable-state battery: the wire path etsc-router's
// rebalance is built on. Two SEPARATE server processes (independent
// hubs, independent HTTP listeners — nothing shared but the kind
// registry), a stream snapshotted off one over HTTP and restored into
// the other over HTTP, then replayed with overlap via positioned pushes.
// The transcript on the second server must be byte-identical to an
// uninterrupted run — the proof that snapshot/restore is a true
// process-independent migration primitive, not a same-process trick.

import (
	"context"
	"net/http"
	"reflect"
	"testing"

	"etsc/internal/client"
	"etsc/internal/hub"
	"etsc/internal/serve/servetest"
)

func TestCrossServerSnapshotReplay(t *testing.T) {
	kinds := servetest.DemoKinds(t)
	streams, err := hub.DemoStreams(kinds, 13, 1, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	ds := streams[0]
	ctx := context.Background()

	// Two genuinely separate server stacks.
	srvA := servetest.New(t, hub.Config{Workers: 2}, kinds)
	srvB := servetest.New(t, hub.Config{Workers: 2}, kinds)

	if _, err := srvA.Client.CreateStream(ctx, client.CreateStreamRequest{ID: ds.ID, Kind: ds.Kind}); err != nil {
		t.Fatal(err)
	}
	half := len(ds.Data) / 2
	pushRange(t, srvA.Client, ds.ID, ds.Data, 0, half, true)
	srvA.Hub.Flush()

	snap, err := srvA.Client.SnapshotStream(ctx, ds.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Position != half {
		t.Fatalf("snapshot watermark %d, want %d", snap.Position, half)
	}

	// Land it on the other process.
	info, err := srvB.Client.RestoreStream(ctx, snap)
	if err != nil {
		t.Fatalf("restore on second server: %v", err)
	}
	if info.Stats.Position != half || info.Kind != ds.Kind {
		t.Fatalf("restored info = {kind %q pos %d}, want {%s %d}", info.Kind, info.Stats.Position, ds.Kind, half)
	}

	// The watermark travelled: a positioned push beyond it is a refused
	// gap on the new process, exactly as it would be on the old one.
	_, err = srvB.Client.PushAt(ctx, ds.ID, half+500, ds.Data[half:half+1])
	servetest.APIErrOf(t, err, http.StatusConflict, client.CodeGap)

	// At-least-once replay across the process boundary: resume from
	// before the watermark; the overlap must be skipped, not re-applied.
	from := half - 217
	pushRange(t, srvB.Client, ds.ID, ds.Data, from, len(ds.Data), true)
	srvB.Hub.Flush()

	rep, err := srvB.Client.DeleteStream(ctx, ds.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Position != len(ds.Data) {
		t.Errorf("final position %d, want %d", rep.Stats.Position, len(ds.Data))
	}
	want, err := hub.Reference(ds.Config, ds.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Detections, want) {
		t.Errorf("cross-server transcript != oracle:\n got %+v\nwant %+v", rep.Detections, want)
	}

	// The old process is untouched by the migration until told otherwise:
	// its copy still serves, and deleting it is the caller's move.
	if _, err := srvA.Client.Stream(ctx, ds.ID); err != nil {
		t.Errorf("source copy gone before explicit delete: %v", err)
	}
	if _, err := srvA.Client.DeleteStream(ctx, ds.ID); err != nil {
		t.Errorf("delete source copy: %v", err)
	}
	srvA.CloseHub(t)
	srvB.CloseHub(t)
}
