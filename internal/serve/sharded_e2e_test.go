package serve_test

import (
	"context"
	"reflect"
	"testing"

	"etsc/internal/client"
	"etsc/internal/hub"
	"etsc/internal/serve/servetest"
)

// TestV1ShardedEndToEnd drives the /v1 surface against a 4-shard hub:
// StreamInfo echoes the hub's own hash placement, GET /v1/stats carries a
// per-shard breakdown summing to the flat totals (so pre-shard clients
// decoding only Totals keep working), and every stream's final transcript
// still equals the serial hub.Reference oracle — sharding is a routing
// detail, not a behaviour change.
func TestV1ShardedEndToEnd(t *testing.T) {
	kinds := servetest.DemoKinds(t)
	const shards = 4
	srv := servetest.New(t, hub.Config{Shards: shards, Workers: 4}, kinds)
	h, c := srv.Hub, srv.Client
	ctx := context.Background()

	const nStreams, minLen = 8, 2400
	gens, err := hub.DemoStreams(kinds, 11, nStreams, minLen)
	if err != nil {
		t.Fatal(err)
	}

	var total int64
	for i, g := range gens {
		kindName := kinds[i%len(kinds)].Name
		info, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: g.ID, Kind: kindName})
		if err != nil {
			t.Fatalf("create %s: %v", g.ID, err)
		}
		if info.Shard != h.ShardFor(g.ID) {
			t.Fatalf("create %s: StreamInfo.Shard %d, hub places it on %d", g.ID, info.Shard, h.ShardFor(g.ID))
		}
		for off := 0; off < len(g.Data); off += 96 {
			end := min(off+96, len(g.Data))
			if _, err := c.Push(ctx, g.ID, g.Data[off:end]); err != nil {
				t.Fatalf("push %s: %v", g.ID, err)
			}
		}
		total += int64(len(g.Data))
	}
	h.Flush()

	// GET /v1/streams re-reports placement for every stream.
	infos, err := c.Streams(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != nStreams {
		t.Fatalf("Streams() returned %d entries, want %d", len(infos), nStreams)
	}
	for _, info := range infos {
		if info.Shard != h.ShardFor(info.ID) {
			t.Fatalf("list %s: Shard %d, want %d", info.ID, info.Shard, h.ShardFor(info.ID))
		}
	}

	// Flat decode (pre-shard client) and full decode agree; the per-shard
	// rows sum to the flat totals.
	flat, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.ShardStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if flat != full.Totals {
		t.Fatalf("flat totals %+v != embedded totals %+v", flat, full.Totals)
	}
	if flat.Streams != nStreams || flat.Points != total {
		t.Fatalf("totals %+v, want %d streams / %d points", flat, nStreams, total)
	}
	if len(full.Shards) != shards {
		t.Fatalf("stats carries %d shard rows, want %d", len(full.Shards), shards)
	}
	var sum hub.Totals
	for i, st := range full.Shards {
		if st.Shard != i {
			t.Fatalf("shard row %d labelled %d", i, st.Shard)
		}
		sum.Streams += st.Streams
		sum.Batches += st.Batches
		sum.Points += st.Points
		sum.QueuedBatches += st.QueuedBatches
		sum.DroppedBatches += st.DroppedBatches
		sum.DroppedPoints += st.DroppedPoints
		sum.ShedBatches += st.ShedBatches
		sum.ShedPoints += st.ShedPoints
		sum.Detections += st.Detections
		sum.Recanted += st.Recanted
		sum.Watchers += st.Watchers
	}
	if sum != flat {
		t.Fatalf("shard rows sum to %+v, flat totals %+v", sum, flat)
	}

	for i, g := range gens {
		kind := kinds[i%len(kinds)]
		rep, err := c.DeleteStream(ctx, g.ID)
		if err != nil {
			t.Fatalf("delete %s: %v", g.ID, err)
		}
		want, err := hub.Reference(kind.Config, g.Data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Detections, want) {
			t.Errorf("%s: sharded /v1 transcript diverges from Reference:\n got %v\nwant %v", g.ID, rep.Detections, want)
		}
	}
	if _, err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestV1UnshardedStatsShape pins the unsharded server's /v1/stats body:
// no "shards" key (omitempty) and Shard 0 in StreamInfo, so flat servers
// look exactly like they did before sharding existed.
func TestV1UnshardedStatsShape(t *testing.T) {
	kinds := servetest.DemoKinds(t)
	srv := servetest.New(t, hub.Config{Workers: 2}, kinds)
	c := srv.Client
	ctx := context.Background()

	info, err := c.CreateStream(ctx, client.CreateStreamRequest{ID: "flat-0"})
	if err != nil {
		t.Fatal(err)
	}
	if info.Shard != 0 {
		t.Fatalf("unsharded StreamInfo.Shard = %d, want 0", info.Shard)
	}
	full, err := c.ShardStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if full.Shards != nil {
		t.Fatalf("unsharded /v1/stats carries shard rows: %+v", full.Shards)
	}
	if full.Streams != 1 {
		t.Fatalf("totals %+v, want 1 stream", full.Totals)
	}
}
