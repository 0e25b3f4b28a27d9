// Watch: the push half of the detection read path. The cursor API
// (DetectionsSettled + /v1 detections pages) is pull — each poll copies the
// settled prefix and the consumer diffs against its own cursor. Watch
// inverts that: a subscription holds a cursor inside the hub and blocks on
// the stream's notify channel, waking exactly when the settled prefix
// advances, so a million idle streams cost zero CPU between detections and
// a detection reaches every subscriber in one broadcast.
//
// Exactly-once contract: Watch delivers the same settled prefix the cursor
// API pages, in the same order, each detection once. Both read s.dets under
// s.mu bounded by s.settled, so a subscription transcript is byte-identical
// to a paged one — the equivalence battery in internal/serve pins this, and
// resuming a watch at index `since` (the SSE Last-Event-ID path) is
// indistinguishable from a cursor page starting at since.
package hub

import (
	"context"
	"fmt"

	"etsc/internal/stream"
)

// Watch is a live subscription over one stream's settled detection
// transcript. A Watch is owned by a single consumer goroutine (Next is not
// safe for concurrent calls on one Watch); any number of Watches may
// subscribe to the same stream. The subscription survives Detach and Close:
// it holds the stream state directly, so finalization delivers the
// remaining settled detections and then reports final instead of hanging —
// deleting a stream under a live watcher terminates the watch cleanly.
type Watch struct {
	s      *hubStream
	cursor int
	closed bool
}

// Watch subscribes to a stream's settled detections starting at index
// since. A negative since starts at 0; a since beyond the settled prefix is
// clamped down to it (the same clamp the cursor endpoint applies), so a
// resuming subscriber can never skip a detection by overshooting.
func (h *Hub) Watch(id string, since int) (*Watch, error) { return h.shard(id).watch(id, since) }

func (h *shard) watch(id string, since int) (*Watch, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrClosed
	}
	s, ok := h.streams[id]
	h.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownStream, id)
	}
	if since < 0 {
		since = 0
	}
	s.mu.Lock()
	if since > s.settled {
		since = s.settled
	}
	s.watchers++
	s.stats.Watchers = s.watchers
	s.mu.Unlock()
	return &Watch{s: s, cursor: since}, nil
}

// Next blocks until the settled prefix grows past the watch cursor, then
// returns the new settled detections (copied) and advances the cursor.
// final reports that the stream's transcript is complete (Detach or Close
// finalized it): the last detections may arrive with final=true, and once
// Next returns (nil, true, nil) the transcript is fully delivered and no
// further detections will ever exist. Cancelling ctx aborts the wait with
// ctx's error. After final or an error, further Next calls return the same.
func (w *Watch) Next(ctx context.Context) (dets []stream.Detection, final bool, err error) {
	s := w.s
	for {
		s.mu.Lock()
		if s.settled > w.cursor {
			dets = append([]stream.Detection(nil), s.dets[w.cursor:s.settled]...)
			w.cursor = s.settled
			final = s.final
			s.mu.Unlock()
			return dets, final, nil
		}
		if s.final {
			s.mu.Unlock()
			return nil, true, nil
		}
		notify := s.notify
		s.mu.Unlock()
		select {
		case <-notify:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// Cursor returns the index of the next detection Next will deliver — the
// resume token a reconnecting subscriber passes back as since.
func (w *Watch) Cursor() int {
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	return w.cursor
}

// Close releases the subscription and decrements the stream's watcher
// count. Close is idempotent; it does not unblock a concurrent Next (cancel
// its context for that).
func (w *Watch) Close() {
	s := w.s
	s.mu.Lock()
	if !w.closed {
		w.closed = true
		s.watchers--
		s.stats.Watchers = s.watchers
	}
	s.mu.Unlock()
}
