package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"etsc/internal/hub"
	"etsc/internal/stream"
)

// hubSystem drives one in-process hub.Hub with its shipped defaults
// (NumCPU workers, queue depth 16, Block policy).
type hubSystem struct {
	h   *hub.Hub
	ids []string
}

// attachAll builds a default hub and attaches every stream with the config
// cfgOf returns for it, recording one hub.attach span per stream.
func attachAll(p *plan, tr *tracer, ops opCounts, cfgOf func(i int) hub.StreamConfig) (*hubSystem, error) {
	h, err := hub.New(hub.Config{})
	if err != nil {
		return nil, err
	}
	s := &hubSystem{h: h, ids: make([]string, len(p.streams))}
	l := tr.lane()
	for i, in := range p.streams {
		s.ids[i] = in.id
		t0 := time.Now()
		err := h.Attach(in.id, cfgOf(i))
		l.record("hub.attach", in.id, t0, time.Now(), 0)
		if err != nil {
			ops.add("attach", int64(i+1), 1)
			h.Close()
			return nil, fmt.Errorf("attach %s: %w", in.id, err)
		}
	}
	ops.add("attach", int64(len(p.streams)), 0)
	return s, nil
}

func (s *hubSystem) push(l *lane, i int, pts []float64) error {
	if l == nil {
		return s.h.Push(s.ids[i], pts)
	}
	t0 := time.Now()
	err := s.h.Push(s.ids[i], pts)
	l.record("hub.push", s.ids[i], t0, time.Now(), int64(len(pts)))
	return err
}

func (s *hubSystem) read(*lane, int) error { return nil }
func (s *hubSystem) flush()                { s.h.Flush() }
func (s *hubSystem) backlog() int          { return s.h.Stats().QueuedBatches }

func (s *hubSystem) watch(i int) (*hub.Watch, error) {
	return s.h.Watch(s.ids[i], int(^uint(0)>>1))
}

func (s *hubSystem) export(l *lane, i int) (int, error) {
	t0 := time.Now()
	b, err := s.h.Export(s.ids[i])
	l.record("hub.export", s.ids[i], t0, time.Now(), int64(len(b)))
	return len(b), err
}

func (s *hubSystem) finish() ([][]stream.Detection, error) {
	reps, err := s.h.Close()
	if err != nil {
		return nil, err
	}
	byID := make(map[string][]stream.Detection, len(reps))
	for _, r := range reps {
		byID[r.ID] = r.Detections
	}
	out := make([][]stream.Detection, len(s.ids))
	for i, id := range s.ids {
		dets, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("no final report for %s", id)
		}
		out[i] = dets
	}
	return out, nil
}

func (s *hubSystem) close() { s.h.Close() }

// timedVerifier wraps a kind's Verifier to count and time its calls. Only
// the verifier is wrapped: wrapping the classifier would change how
// sessions are dispatched and so the work being measured.
type timedVerifier struct {
	inner stream.Verifier
	calls atomic.Int64
	ns    atomic.Int64
}

func (v *timedVerifier) Verify(window []float64, label int) bool {
	t0 := time.Now()
	ok := v.inner.Verify(window, label)
	v.ns.Add(int64(time.Since(t0)))
	v.calls.Add(1)
	return ok
}
