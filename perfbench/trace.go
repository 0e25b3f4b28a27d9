package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Key ties together the spans of one
// request across layers (stream id plus per-stream sequence number).
type span struct {
	ID     int64
	Parent int64
	Name   string
	Key    string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Bytes  int64
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; a nil *tracer records nothing, so untraced
// runs pay one nil check per call site. Each recording goroutine appends to
// its own buffer (obtained from lane) so tracing adds no shared lock to the
// hot path being measured.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	lanes []*lane
}

type lane struct {
	t     *tracer
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	l := &lane{t: t}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// since converts a wall-clock instant to the tracer's timeline.
func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.epoch) }

// record appends a finished span; on a nil lane (untraced) it does
// nothing. Parents are linked after the run, by request key.
func (l *lane) record(name, key string, start, end time.Time, bytes int64) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{ID: l.t.next.Add(1), Name: name, Key: key,
		Start: l.t.since(start), End: l.t.since(end), Bytes: bytes})
}

// byName gathers every recorded span with the given name. Call only after
// the goroutines recording into lanes have finished.
func (t *tracer) byName(name string) []span {
	var out []span
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if s.Name == name {
				out = append(out, s)
			}
		}
	}
	return out
}

// maxWrittenPerName caps how many spans of one name reach the trace file;
// a swarm pass records millions of push spans and the metrics are computed
// from the in-memory set, so the file keeps a prefix plus the count.
const maxWrittenPerName = 20000

// write dumps the spans as tab-separated lines (id, parent, name, key,
// start ns, end ns, bytes) into path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	written := map[string]int{}
	omitted := map[string]int{}
	fmt.Fprintln(w, "id\tparent\tname\tkey\tstart_ns\tend_ns\tbytes")
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if written[s.Name] >= maxWrittenPerName {
				omitted[s.Name]++
				continue
			}
			written[s.Name]++
			fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\t%d\n", s.ID, s.Parent, s.Name, s.Key,
				s.Start.Nanoseconds(), s.End.Nanoseconds(), s.Bytes)
		}
	}
	for name, n := range omitted {
		fmt.Fprintf(w, "# omitted %d further %s spans\n", n, name)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
