package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"etsc/internal/client"
	"etsc/internal/hub"
	"etsc/internal/placement"
	"etsc/internal/router"
	"etsc/internal/serve"
	"etsc/internal/stream"
)

const wireBackends = 2

// wireSystem is client.Client → router.Router → two serve.Server backends,
// each on its own loopback listener in this process, with the shipped
// defaults: default hubs, /metrics on, the router's health prober running.
type wireSystem struct {
	p        *plan
	c        *client.Client
	hc       *http.Client
	rt       *router.Router
	hubs     [wireBackends]*hub.Hub
	servers  []*http.Server
	cursor   []int            // per stream, owned by the stream's pusher
	seq      map[string][]int // per op, per stream request counter (client side)
	stopOnce sync.Once
}

func newWireSystem(p *plan, tr *tracer, ops opCounts) (*wireSystem, error) {
	k, err := quietKind()
	if err != nil {
		return nil, err
	}
	s := &wireSystem{p: p, cursor: make([]int, len(p.streams)),
		seq: map[string][]int{"push": make([]int, len(p.streams)), "read": make([]int, len(p.streams))}}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	var specs []router.BackendSpec
	for b := range s.hubs {
		h, err := hub.New(hub.Config{})
		if err != nil {
			return nil, err
		}
		s.hubs[b] = h
		srv, err := serve.New(h, []hub.Kind{k})
		if err != nil {
			return nil, err
		}
		h.SetMetrics(srv.EnableMetrics(nil))
		u, err := s.listen(traced(tr, "serve", srv))
		if err != nil {
			return nil, err
		}
		specs = append(specs, router.BackendSpec{Name: fmt.Sprintf("b%d", b), URL: u})
	}
	rt, err := router.New(router.Config{Backends: specs, Logf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	rt.EnableMetrics()
	rt.Start()
	s.rt = rt
	u, err := s.listen(traced(tr, "router", rt))
	if err != nil {
		return nil, err
	}
	// At most one connection per pusher.
	tp := http.DefaultTransport.(*http.Transport).Clone()
	tp.MaxConnsPerHost = pushers()
	tp.MaxIdleConnsPerHost = pushers()
	s.hc = &http.Client{Transport: tp, Timeout: 30 * time.Second}
	if s.c, err = client.New(u, client.WithHTTPClient(s.hc)); err != nil {
		return nil, err
	}
	for i, in := range p.streams {
		if _, err := s.c.CreateStream(context.Background(), client.CreateStreamRequest{ID: in.id, Kind: k.Name}); err != nil {
			ops.add("create", int64(i+1), 1)
			return nil, fmt.Errorf("create %s: %w", in.id, err)
		}
	}
	ops.add("create", int64(len(p.streams)), 0)
	ok = true
	return s, nil
}

// listen serves h on a fresh loopback port and returns its base URL.
func (s *wireSystem) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, srv)
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

func (s *wireSystem) push(l *lane, i int, pts []float64) error {
	t0 := time.Now()
	_, err := s.c.Push(context.Background(), s.p.streams[i].id, pts)
	s.record(l, "push", i, t0, int64(len(pts)))
	return err
}

func (s *wireSystem) read(l *lane, i int) error {
	t0 := time.Now()
	page, err := s.c.Detections(context.Background(), s.p.streams[i].id, s.cursor[i])
	s.record(l, "read", i, t0, 0)
	if err != nil {
		return err
	}
	s.cursor[i] = page.Next
	return nil
}

// record adds a client span keyed like the server-side spans of the same
// request: op, stream id and the stream's per-op request number.
func (s *wireSystem) record(l *lane, op string, i int, t0 time.Time, n int64) {
	if l == nil {
		return
	}
	seq := s.seq[op]
	l.record("client."+op, requestKey(op, s.p.streams[i].id, seq[i]), t0, time.Now(), n)
	seq[i]++
}

func requestKey(op, id string, n int) string { return fmt.Sprintf("%s:%s#%d", op, id, n) }

func (s *wireSystem) flush() {
	for _, h := range s.hubs {
		h.Flush()
	}
}

func (s *wireSystem) backlog() int {
	n := 0
	for _, h := range s.hubs {
		n += h.Stats().QueuedBatches
	}
	return n
}

// watch subscribes on the owning backend's hub: the router places a stream
// by the same placement index, so that is where its alarms settle.
func (s *wireSystem) watch(i int) (*hub.Watch, error) {
	id := s.p.streams[i].id
	return s.hubs[placement.Index(id, wireBackends)].Watch(id, int(^uint(0)>>1))
}

func (s *wireSystem) export(_ *lane, i int) (int, error) {
	snap, err := s.c.SnapshotStream(context.Background(), s.p.streams[i].id)
	return len(snap.State), err
}

func (s *wireSystem) finish() ([][]stream.Detection, error) {
	out := make([][]stream.Detection, len(s.p.streams))
	for i, in := range s.p.streams {
		rep, err := s.c.DeleteStream(context.Background(), in.id)
		if err != nil {
			return nil, fmt.Errorf("delete %s: %w", in.id, err)
		}
		out[i] = rep.Detections
	}
	return out, nil
}

func (s *wireSystem) close() {
	s.stopOnce.Do(func() {
		if s.rt != nil {
			s.rt.Stop()
		}
		for _, srv := range s.servers {
			srv.Close()
		}
		for _, h := range s.hubs {
			if h != nil {
				h.Close()
			}
		}
		if s.hc != nil {
			s.hc.CloseIdleConnections()
		}
		http.DefaultClient.CloseIdleConnections()
	})
}

// spanHandler records one span per push or cursor read a layer serves,
// keyed like the client's spans so the layers of one request line up.
type spanHandler struct {
	layer string
	next  http.Handler
	mu    sync.Mutex
	l     *lane
	seq   map[string]int
}

// traced wraps h in a spanHandler, or returns h unchanged when untraced.
func traced(tr *tracer, layer string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return &spanHandler{layer: layer, next: h, l: tr.lane(), seq: map[string]int{}}
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op, id := classifyRequest(r)
	if op == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	t1 := time.Now()
	h.mu.Lock()
	k := op + ":" + id
	n := h.seq[k]
	h.seq[k] = n + 1
	h.l.record(h.layer+"."+op, requestKey(op, id, n), t0, t1, r.ContentLength)
	h.mu.Unlock()
}

// classifyRequest names the stream-scoped requests the benchmark traces.
func classifyRequest(r *http.Request) (op, id string) {
	if r.URL.Path == "/v1/detections" {
		return "read", r.URL.Query().Get("stream")
	}
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/streams/")
	if !ok {
		return "", ""
	}
	seg, ok := strings.CutSuffix(rest, "/push")
	if !ok || r.Method != http.MethodPost {
		return "", ""
	}
	id, err := url.PathUnescape(seg)
	if err != nil {
		return "", ""
	}
	return "push", id
}
