// Package router is the multi-node front tier: one HTTP process that owns
// a fixed table of N backend etsc-serve processes and serves the same /v1
// protocol they do, routing every stream-scoped request to the stream's
// owner backend by the shared placement contract (placement.Index — the
// identical FNV-1a-mod-N function hub.Hub uses for shard routing)
// and fanning out + deterministically merging the cross-stream endpoints.
//
//	stream-scoped (routed to the owner backend, owner echoed in the
//	X-Etsc-Backend response header):
//	  POST   /v1/streams                 create (routed by the body's id)
//	  GET    /v1/streams/{id}            describe
//	  DELETE /v1/streams/{id}            detach + final report
//	  POST   /v1/streams/{id}/push       ingest (plain or positioned)
//	  GET    /v1/streams/{id}/snapshot   export durable state
//	  POST   /v1/streams/{id}/snapshot   restore (routed like create)
//	  GET    /v1/streams/{id}/watch      live SSE/NDJSON feed, passed
//	                                     through with the exactly-once
//	                                     resume contract intact — the
//	                                     router re-subscribes across
//	                                     migrations and backend deaths
//	  GET    /v1/detections?stream=ID    cursor page (routed by ?stream=)
//
//	fan-out, merged deterministically over the alive backends:
//	  GET /v1/streams     union of the backends' lists, sorted by id
//	  GET /v1/stats       fleet sum + one row per backend (table order)
//	  GET /metrics        every backend's exposition relabeled with
//	                      backend="name", merged per family, plus the
//	                      router's own instruments
//
//	router-local:
//	  GET  /v1/healthz        the router's own liveness (always ok)
//	  GET  /admin/backends    the backend table with probe state
//	  POST /admin/rebalance   migrate every stream back to its hash home
//	  POST /admin/backends    replace the table, then rebalance onto it
//
// Ownership model. The stream's *home* is placement.Index(id, N) over the
// fixed table — process-independent, so any client or operator computes
// it offline. A copy-on-write override map records streams that currently
// live away from home: streams migrated by a rebalance step, and streams
// recovered onto survivors after a backend death. Routing is
// override-first, then home; there is no other state, so the router can
// restart and rebuild overrides by asking the backends who has what
// (/admin/rebalance converges the fleet back to pure-hash placement).
//
// Rebalancing (POST /admin/rebalance, or a table change) moves one stream
// at a time over the wire with transcripts invariant: the router
// write-locks the stream's gate (in-flight pushes finish, new ones wait),
// polls the owner until the stream's queue is drained, GETs the snapshot,
// POSTs it to the new owner, DELETEs the old copy, and installs/clears
// the override. Because pushes are gated, the snapshot is a complete cut
// and nothing is replayed or lost; watchers riding through the move are
// re-subscribed at their cursor by the watch pass-through.
//
// Backend death. A health prober GETs every backend's /v1/healthz; after
// FailThreshold consecutive failures the backend is marked dead and its
// streams are re-registered on the survivors from shared checkpoint
// storage (CheckpointRoot/<backend>/*.ckpt — the files the backend's own
// -checkpoint loop writes) via the same ladder as a backend boot: clean
// restore, else fresh re-attach with the checkpointed kind/spec, else
// skip — each counted. The survivor for a stream is
// placement.Index(id, len(survivors)) over the alive backends in table
// order, so concurrent routers (or a restarted one) pick identical
// targets. During the window between death and recovery, requests for the
// affected streams wait up to RouteWait for an override to appear and
// then fail with a structured 503/unavailable + Retry-After — which the
// typed client's WithRetry turns into transparent retry on idempotent
// calls. A checkpoint is a slightly stale cut, so recovered streams
// resume at their checkpointed watermark; at-least-once redelivery via
// positioned pushes (PushAt) makes the replay exactly-once, which the
// kill-a-backend chaos battery pins against hub.Reference.
package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"etsc/internal/client"
	"etsc/internal/hub"
	"etsc/internal/metrics"
	"etsc/internal/placement"
)

// maxBody bounds one request body, mirroring the backend's own cap.
const maxBody = 32 << 20

// BackendSpec names one backend process for Config.
type BackendSpec struct {
	// Name is the stable label used in overrides, checkpoint-storage
	// paths, the X-Etsc-Backend echo, and /metrics relabeling. Defaults
	// to the host:port of URL.
	Name string `json:"name"`
	// URL is the backend's base URL (e.g. "http://node3:8080").
	URL string `json:"url"`
}

// Config assembles a Router.
type Config struct {
	// Backends is the fixed placement table, in placement order: stream
	// id hashes to Backends[placement.Index(id, len(Backends))].
	Backends []BackendSpec

	// CheckpointRoot is the shared checkpoint storage the backends write
	// under (each backend passes -checkpoint CheckpointRoot/<its name>).
	// Empty disables backend-death stream recovery: dead backends' streams
	// stay unavailable until the backend returns.
	CheckpointRoot string

	// ProbeInterval is the health-probe period (default 1s);
	// ProbeTimeout bounds one probe (default ProbeInterval).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailThreshold is the number of consecutive probe failures that mark
	// a backend dead (default 3).
	FailThreshold int

	// RouteWait bounds how long a request for a stream whose owner is
	// dead waits for recovery to install an override before failing with
	// 503/unavailable (default 2s).
	RouteWait time.Duration

	// HTTPClient overrides the proxy transport (tests). Probes always use
	// their own timeout-bound client.
	HTTPClient *http.Client

	// Logf sinks router diagnostics (default log.Printf).
	Logf func(format string, args ...any)
}

// backend is one table entry at runtime.
type backend struct {
	name string
	base string
	// c is the proxy transport: the typed /v1 client, with WithRetry so
	// transient faults on idempotent calls (reads, DELETE, PushAt) retry
	// with backoff inside the router instead of surfacing per-blip.
	c *client.Client
	// probe is a single-shot, timeout-bound client for the health loop.
	probe *client.Client

	alive atomic.Bool
	// fails is owned by the prober goroutine.
	fails int
}

// Router implements http.Handler over the backend table. Construct with
// New; Start launches the health prober.
type Router struct {
	cfg  Config
	logf func(format string, args ...any)

	// table is the placement table; replaced wholesale by SetBackends
	// (copy-on-write, so routing reads are one atomic load).
	table atomic.Pointer[[]*backend]

	// overrides maps stream id → backend name for streams living away
	// from their hash home (migrated or death-recovered). Copy-on-write
	// under ovMu, read lock-free.
	ovMu      sync.Mutex
	overrides atomic.Pointer[map[string]string]

	// gates serializes migration against proxied stream traffic, one
	// RWMutex per stream id (never removed; bounded by the id population).
	gates sync.Map

	// opMu single-flights rebalances and table swaps.
	opMu sync.Mutex

	mux *http.ServeMux

	// Prober lifecycle.
	probeStop chan struct{}
	probeDone chan struct{}

	// Metrics (nil until EnableMetrics).
	reg          *metrics.Registry
	mUnavailable *metrics.Counter
	mDeaths      *metrics.Counter
	mRecovered   *metrics.Counter
	mFallbacks   *metrics.Counter
	mSkipped     *metrics.Counter
	mMoves       *metrics.Counter
}

// New builds a router over the backend table. The table must be
// non-empty; names must be unique (and filesystem-safe when
// CheckpointRoot is set, since they name storage subdirectories).
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: no backends")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.ProbeInterval
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.RouteWait <= 0 {
		cfg.RouteWait = 2 * time.Second
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	rt := &Router{
		cfg:       cfg,
		logf:      logf,
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	table, err := rt.buildTable(cfg.Backends, nil)
	if err != nil {
		return nil, err
	}
	rt.table.Store(&table)

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/", rt.handleV1)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	mux.HandleFunc("/admin/backends", rt.handleAdminBackends)
	mux.HandleFunc("/admin/rebalance", rt.handleAdminRebalance)
	rt.mux = mux
	return rt, nil
}

// buildTable constructs backend entries for specs, reusing entries from
// prev (matched by name+URL) so probe state survives a table swap.
func (rt *Router) buildTable(specs []BackendSpec, prev []*backend) ([]*backend, error) {
	seen := map[string]bool{}
	table := make([]*backend, 0, len(specs))
	for _, sp := range specs {
		name := sp.Name
		u, err := url.Parse(sp.URL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") {
			return nil, fmt.Errorf("router: backend %q: bad URL %q", name, sp.URL)
		}
		if name == "" {
			name = u.Host
		}
		if seen[name] {
			return nil, fmt.Errorf("router: duplicate backend name %q", name)
		}
		seen[name] = true
		var reused *backend
		for _, b := range prev {
			if b.name == name && b.base == sp.URL {
				reused = b
				break
			}
		}
		if reused != nil {
			table = append(table, reused)
			continue
		}
		opts := []client.Option{client.WithRetry(4, 100*time.Millisecond)}
		if rt.cfg.HTTPClient != nil {
			opts = append(opts, client.WithHTTPClient(rt.cfg.HTTPClient))
		}
		c, err := client.New(sp.URL, opts...)
		if err != nil {
			return nil, fmt.Errorf("router: backend %q: %w", name, err)
		}
		probe, err := client.New(sp.URL, client.WithHTTPClient(&http.Client{Timeout: rt.cfg.ProbeTimeout}))
		if err != nil {
			return nil, fmt.Errorf("router: backend %q: %w", name, err)
		}
		b := &backend{name: name, base: sp.URL, c: c, probe: probe}
		// Optimistic start: backends are presumed alive until the prober
		// says otherwise, so a router boot does not 503 a healthy fleet.
		b.alive.Store(true)
		table = append(table, b)
	}
	return table, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Backends reports the table in placement order with live probe state.
func (rt *Router) Backends() []BackendState {
	table := *rt.table.Load()
	out := make([]BackendState, len(table))
	for i, b := range table {
		out[i] = BackendState{Name: b.name, URL: b.base, Alive: b.alive.Load()}
	}
	return out
}

// BackendState is one /admin/backends row.
type BackendState struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
}

// ---- placement ----

// home returns the stream's hash-home backend index in table.
func home(id string, table []*backend) int { return placement.Index(id, len(table)) }

// byName finds a table entry by name (nil if the name left the table).
func byName(name string, table []*backend) *backend {
	for _, b := range table {
		if b.name == name {
			return b
		}
	}
	return nil
}

// resolve maps id to its current backend: override first, then hash home.
// The returned backend may be dead; route() adds the waiting.
func (rt *Router) resolve(id string) *backend {
	table := *rt.table.Load()
	if ov := rt.overrides.Load(); ov != nil {
		if name, ok := (*ov)[id]; ok {
			if b := byName(name, table); b != nil {
				return b
			}
		}
	}
	return table[home(id, table)]
}

// route resolves id to an alive backend, waiting up to RouteWait for
// death recovery to install an override when the current owner is dead.
// The error, when non-nil, is the structured 503 to return.
func (rt *Router) route(id string) (*backend, *client.APIError) {
	deadline := time.Now().Add(rt.cfg.RouteWait)
	for {
		b := rt.resolve(id)
		if b.alive.Load() {
			return b, nil
		}
		if time.Now().After(deadline) {
			if rt.mUnavailable != nil {
				rt.mUnavailable.Inc()
			}
			return nil, &client.APIError{
				Status:  http.StatusServiceUnavailable,
				Code:    client.CodeUnavailable,
				Message: fmt.Sprintf("backend %q owning stream %q is unavailable; recovery in progress", b.name, id),
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// placeNew picks the backend for a stream being created (or restored)
// right now: the hash home when alive, else the deterministic survivor —
// placement over the alive subset in table order — recorded as an
// override so subsequent requests route there.
func (rt *Router) placeNew(id string) (*backend, *client.APIError) {
	table := *rt.table.Load()
	b := table[home(id, table)]
	if b.alive.Load() {
		return b, nil
	}
	alive := aliveBackends(table)
	if len(alive) == 0 {
		if rt.mUnavailable != nil {
			rt.mUnavailable.Inc()
		}
		return nil, &client.APIError{
			Status:  http.StatusServiceUnavailable,
			Code:    client.CodeUnavailable,
			Message: "no backend available",
		}
	}
	s := alive[placement.Index(id, len(alive))]
	rt.setOverride(id, s.name)
	return s, nil
}

// aliveBackends filters the table to its alive members, in table order.
func aliveBackends(table []*backend) []*backend {
	out := make([]*backend, 0, len(table))
	for _, b := range table {
		if b.alive.Load() {
			out = append(out, b)
		}
	}
	return out
}

// setOverride records (or with name == "" clears) a stream's placement
// override. Copy-on-write: routing keeps reading the previous immutable
// map until the swap.
func (rt *Router) setOverride(id, name string) {
	rt.ovMu.Lock()
	defer rt.ovMu.Unlock()
	var next map[string]string
	if cur := rt.overrides.Load(); cur != nil {
		next = make(map[string]string, len(*cur)+1)
		for k, v := range *cur {
			next[k] = v
		}
	} else {
		next = make(map[string]string, 1)
	}
	if name == "" {
		delete(next, id)
	} else {
		next[id] = name
	}
	rt.overrides.Store(&next)
}

// gate returns the stream's migration gate. Proxied stream traffic holds
// it shared; a migration holds it exclusively.
func (rt *Router) gate(id string) *sync.RWMutex {
	if g, ok := rt.gates.Load(id); ok {
		return g.(*sync.RWMutex)
	}
	g, _ := rt.gates.LoadOrStore(id, &sync.RWMutex{})
	return g.(*sync.RWMutex)
}

// ---- /v1 dispatch ----

func (rt *Router) handleV1(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/")
	seg := strings.Split(rest, "/")
	switch {
	case rest == "streams":
		switch r.Method {
		case http.MethodPost:
			rt.v1CreateStream(w, r)
		case http.MethodGet:
			rt.v1ListStreams(w, r)
		default:
			writeAPIError(w, methodNotAllowed(r, http.MethodGet, http.MethodPost))
		}
	case len(seg) == 2 && seg[0] == "streams" && seg[1] != "":
		id := seg[1]
		switch r.Method {
		case http.MethodGet:
			rt.proxyStream(w, r, id, func(b *backend) (any, error) {
				return b.c.Stream(r.Context(), id)
			})
		case http.MethodDelete:
			rt.v1DeleteStream(w, r, id)
		default:
			writeAPIError(w, methodNotAllowed(r, http.MethodGet, http.MethodDelete))
		}
	case len(seg) == 3 && seg[0] == "streams" && seg[1] != "" && seg[2] == "push":
		if r.Method != http.MethodPost {
			writeAPIError(w, methodNotAllowed(r, http.MethodPost))
			return
		}
		rt.v1Push(w, r, seg[1])
	case len(seg) == 3 && seg[0] == "streams" && seg[1] != "" && seg[2] == "snapshot":
		switch r.Method {
		case http.MethodGet:
			rt.proxyStream(w, r, seg[1], func(b *backend) (any, error) {
				return b.c.SnapshotStream(r.Context(), seg[1])
			})
		case http.MethodPost:
			rt.v1RestoreStream(w, r, seg[1])
		default:
			writeAPIError(w, methodNotAllowed(r, http.MethodGet, http.MethodPost))
		}
	case len(seg) == 3 && seg[0] == "streams" && seg[1] != "" && seg[2] == "watch":
		if r.Method != http.MethodGet {
			writeAPIError(w, methodNotAllowed(r, http.MethodGet))
			return
		}
		rt.v1Watch(w, r, seg[1])
	case rest == "stats":
		if r.Method != http.MethodGet {
			writeAPIError(w, methodNotAllowed(r, http.MethodGet))
			return
		}
		rt.v1Stats(w, r)
	case rest == "detections":
		if r.Method != http.MethodGet {
			writeAPIError(w, methodNotAllowed(r, http.MethodGet))
			return
		}
		rt.v1Detections(w, r)
	case rest == "healthz":
		if r.Method != http.MethodGet {
			writeAPIError(w, methodNotAllowed(r, http.MethodGet))
			return
		}
		writeJSON(w, http.StatusOK, client.Health{Status: "ok"})
	default:
		writeAPIError(w, &client.APIError{
			Status:  http.StatusNotFound,
			Code:    client.CodeNotFound,
			Message: fmt.Sprintf("no /v1 endpoint %q", r.URL.Path),
		})
	}
}

// proxyStream routes one idempotent stream-scoped call under the
// stream's shared gate and writes the typed result (or the mapped error),
// echoing the owner backend.
func (rt *Router) proxyStream(w http.ResponseWriter, r *http.Request, id string, call func(*backend) (any, error)) {
	g := rt.gate(id)
	g.RLock()
	b, apiErr := rt.route(id)
	if apiErr != nil {
		g.RUnlock()
		writeAPIError(w, apiErr)
		return
	}
	out, err := call(b)
	g.RUnlock()
	rt.countRequest(b)
	if err != nil {
		writeProxyError(w, b, err)
		return
	}
	w.Header().Set(client.BackendHeader, b.name)
	writeJSON(w, http.StatusOK, out)
}

func (rt *Router) v1CreateStream(w http.ResponseWriter, r *http.Request) {
	var req client.CreateStreamRequest
	if apiErr := decodeJSON(r, w, &req); apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	if req.ID == "" {
		writeAPIError(w, badRequest("missing stream id"))
		return
	}
	if strings.Contains(req.ID, "/") || req.ID == "." || req.ID == ".." {
		writeAPIError(w, badRequest(fmt.Sprintf("stream id %q must be a single path segment", req.ID)))
		return
	}
	g := rt.gate(req.ID)
	g.RLock()
	defer g.RUnlock()
	b, apiErr := rt.placeNew(req.ID)
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	info, err := b.c.CreateStream(r.Context(), req)
	rt.countRequest(b)
	if err != nil {
		writeProxyError(w, b, err)
		return
	}
	w.Header().Set(client.BackendHeader, b.name)
	writeJSON(w, http.StatusCreated, info)
}

func (rt *Router) v1RestoreStream(w http.ResponseWriter, r *http.Request, id string) {
	var snap client.StreamSnapshot
	if apiErr := decodeJSON(r, w, &snap); apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	if snap.ID == "" {
		snap.ID = id
	}
	if snap.ID != id {
		writeAPIError(w, badRequest(fmt.Sprintf("snapshot id %q does not match path id %q", snap.ID, id)))
		return
	}
	g := rt.gate(id)
	g.RLock()
	defer g.RUnlock()
	b, apiErr := rt.placeNew(id)
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	info, err := b.c.RestoreStream(r.Context(), snap)
	rt.countRequest(b)
	if err != nil {
		writeProxyError(w, b, err)
		return
	}
	w.Header().Set(client.BackendHeader, b.name)
	writeJSON(w, http.StatusCreated, info)
}

func (rt *Router) v1Push(w http.ResponseWriter, r *http.Request, id string) {
	var req client.PushRequest
	if apiErr := decodeJSON(r, w, &req); apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	if req.At != nil && *req.At < 0 {
		writeAPIError(w, badRequest(fmt.Sprintf("bad at=%d: want a non-negative position", *req.At)))
		return
	}
	g := rt.gate(id)
	g.RLock()
	b, apiErr := rt.route(id)
	if apiErr != nil {
		g.RUnlock()
		writeAPIError(w, apiErr)
		return
	}
	var (
		out client.PushResponse
		err error
	)
	if req.At != nil {
		out, err = b.c.PushAt(r.Context(), id, *req.At, req.Points)
	} else {
		out, err = b.c.Push(r.Context(), id, req.Points)
	}
	g.RUnlock()
	rt.countRequest(b)
	if err != nil {
		writeProxyError(w, b, err)
		return
	}
	w.Header().Set(client.BackendHeader, b.name)
	writeJSON(w, http.StatusOK, out)
}

func (rt *Router) v1DeleteStream(w http.ResponseWriter, r *http.Request, id string) {
	// Exclusive gate: a DELETE must not interleave with a migration of
	// the same stream (the migration would restore a copy the caller just
	// deleted).
	g := rt.gate(id)
	g.Lock()
	defer g.Unlock()
	b, apiErr := rt.route(id)
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	rep, err := b.c.DeleteStream(r.Context(), id)
	rt.countRequest(b)
	if err != nil {
		writeProxyError(w, b, err)
		return
	}
	rt.setOverride(id, "")
	w.Header().Set(client.BackendHeader, b.name)
	writeJSON(w, http.StatusOK, rep)
}

func (rt *Router) v1Detections(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("stream")
	if id == "" {
		writeAPIError(w, badRequest("missing ?stream="))
		return
	}
	since := 0
	if raw := r.URL.Query().Get("since"); raw != "" {
		n, err := fmt.Sscanf(raw, "%d", &since)
		if n != 1 || err != nil || since < 0 {
			writeAPIError(w, badRequest(fmt.Sprintf("bad ?since=%q: want a non-negative integer", raw)))
			return
		}
	}
	rt.proxyStream(w, r, id, func(b *backend) (any, error) {
		return b.c.Detections(r.Context(), id, since)
	})
}

// ---- fan-out endpoints ----

// v1ListStreams merges every alive backend's stream list, sorted by id.
// A dead backend's streams are simply absent until recovery re-registers
// them — the merge never blocks on a corpse.
func (rt *Router) v1ListStreams(w http.ResponseWriter, r *http.Request) {
	table := *rt.table.Load()
	type res struct {
		idx     int
		streams []client.StreamInfo
		err     error
	}
	results := make([]res, len(table))
	var wg sync.WaitGroup
	for i, b := range table {
		if !b.alive.Load() {
			continue
		}
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			streams, err := b.c.Streams(r.Context())
			results[i] = res{idx: i, streams: streams, err: err}
		}(i, b)
	}
	wg.Wait()
	var merged []client.StreamInfo
	for _, re := range results {
		if re.err != nil {
			continue // a backend that fell over mid-fan-out is treated as dead for this read
		}
		merged = append(merged, re.streams...)
	}
	sort.Slice(merged, func(a, b int) bool { return merged[a].ID < merged[b].ID })
	writeJSON(w, http.StatusOK, client.StreamList{Streams: merged})
}

// v1Stats sums every alive backend's totals and reports one row per
// backend in table order (dead rows zero-valued, Alive false) — the
// commutative merge the hub already defines across its shards, lifted one
// tier.
func (rt *Router) v1Stats(w http.ResponseWriter, r *http.Request) {
	table := *rt.table.Load()
	rows := make([]client.BackendTotals, len(table))
	var wg sync.WaitGroup
	for i, b := range table {
		rows[i] = client.BackendTotals{Backend: b.name, Alive: b.alive.Load()}
		if !rows[i].Alive {
			continue
		}
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			t, err := b.c.Stats(r.Context())
			if err != nil {
				rows[i].Alive = false
				return
			}
			rows[i].Totals = t
		}(i, b)
	}
	wg.Wait()
	var sum hub.Totals
	for _, row := range rows {
		sum.Streams += row.Streams
		sum.Batches += row.Batches
		sum.Points += row.Points
		sum.QueuedBatches += row.QueuedBatches
		sum.DroppedBatches += row.DroppedBatches
		sum.DroppedPoints += row.DroppedPoints
		sum.ShedBatches += row.ShedBatches
		sum.ShedPoints += row.ShedPoints
		sum.Detections += row.Detections
		sum.Recanted += row.Recanted
		sum.Watchers += row.Watchers
	}
	writeJSON(w, http.StatusOK, client.RouterStatsResponse{Totals: sum, Backends: rows})
}

// ---- admin ----

func (rt *Router) handleAdminBackends(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, map[string]any{"backends": rt.Backends()})
	case http.MethodPost:
		var req struct {
			Backends []BackendSpec `json:"backends"`
		}
		if apiErr := decodeJSON(r, w, &req); apiErr != nil {
			writeAPIError(w, apiErr)
			return
		}
		rep, err := rt.SetBackends(req.Backends)
		if err != nil {
			writeAPIError(w, badRequest(err.Error()))
			return
		}
		writeJSON(w, http.StatusOK, rep)
	default:
		writeAPIError(w, methodNotAllowed(r, http.MethodGet, http.MethodPost))
	}
}

func (rt *Router) handleAdminRebalance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeAPIError(w, methodNotAllowed(r, http.MethodPost))
		return
	}
	rep := rt.Rebalance(r.Context())
	writeJSON(w, http.StatusOK, rep)
}

// ---- shared helpers ----

func (rt *Router) countRequest(b *backend) {
	if rt.reg != nil {
		rt.reg.Counter("etsc_router_requests_total",
			"Requests proxied to each backend.", metrics.L("backend", b.name)).Inc()
	}
}

func decodeJSON(r *http.Request, w http.ResponseWriter, into any) *client.APIError {
	body := http.MaxBytesReader(w, r.Body, maxBody)
	if err := json.NewDecoder(body).Decode(into); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &client.APIError{
				Status:  http.StatusRequestEntityTooLarge,
				Code:    client.CodeTooLarge,
				Message: fmt.Sprintf("body over %d bytes; split the batch", tooBig.Limit),
			}
		}
		return &client.APIError{
			Status:  http.StatusBadRequest,
			Code:    client.CodeBadJSON,
			Message: fmt.Sprintf("bad JSON body: %v", err),
		}
	}
	return nil
}

func badRequest(msg string) *client.APIError {
	return &client.APIError{Status: http.StatusBadRequest, Code: client.CodeBadRequest, Message: msg}
}

func methodNotAllowed(r *http.Request, allow ...string) *client.APIError {
	return &client.APIError{
		Status:  http.StatusMethodNotAllowed,
		Code:    client.CodeMethodNotAllowed,
		Message: fmt.Sprintf("%s not allowed on %s (allow: %s)", r.Method, r.URL.Path, strings.Join(allow, ", ")),
	}
}

// writeProxyError maps a backend-call failure onto the wire: a typed
// *APIError passes through verbatim (status, code, message — the router
// is transparent to the backend's decisions), anything else (transport
// failure mid-call) is 503/unavailable.
func writeProxyError(w http.ResponseWriter, b *backend, err error) {
	var ae *client.APIError
	if errors.As(err, &ae) {
		w.Header().Set(client.BackendHeader, b.name)
		if ae.Status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeAPIError(w, ae)
		return
	}
	writeAPIError(w, &client.APIError{
		Status:  http.StatusServiceUnavailable,
		Code:    client.CodeUnavailable,
		Message: fmt.Sprintf("backend %q: %v", b.name, err),
	})
}

func writeAPIError(w http.ResponseWriter, ae *client.APIError) {
	if ae.Status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, ae.Status, client.ErrorEnvelope{Error: *ae})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("router: encode: %v", err)
	}
}
