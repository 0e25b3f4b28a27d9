package router

// Test scaffolding: a loopback fleet — N real etsc-serve stacks (hub +
// serve.Server + httptest listener, optionally with a fast background
// checkpointer into a shared root) fronted by a real Router on its own
// listener, with typed clients on both tiers. Everything speaks actual
// HTTP; nothing is mocked.

import (
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"etsc/internal/client"
	"etsc/internal/hub"
	"etsc/internal/serve"
	"etsc/internal/serve/servetest"
)

type fleetBackend struct {
	name string
	hub  *hub.Hub
	srv  *serve.Server
	http *httptest.Server
	ckpt *serve.Checkpointer
	c    *client.Client
}

// kill severs the backend the way a crash would: the checkpointer stops
// without a final sync (its last periodic generation is what survives,
// exactly as with a SIGKILL), then the listener drops every live
// connection and refuses new ones. The in-process hub is deliberately
// NOT drained or closed — a dead process does not get to flush.
func (b *fleetBackend) kill() {
	if b.ckpt != nil {
		b.ckpt.Stop()
	}
	b.http.CloseClientConnections()
	b.http.Close()
}

type fleet struct {
	t        *testing.T
	root     string
	backends []*fleetBackend
	rt       *Router
	http     *httptest.Server
	c        *client.Client
}

type fleetOpts struct {
	checkpoints   bool          // run a background checkpointer per backend
	ckptInterval  time.Duration // default 50ms
	probeInterval time.Duration // default 25ms
	probeTimeout  time.Duration // default probeInterval
	failThreshold int           // default 2
	routeWait     time.Duration // default 5s
	hubCfg        hub.Config
}

func newFleet(t *testing.T, n int, opts fleetOpts) *fleet {
	t.Helper()
	if opts.ckptInterval <= 0 {
		opts.ckptInterval = 50 * time.Millisecond
	}
	if opts.probeInterval <= 0 {
		opts.probeInterval = 25 * time.Millisecond
	}
	if opts.failThreshold <= 0 {
		opts.failThreshold = 2
	}
	if opts.routeWait <= 0 {
		opts.routeWait = 5 * time.Second
	}
	if opts.hubCfg.Workers == 0 {
		opts.hubCfg.Workers = 2
	}
	kinds := servetest.DemoKinds(t)
	f := &fleet{t: t}
	if opts.checkpoints {
		f.root = t.TempDir()
	}
	specs := make([]BackendSpec, n)
	for i := 0; i < n; i++ {
		name := backendName(i)
		h, err := hub.New(opts.hubCfg)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(h, kinds)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv)
		t.Cleanup(hs.Close)
		b := &fleetBackend{name: name, hub: h, srv: srv, http: hs}
		if opts.checkpoints {
			ck, err := serve.NewCheckpointer(srv, filepath.Join(f.root, name), opts.ckptInterval)
			if err != nil {
				t.Fatal(err)
			}
			ck.SetLogf(t.Logf)
			ck.Start()
			t.Cleanup(ck.Stop)
			b.ckpt = ck
		}
		if b.c, err = client.New(hs.URL); err != nil {
			t.Fatal(err)
		}
		f.backends = append(f.backends, b)
		specs[i] = BackendSpec{Name: name, URL: hs.URL}
	}
	rt, err := New(Config{
		Backends:       specs,
		CheckpointRoot: f.root,
		ProbeInterval:  opts.probeInterval,
		ProbeTimeout:   opts.probeTimeout,
		FailThreshold:  opts.failThreshold,
		RouteWait:      opts.routeWait,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.EnableMetrics()
	rt.Start()
	t.Cleanup(rt.Stop)
	f.rt = rt
	f.http = httptest.NewServer(rt)
	t.Cleanup(f.http.Close)
	if f.c, err = client.New(f.http.URL, client.WithRetry(6, 20*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	return f
}

func backendName(i int) string { return string(rune('a'+i)) + "-node" }

// homeOf returns the backend a stream id hashes to under the fleet's
// table — the independent computation the routing tests pin against.
func (f *fleet) homeOf(id string) *fleetBackend {
	return f.backends[home(id, *f.rt.table.Load())]
}

// waitDead blocks until the prober has declared backend i dead (as seen
// through the router's own table).
func (f *fleet) waitDead(i int) {
	f.t.Helper()
	name := f.backends[i].name
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, bs := range f.rt.Backends() {
			if bs.Name == name && !bs.Alive {
				return
			}
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("backend %s never declared dead", name)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// flushAlive waits until every surviving backend's hub is quiescent.
func (f *fleet) flushAlive(dead map[int]bool) {
	for i, b := range f.backends {
		if dead[i] {
			continue
		}
		b.hub.Flush()
	}
}
