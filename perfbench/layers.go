package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"etsc/internal/etsc"
	"etsc/internal/hub"
	"etsc/internal/stream"
	"etsc/internal/ts"
)

// perLayer lists the per-layer metrics a traced run reports, with units.
// A suffix names the workload a hub metric was measured on.
var perLayer = []struct{ name, unit string }{
	{"ts.extend_ns_per_pt", "ns"},
	{"ts.frontier_work_per_pt", "count"},
	{"etsc.session_ns_per_pt.words", "ns"},
	{"etsc.session_ns_per_pt.gunpoint", "ns"},
	{"etsc.session_ns_per_pt.chicken", "ns"},
	{"etsc.decided_frac", "ratio"},
	{"stream.push_batch_ns_per_pt", "ns"},
	{"stream.active_candidates_mean", "count"},
	{"stream.verify_calls", "count"},
	{"stream.verify_ns_per_call", "ns"},
	{"hub.attach_ns_per_stream.fleet", "ns"},
	{"hub.attach_ns_per_stream.swarm", "ns"},
	{"hub.cold_heap_bytes_per_stream.fleet", "B"},
	{"hub.cold_heap_bytes_per_stream.swarm", "B"},
	{"hub.push_ns_p50.fleet", "ns"},
	{"hub.push_ns_p99.fleet", "ns"},
	{"hub.push_ns_p50.swarm", "ns"},
	{"hub.push_ns_p99.swarm", "ns"},
	{"hub.backlog_batches_mean.fleet", "count"},
	{"hub.backlog_batches_mean.swarm", "count"},
	{"hub.flush_s.fleet", "s"},
	{"hub.flush_s.swarm", "s"},
	{"hub.self_ns_per_pt.fleet", "ns"},
	{"hub.self_ns_per_pt.swarm", "ns"},
	{"hub.allocs_per_push.fleet", "count"},
	{"hub.allocs_per_push.swarm", "count"},
	{"hub.export_ns_per_stream", "ns"},
	{"snap.bytes_per_stream", "B"},
	{"serve.push_ns_p50", "ns"},
	{"serve.push_ns_p99", "ns"},
	{"serve.read_ns_p50", "ns"},
	{"serve.req_bytes_per_pt", "B"},
	{"router.self_ns_p50", "ns"},
	{"router.self_ns_p99", "ns"},
	{"client.self_ns_p50", "ns"},
	{"loadgen.late_max_s.fleet", "s"},
	{"loadgen.late_p99_s.fleet", "s"},
	{"loadgen.late_max_s.swarm", "s"},
	{"loadgen.late_p99_s.swarm", "s"},
	{"loadgen.late_max_s.wire", "s"},
	{"loadgen.late_p99_s.wire", "s"},
}

// ladderPts is how many points of each fleet stream the single-goroutine
// ladder rungs replay.
const ladderPts = 8192

// tracedRun measures the per-layer metrics. Every layer lives on one
// workload, so a traced run makes a traced pass of each workload at half
// the run's --seconds, replays the fleet's inputs through the ts, etsc and
// stream layers alone (the ladder: a layer's cost is then a subtraction),
// and makes an untraced pass of the named workload at the same size, so
// the record carries the tracing overhead of each end-to-end metric.
func tracedRun(cfg runConfig, rec *record) error {
	secs := cfg.seconds / 2
	if !slices.Contains(workloads, cfg.workload) {
		return fmt.Errorf("unknown workload %q (want fleet, swarm or wire)", cfg.workload)
	}
	rec.Ops, rec.Correct = opCounts{}, true
	m := map[string]float64{}
	var named, untraced *passResult

	for _, w := range workloads {
		wc := cfg
		wc.workload = w
		verif := &timedVerifier{}
		p, err := makePlan(wc, secs, verif)
		if err != nil {
			return err
		}
		if w == cfg.workload {
			if untraced, err = runPass(p, nil); err != nil {
				return err
			}
			rec.merge(untraced)
		}
		tr := newTracer()
		res, err := runPass(p, tr)
		if err != nil {
			return err
		}
		rec.merge(res)
		if w == cfg.workload {
			named = res
		}
		layerMetrics(w, tr, res, verif, m)
		if err := tr.write(traceFile(cfg, w)); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		if w == "fleet" {
			if err := ladder(p, m); err != nil {
				return err
			}
		}
		if w == "swarm" {
			one := p.streams[0]
			one.data = one.data[:p.closedPts]
			ns, err := onlineNsPerPt([]input{one}, p.batch)
			if err != nil {
				return err
			}
			m["hub.self_ns_per_pt.swarm"] = res.metrics["cpu_ns_per_pt"] - ns
		}
	}
	m["hub.self_ns_per_pt.fleet"] = m["fleet.cpu_ns_per_pt"] - m["stream.push_batch_ns_per_pt"]

	rec.Info = named.info
	rec.Overhead = map[string]float64{}
	for _, e := range endToEnd {
		rec.Overhead[e.name] = named.metrics[e.name] - untraced.metrics[e.name]
	}
	rec.Metrics = map[string]metric{}
	for _, l := range perLayer {
		v, ok := m[l.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("traced run: no value for %s", l.name)
		}
		rec.Metrics[l.name] = metric{v, l.unit}
	}
	return nil
}

// merge folds one pass's operation counts and verdict into the record.
func (r *record) merge(res *passResult) {
	for op, c := range res.ops {
		r.Ops.add(op, c.Attempted, c.Failed)
	}
	if !res.correct && r.Correct {
		r.Correct, r.Mismatch = false, res.mismatch
	}
}

// layerMetrics turns one traced pass's spans and counters into the
// per-layer metrics measured on workload w.
func layerMetrics(w string, tr *tracer, res *passResult, verif *timedVerifier, m map[string]float64) {
	durs := func(name string) []float64 {
		var out []float64
		for _, s := range tr.byName(name) {
			out = append(out, float64(s.dur().Nanoseconds()))
		}
		return out
	}
	m["loadgen.late_max_s."+w] = res.info["loadgen.late_max_s"]
	m["loadgen.late_p99_s."+w] = res.info["loadgen.late_p99_s"]
	switch w {
	case "fleet", "swarm":
		m["hub.attach_ns_per_stream."+w] = mean(durs("hub.attach"))
		m["hub.cold_heap_bytes_per_stream."+w] = res.info["hub.cold_heap_bytes_per_stream"]
		pushes := durs("hub.push")
		m["hub.push_ns_p50."+w] = quantile(pushes, 0.50)
		m["hub.push_ns_p99."+w] = quantile(pushes, 0.99)
		m["hub.backlog_batches_mean."+w] = res.info["hub.backlog_batches_mean"]
		m["hub.flush_s."+w] = res.info["hub.flush_s"]
		m["hub.allocs_per_push."+w] = res.info["hub.allocs_per_push"]
		m[w+".cpu_ns_per_pt"] = res.metrics["cpu_ns_per_pt"]
		if w == "fleet" {
			calls := verif.calls.Load()
			m["stream.verify_calls"] = float64(calls)
			if calls > 0 {
				m["stream.verify_ns_per_call"] = float64(verif.ns.Load()) / float64(calls)
			}
		} else {
			m["hub.export_ns_per_stream"] = mean(durs("hub.export"))
			m["snap.bytes_per_stream"] = res.info["snap.bytes_per_stream"]
		}
	case "wire":
		pushes := durs("serve.push")
		m["serve.push_ns_p50"] = quantile(pushes, 0.50)
		m["serve.push_ns_p99"] = quantile(pushes, 0.99)
		m["serve.read_ns_p50"] = quantile(durs("serve.read"), 0.50)
		var reqBytes, points int64
		for _, s := range tr.byName("serve.push") {
			reqBytes += s.Bytes
		}
		for _, s := range tr.byName("client.push") {
			points += s.Bytes
		}
		m["serve.req_bytes_per_pt"] = float64(reqBytes) / float64(points)
		routerSelf, clientSelf := selfTimes(tr)
		m["router.self_ns_p50"] = quantile(routerSelf, 0.50)
		m["router.self_ns_p99"] = quantile(routerSelf, 0.99)
		m["client.self_ns_p50"] = quantile(clientSelf, 0.50)
	}
}

// selfTimes matches each push's client, router and server spans by request
// key, links them as parent and child, and returns the router's and the
// client's self time per push: the span minus the child span it waited on.
func selfTimes(tr *tracer) (routerSelf, clientSelf []float64) {
	index := func(name string) map[string]*span {
		out := map[string]*span{}
		for _, l := range tr.lanes {
			for i := range l.spans {
				if s := &l.spans[i]; s.Name == name {
					out[s.Key] = s
				}
			}
		}
		return out
	}
	servers, routers := index("serve.push"), index("router.push")
	for key, c := range index("client.push") {
		r, ok := routers[key]
		if !ok {
			continue
		}
		r.Parent = c.ID
		clientSelf = append(clientSelf, float64((c.dur() - r.dur()).Nanoseconds()))
		if s, ok := servers[key]; ok {
			s.Parent = r.ID
			routerSelf = append(routerSelf, float64((r.dur() - s.dur()).Nanoseconds()))
		}
	}
	return routerSelf, clientSelf
}

// ladder replays fleet inputs through single layers on one goroutine:
// stream.Online.PushBatch over the closed loop's points, and, over the
// first ladderPts points of every stream, an etsc session per candidate
// window and the ts frontier kernel (gunpoint).
func ladder(p *plan, m map[string]float64) error {
	ins := make([]input, len(p.streams))
	copy(ins, p.streams)
	for i := range ins {
		ins[i].data = ins[i].data[:min(ladderPts, len(ins[i].data))]
	}

	// stream: the whole per-stream pipeline minus the hub, over exactly the
	// points the closed loop pushed, so hub.self_ns_per_pt is a subtraction
	// over the same work.
	closed := make([]input, len(p.streams))
	copy(closed, p.streams)
	for i := range closed {
		closed[i].data = closed[i].data[:p.closedPts]
	}
	ns, err := onlineNsPerPt(closed, p.batch)
	if err != nil {
		return err
	}
	m["stream.push_batch_ns_per_pt"] = ns
	var active []float64
	for _, in := range ins {
		o, err := stream.NewOnlineEngine(in.cfg.Classifier, in.cfg.Stride, in.cfg.Step, in.cfg.Engine)
		if err != nil {
			return err
		}
		for lo := 0; lo < len(in.data); lo += p.batch {
			o.PushBatch(in.data[lo:min(lo+p.batch, len(in.data))])
			active = append(active, float64(o.ActiveCandidates()))
		}
	}
	m["stream.active_candidates_mean"] = mean(active)

	// etsc: one session per candidate window, fed in Step chunks until it
	// commits or the window is complete.
	var opened, decided int64
	for _, kind := range []string{"words", "gunpoint", "chicken"} {
		var pts int64
		var busy time.Duration
		for _, in := range ins {
			if in.kind != kind {
				continue
			}
			clf, stride, step := in.cfg.Classifier, max(in.cfg.Stride, 1), max(in.cfg.Step, 1)
			full := clf.FullLength()
			for s := 0; s+full <= len(in.data); s += stride {
				opened++
				t0 := time.Now()
				sess := etsc.OpenSessionMode(clf, etsc.Pruned)
				seen := 0
				for seen < full {
					n := min(step, full-seen)
					d := sess.Extend(in.data[s+seen : s+seen+n])
					seen += n
					if d.Ready {
						if seen < full {
							decided++
						}
						break
					}
				}
				busy += time.Since(t0)
				pts += int64(seen)
			}
		}
		if pts == 0 {
			return fmt.Errorf("ladder: no %s windows", kind)
		}
		m["etsc.session_ns_per_pt."+kind] = float64(busy.Nanoseconds()) / float64(pts)
	}
	m["etsc.decided_frac"] = float64(decided) / float64(opened)

	// ts: the lazy nearest-neighbour frontier over the gunpoint training
	// set, extended with the gunpoint streams' windows in Step chunks and
	// queried after each chunk, as a session does.
	kinds, err := hub.DemoKinds(modelSeed)
	if err != nil {
		return err
	}
	var refs [][]float64
	for _, k := range kinds {
		if k.Name == "gunpoint" {
			for _, inst := range k.TrainSet.Instances {
				refs = append(refs, inst.Series)
			}
		}
	}
	var pts, work int64
	var busy time.Duration
	for _, in := range ins {
		if in.kind != "gunpoint" {
			continue
		}
		full, stride, step := in.cfg.Classifier.FullLength(), in.cfg.Stride, in.cfg.Step
		for s := 0; s+full <= len(in.data); s += stride {
			t0 := time.Now()
			bank := ts.NewLazyPrefixDistBank(refs)
			for seen := 0; seen < full; seen += step {
				bank.Extend(in.data[s+seen : s+min(seen+step, full)])
				bank.Min()
			}
			busy += time.Since(t0)
			pts += int64(full)
			work += bank.Work()
		}
	}
	m["ts.extend_ns_per_pt"] = float64(busy.Nanoseconds()) / float64(pts)
	m["ts.frontier_work_per_pt"] = float64(work) / float64(pts)
	return nil
}

// onlineNsPerPt times stream.Online.PushBatch over the inputs' data in
// batches, on one goroutine, per point.
func onlineNsPerPt(ins []input, batch int) (float64, error) {
	var pts int64
	var busy time.Duration
	for _, in := range ins {
		o, err := stream.NewOnlineEngine(in.cfg.Classifier, in.cfg.Stride, in.cfg.Step, in.cfg.Engine)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for lo := 0; lo < len(in.data); lo += batch {
			o.PushBatch(in.data[lo:min(lo+batch, len(in.data))])
		}
		busy += time.Since(t0)
		pts += int64(len(in.data))
	}
	return float64(busy.Nanoseconds()) / float64(pts), nil
}
