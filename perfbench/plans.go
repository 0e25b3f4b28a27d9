package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	"etsc/internal/dataset"
	"etsc/internal/etsc"
	"etsc/internal/hub"
	"etsc/internal/ts"
)

// Workload sizes and offered rates. Rates and nominal capacities were
// measured on a 2-CPU x86-64 container (Go 1.24); the paced rates sit at
// about a fifth of the closed-loop capacity there (higher rates left the
// in-process generator late) and are never adapted, so every run of every
// commit offers the same schedule. Phase lengths scale
// with --seconds through the nominal capacities, so a run's work depends
// only on its flags.
const (
	// modelSeed trains the deployed models. It is fixed: a deployment has
	// one trained model, and --seed varies the traffic it serves.
	modelSeed = 1

	fleetStreams = 48
	fleetBatch   = 64
	// fleetNominal sizes the closed loop (points/s at capacity).
	fleetNominal = 700_000
	fleetRate    = 100_000

	// swarmStreams is sized to the memory of a shared 8 GB host: 100k
	// streams peaked at 3.9 GB RSS. At 25k the pool's O(n) dequeue still
	// dominates a drain (its queue holds up to one drain per stream).
	swarmStreams = 25_000
	swarmBatch   = 64
	swarmNominal = 18_000_000
	swarmRate    = 2_000_000
	// Every swarm stream is pushed past its 512-point window at least twice
	// in the closed loop and through at least one more window paced.
	swarmMinClosed = 2*quietWindow + swarmBatch
	swarmMinPaced  = quietWindow
	// swarmWatchEvery subscribes every other stream to a hub.Watch.
	swarmWatchEvery = 2

	wireStreams   = 32
	wireBatch     = 64
	wireNominal   = 400_000
	wireRate      = 100_000
	wireReadEvery = 4

	quietWindow = 512

	// Shares of --seconds spent in the closed loop (at nominal capacity)
	// and in the paced phase.
	closedShare = 0.3
	pacedShare  = 0.4
)

// phasePoints splits a per-stream point budget into the closed-loop and
// paced parts for a workload of n streams, rounded to whole batches.
func phasePoints(seconds, nominal, rate float64, n, batch int) (closed, paced int) {
	round := func(x float64) int { return max(1, int(x)/batch) * batch }
	return round(nominal * seconds * closedShare / float64(n)), round(rate * seconds * pacedShare / float64(n))
}

// withReferences fills every input's ref with hub.Reference over its data,
// fanned over one goroutine per CPU. Inputs sharing a data slice and config
// (swarm) share one computation.
func withReferences(ins []input) error {
	type key struct {
		first *float64
		kind  string
	}
	memo := map[key][]byte{}
	var todo []int
	for i, in := range ins {
		k := key{&in.data[0], in.kind}
		if _, ok := memo[k]; !ok {
			memo[k] = nil
			todo = append(todo, i)
		}
	}
	refs := make([][]byte, len(todo))
	errs := make([]error, len(todo))
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < pushers(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				in := ins[todo[j]]
				dets, err := hub.Reference(in.cfg, in.data)
				if err == nil {
					refs[j], err = json.Marshal(dets)
				}
				errs[j] = err
			}
		}()
	}
	for j := range todo {
		next <- j
	}
	close(next)
	wg.Wait()
	for j, i := range todo {
		if errs[j] != nil {
			return fmt.Errorf("reference for %s: %w", ins[i].id, errs[j])
		}
		memo[key{&ins[i].data[0], ins[i].kind}] = refs[j]
	}
	for i := range ins {
		ins[i].ref = memo[key{&ins[i].data[0], ins[i].kind}]
	}
	return nil
}

// fleetPlan: the three demo kinds round-robined over 48 streams into one
// hub. The classifier stack does almost all the work. The paced phase
// ticks: every stream reports its batch of a round at the same instant.
func fleetPlan(seed int64, seconds float64, verif *timedVerifier) (*plan, error) {
	kinds, err := hub.DemoKinds(modelSeed)
	if err != nil {
		return nil, err
	}
	closed, paced := phasePoints(seconds, fleetNominal, fleetRate, fleetStreams, fleetBatch)
	demo, err := hub.DemoStreams(kinds, seed, fleetStreams, closed+paced)
	if err != nil {
		return nil, err
	}
	ins := make([]input, len(demo))
	for i, d := range demo {
		ins[i] = input{id: d.ID, kind: d.Kind, cfg: d.Config, data: d.Data[:closed+paced], verified: d.Config.Verifier != nil}
	}
	if err := withReferences(ins); err != nil {
		return nil, err
	}
	p := &plan{name: "fleet", streams: ins, batch: fleetBatch, closedPts: closed, rate: fleetRate,
		tick: true, watchEvery: 1, setups: 25, chunks: 8, exportPasses: 51}
	p.build = func(tr *tracer, ops opCounts) (system, error) {
		kinds, err := hub.DemoKinds(modelSeed)
		if err != nil {
			return nil, err
		}
		byName := map[string]hub.StreamConfig{}
		for _, k := range kinds {
			cfg := k.Config
			if tr != nil && verif != nil && cfg.Verifier != nil {
				verif.inner = cfg.Verifier
				cfg.Verifier = verif
			}
			byName[k.Name] = cfg
		}
		return attachAll(p, tr, ops, func(i int) hub.StreamConfig { return byName[ins[i].kind] })
	}
	return p, nil
}

// quietKind is the cheap pipeline of etsc-serve -scaling: a FixedPrefix
// detector over two constant exemplars with the stride at the full
// 512-point window, so a stream costs a handful of comparisons per window
// and the measurement isolates attach, queueing, drain scheduling, state
// export and the wire.
func quietKind() (hub.Kind, error) {
	mk := func(level float64) dataset.Instance {
		s := make(ts.Series, quietWindow)
		for i := range s {
			s[i] = level
		}
		return dataset.Instance{Label: int(level) + 2, Series: s}
	}
	d, err := dataset.New("quiet", []dataset.Instance{mk(-1), mk(1)})
	if err != nil {
		return hub.Kind{}, err
	}
	spec := etsc.Spec{Algo: etsc.AlgoFixedPrefix, Params: map[string]any{"at": quietWindow, "znorm": false}}
	clf, err := etsc.Train(spec, d)
	if err != nil {
		return hub.Kind{}, err
	}
	return hub.Kind{Name: "quiet", Spec: spec, TrainSet: d,
		Config: hub.StreamConfig{Classifier: clf, Stride: quietWindow, Step: 8}}, nil
}

// quietSeries renders n points of seeded telemetry for the quiet kind: a
// slow random walk around zero plus noise, so alarms change label.
func quietSeries(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	level := 0.0
	for i := range out {
		level += rng.NormFloat64() * 0.05
		level *= 0.999
		out[i] = level + rng.NormFloat64()*0.5
	}
	return out
}

// swarmPlan: many cheap streams on the default flat hub. Every stream
// attaches cold and replays one shared seeded series.
func swarmPlan(seed int64, seconds float64, streams int) (*plan, error) {
	k, err := quietKind()
	if err != nil {
		return nil, err
	}
	closed, paced := phasePoints(seconds, swarmNominal, swarmRate, streams, swarmBatch)
	closed, paced = max(closed, swarmMinClosed), max(paced, swarmMinPaced)
	data := quietSeries(rand.New(rand.NewSource(seed)), closed+paced)
	ins := make([]input, streams)
	for i := range ins {
		ins[i] = input{id: fmt.Sprintf("s-%06d", i), kind: k.Name, cfg: k.Config, data: data}
	}
	if err := withReferences(ins); err != nil {
		return nil, err
	}
	p := &plan{name: "swarm", streams: ins, batch: swarmBatch, closedPts: closed, rate: swarmRate,
		watchEvery: swarmWatchEvery, setups: 5, chunks: 1 << 20, exportPasses: 7}
	p.build = func(tr *tracer, ops opCounts) (system, error) {
		k, err := quietKind()
		if err != nil {
			return nil, err
		}
		return attachAll(p, tr, ops, func(int) hub.StreamConfig { return k.Config })
	}
	return p, nil
}

// wirePlan: quiet streams pushed over loopback HTTP through the router to
// two servers, with a cursor read beside every few pushes.
func wirePlan(seed int64, seconds float64) (*plan, error) {
	k, err := quietKind()
	if err != nil {
		return nil, err
	}
	closed, paced := phasePoints(seconds, wireNominal, wireRate, wireStreams, wireBatch)
	rng := rand.New(rand.NewSource(seed))
	ins := make([]input, wireStreams)
	for i := range ins {
		ins[i] = input{id: fmt.Sprintf("w-%03d", i), kind: k.Name, cfg: k.Config, data: quietSeries(rng, closed+paced)}
	}
	if err := withReferences(ins); err != nil {
		return nil, err
	}
	p := &plan{name: "wire", streams: ins, batch: wireBatch, closedPts: closed, rate: wireRate,
		watchEvery: 1, readEvery: wireReadEvery, setups: 25, chunks: 8, exportPasses: 41}
	p.build = func(tr *tracer, ops opCounts) (system, error) { return newWireSystem(p, tr, ops) }
	return p, nil
}
