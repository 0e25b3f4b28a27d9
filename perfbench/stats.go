package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" definition). xs is sorted in place.
// +Inf entries are failed operations: they sort last, so a quantile that
// lands on one reports +Inf, i.e. a miss.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(xs[hi], 1) {
		return xs[hi]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// opCount tallies one operation type: how many were attempted and how many
// failed. A failure is any error, backpressure and unavailable included.
type opCount struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
}

type opCounts map[string]*opCount

func (o opCounts) add(op string, attempted, failed int64) {
	c := o[op]
	if c == nil {
		c = &opCount{}
		o[op] = c
	}
	c.Attempted += attempted
	c.Failed += failed
}

func (o opCounts) totals() (attempted, failed int64) {
	for _, c := range o {
		attempted += c.Attempted
		failed += c.Failed
	}
	return attempted, failed
}

// peakRSS is the process's peak resident set size in bytes (VmHWM), or 0
// where /proc is unavailable.
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb * 1024
		}
	}
	return 0
}

// sample is one latency observation: when its operation was due (offset
// from the schedule start) and how long it took, in seconds.
type sample struct {
	at time.Duration
	v  float64
}

// segments is how many consecutive slices of the paced schedule a latency
// quantile is taken over.
const segments = 5

// segmentQuantile splits the samples, in schedule order, into equal-count
// segments, takes the q-quantile of each, and returns their median. A
// single stall (a GC cycle, a descheduled generator) then moves one
// segment's tail instead of the run's, which keeps the figure repeatable
// across runs; within each segment it is an ordinary quantile.
func segmentQuantile(xs []sample, q float64) float64 {
	sort.Slice(xs, func(a, b int) bool { return xs[a].at < xs[b].at })
	k := segments
	if len(xs) < k {
		k = 1
	}
	var per []float64
	for i := 0; i < k; i++ {
		seg := xs[i*len(xs)/k : (i+1)*len(xs)/k]
		vs := make([]float64, len(seg))
		for i, s := range seg {
			vs[i] = s.v
		}
		per = append(per, quantile(vs, q))
	}
	return median(per)
}

// stealTime is the CPU time the hypervisor has taken from this machine so
// far (the steal column of /proc/stat), in seconds, or 0 where unknown.
// The record carries a run's share: steal arrives in bursts and inflates
// every wall-clock figure it overlaps.
func stealTime() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100 // USER_HZ
}
