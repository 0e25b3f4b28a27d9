package main

import (
	"testing"
)

// TestSmoke runs every workload untraced, and one traced run (which makes
// a traced pass of every workload), at tiny sizes: each must pass its
// correctness gate with no failed operation and report every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test runs the workloads")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			rec, err := execute(runConfig{workload: w, seed: 3, seconds: 1, swarmStreams: 300, traceDir: dir}, false)
			if err != nil {
				t.Fatal(err)
			}
			check(t, rec, len(endToEnd))
		})
	}
	t.Run("traced", func(t *testing.T) {
		rec, err := execute(runConfig{workload: "wire", seed: 3, seconds: 2, swarmStreams: 300, traceDir: dir}, true)
		if err != nil {
			t.Fatal(err)
		}
		check(t, rec, len(perLayer))
		if len(rec.Overhead) != len(endToEnd) {
			t.Errorf("tracing overhead has %d metrics, want %d", len(rec.Overhead), len(endToEnd))
		}
	})
}

func check(t *testing.T, rec *record, metrics int) {
	t.Helper()
	if !rec.Correct {
		t.Fatalf("transcript of %s differs from hub.Reference", rec.Mismatch)
	}
	attempted, failed := rec.Ops.totals()
	if attempted == 0 || failed != 0 {
		t.Errorf("ops attempted=%d failed=%d, want some attempted and none failed", attempted, failed)
	}
	if len(rec.Metrics) != metrics {
		t.Errorf("got %d metrics, want %d", len(rec.Metrics), metrics)
	}
	for name, m := range rec.Metrics {
		if m.Unit == "" {
			t.Errorf("%s has no unit", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
