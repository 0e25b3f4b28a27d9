package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// compareMain diffs two result sets: files holding the standard output of
// benchmark runs (any other lines are skipped). For every workload and
// metric it prints each side's median and quartiles and the change of the
// median, and judges each end-to-end metric against its bound from
// BENCHMARK.json: REGRESSION when the new median is worse by more than the
// bound, unresolved when either side's quartile spread exceeds the bound,
// improved when the median got better by more than the old side's spread.
// It exits 1 when any metric regressed.
//
//	perfbench compare [-bench BENCHMARK.json] old.txt new.txt
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-bench BENCHMARK.json] old.txt new.txt")
		return 2
	}
	bounds, err := readBounds(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	var sets [2]map[string]map[string][]float64
	for i, path := range fs.Args() {
		if sets[i], err = readRecords(path); err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 2
		}
	}
	regressed := false
	tw := &table{w: stdout}
	tw.row("workload", "metric", "old median", "old q1..q3", "n", "new median", "new q1..q3", "n", "change", "verdict")
	for _, w := range unionKeys(sets[0], sets[1]) {
		for _, name := range unionKeys(sets[0][w], sets[1][w]) {
			old, cur := sets[0][w][name], sets[1][w][name]
			verdict := ""
			change := "-"
			if len(old) > 0 && len(cur) > 0 {
				mo, mn := median(old), median(cur)
				change = fmt.Sprintf("%+.1f%%", 100*(mn-mo)/mo)
				if b, ok := bounds[name]; ok {
					verdict = judge(old, cur, b)
					regressed = regressed || verdict == "REGRESSION"
				}
			}
			tw.row(w, name, fmtMedian(old), fmtQuartiles(old), fmt.Sprint(len(old)),
				fmtMedian(cur), fmtQuartiles(cur), fmt.Sprint(len(cur)), change, verdict)
		}
	}
	tw.flush()
	if regressed {
		return 1
	}
	return 0
}

// bound is one end-to-end metric's regression rule.
type bound struct {
	share  float64
	higher bool // "better": "higher"
}

func readBounds(path string) (map[string]bound, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for _, m := range def.EndToEnd {
		out[m.Name] = bound{m.Bound, m.Better == "higher"}
	}
	return out, nil
}

// readRecords collects workload → metric → values from the record lines in
// a file of captured benchmark output.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, `"bench":"`+recordTag+`"`) {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// judge applies a metric's bound to the old and new samples.
func judge(old, cur []float64, b bound) string {
	mo, mn := median(old), median(cur)
	if spread(old) > b.share || spread(cur) > b.share {
		return "unresolved"
	}
	worse := (mn - mo) / mo
	if b.higher {
		worse = -worse
	}
	switch {
	case worse > b.share:
		return "REGRESSION"
	case -worse > spread(old):
		return "improved"
	}
	return "within bound"
}

// spread is the distance between the first and third quartile as a share
// of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.Inf(1)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is how spreads are judged elsewhere.
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func fmtMedian(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g", median(xs))
}

func fmtQuartiles(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g..%.4g", q1, q3)
}

func unionKeys[V any](a, b map[string]V) []string {
	seen := map[string]V{}
	for k, v := range a {
		seen[k] = v
	}
	for k, v := range b {
		seen[k] = v
	}
	return sortedKeys(seen)
}

// table left-aligns rows into columns.
type table struct {
	w    io.Writer
	rows [][]string
}

func (t *table) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) flush() {
	var widths []int
	for _, r := range t.rows {
		for i, c := range r {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			widths[i] = max(widths[i], len(c))
		}
	}
	for _, r := range t.rows {
		var b strings.Builder
		for i, c := range r {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(t.w, strings.TrimRight(b.String(), " "))
	}
}
