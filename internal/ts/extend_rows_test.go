package ts

import (
	"math"
	"math/rand"
	"testing"
)

// rowsRefs builds n random references of length l (plus per-ref slack so
// lengths are heterogeneous, as training sets can be after truncation
// guards are applied upstream).
func rowsRefs(rng *rand.Rand, n, l int) [][]float64 {
	refs := make([][]float64, n)
	for i := range refs {
		r := make([]float64, l+rng.Intn(4))
		for t := range r {
			r[t] = rng.NormFloat64() * 3
		}
		refs[i] = r
	}
	return refs
}

// TestExtendD2RowsMatchesScalar pins the blocked row kernel bit-identical
// to the scalar extendD2 per reference, across ref counts straddling the
// 4-row block boundary, batch sizes straddling the unroll widths, and
// accumulation from nonzero offsets.
func TestExtendD2RowsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, nrefs := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33} {
		for _, batch := range []int{1, 2, 3, 4, 5, 8, 13} {
			const L = 64
			refs := rowsRefs(rng, nrefs, L)
			query := make([]float64, L)
			for i := range query {
				query[i] = rng.NormFloat64() * 3
			}
			got := make([]float64, nrefs)
			want := make([]float64, nrefs)
			for from := 0; from < L; {
				n := batch
				if from+n > L {
					n = L - from
				}
				points := query[from : from+n]
				extendD2Rows(got, points, refs, from)
				for i, ref := range refs {
					want[i] = extendD2(want[i], points, ref[from:from+n])
				}
				from += n
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("nrefs=%d batch=%d at=%d ref=%d: rows %v != scalar %v",
							nrefs, batch, from, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestExtendD2RowsNonFinite pins the kernels identical when the stream
// carries NaN/Inf samples — the accumulators must poison the same way.
func TestExtendD2RowsNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	refs := rowsRefs(rng, 9, 16)
	points := []float64{1, math.NaN(), 2, math.Inf(1), 3, 4, math.Inf(-1), 5}
	got := make([]float64, len(refs))
	want := make([]float64, len(refs))
	extendD2Rows(got, points, refs, 0)
	extendD2Rows(got, points[:5], refs, len(points))
	for i, ref := range refs {
		want[i] = extendD2(want[i], points, ref[:len(points)])
		want[i] = extendD2(want[i], points[:5], ref[len(points):len(points)+5])
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("ref %d: rows %v != scalar %v", i, got[i], want[i])
		}
	}
}

// FuzzExtendD2Rows drives random ref counts, batch splits, and sample
// values (including non-finite injections) through the blocked kernel and
// checks bit-identity against the scalar per-reference walk.
func FuzzExtendD2Rows(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(3))
	f.Add(int64(42), uint8(8), uint8(1))
	f.Add(int64(7), uint8(13), uint8(7))
	f.Add(int64(99), uint8(3), uint8(64))
	f.Fuzz(func(t *testing.T, seed int64, nrefs, batch uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nrefs)%24 + 1
		const L = 48
		refs := rowsRefs(rng, n, L)
		query := make([]float64, L)
		for i := range query {
			query[i] = rng.NormFloat64() * 3
			if rng.Intn(37) == 0 {
				query[i] = math.NaN()
			}
			if rng.Intn(41) == 0 {
				query[i] = math.Inf(1 - 2*rng.Intn(2))
			}
		}
		got := make([]float64, n)
		want := make([]float64, n)
		for from := 0; from < L; {
			step := int(batch)%7 + 1 + rng.Intn(5)
			if from+step > L {
				step = L - from
			}
			points := query[from : from+step]
			extendD2Rows(got, points, refs, from)
			for i, ref := range refs {
				want[i] = extendD2(want[i], points, ref[from:from+step])
			}
			from += step
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("ref %d: rows %x != scalar %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}

// BenchmarkExtendRows measures the blocked row kernel through
// PrefixDistBank.Extend at a serving-shaped size (128 refs × length 256)
// for a few batch widths — the batched-extend record CI appends to
// BENCH_eval.json.
func BenchmarkExtendRows(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const nrefs, L = 128, 256
	refs := make([][]float64, nrefs)
	for i := range refs {
		r := make([]float64, L)
		for t := range r {
			r[t] = rng.NormFloat64()
		}
		refs[i] = r
	}
	query := make([]float64, L)
	for i := range query {
		query[i] = rng.NormFloat64()
	}
	for _, batch := range []int{1, 4, 16} {
		b.Run(benchName(batch), func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				bank := NewPrefixDistBank(refs)
				for from := 0; from < L; from += batch {
					n := batch
					if from+n > L {
						n = L - from
					}
					bank.Extend(query[from : from+n])
				}
			}
		})
	}
}

func benchName(batch int) string {
	switch batch {
	case 1:
		return "batch1"
	case 4:
		return "batch4"
	default:
		return "batch16"
	}
}
