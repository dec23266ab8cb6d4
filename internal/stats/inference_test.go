package stats

import (
	"math"
	"sort"
	"testing"

	"secdir/internal/rng"
)

// approx fails unless got is within tol of want.
func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.9f, want %.9f (±%g)", name, got, want, tol)
	}
}

// TestWelchT pins the t statistic and Welch–Satterthwaite df against
// reference values computed offline with scipy.stats.ttest_ind(a, b,
// equal_var=False) (SciPy 1.11) and verified by hand from the closed forms
// in the comments.
func TestWelchT(t *testing.T) {
	cases := []struct {
		name    string
		a, b    []float64
		t, df   float64
		exactT  bool // expect the exact value (degenerate branches)
		wantInf int  // -1/+1: expect t = ∓Inf
	}{
		{
			// mean_a=3, s²_a=2.5, mean_b=6, s²_b=10:
			// t = -3/sqrt(2.5/5+10/5) = -3/sqrt(2.5) = -1.897366596,
			// df = 2.5²/((0.5²)/4 + (2²)/4) = 6.25/1.0625 = 5.882352941.
			name: "textbook",
			a:    []float64{1, 2, 3, 4, 5},
			b:    []float64{2, 4, 6, 8, 10},
			t:    -1.897366596, df: 5.882352941,
		},
		{
			// s²_a=0.035, s²_b=0.035/3: t = 29/(2·sqrt(7)) = 5.480485,
			// df = (16/9)/(2/9) = 8 exactly.
			name: "tvla-shaped",
			a:    []float64{10.2, 9.8, 10.1, 10.3, 9.9, 10.0},
			b:    []float64{9.5, 9.7, 9.4, 9.6, 9.55, 9.65},
			t:    5.480485, df: 8,
		},
		{
			// Both samples constant and equal: no evidence, t = 0.
			name: "constant-equal",
			a:    []float64{1, 1, 1}, b: []float64{1, 1, 1},
			t: 0, df: 0, exactT: true,
		},
		{
			// Both samples constant, means differ: a noise-free simulator's
			// perfect distinguisher. t diverges, sign follows mean(a)-mean(b).
			name: "constant-distinct",
			a:    []float64{1, 1}, b: []float64{0, 0},
			wantInf: +1,
		},
		{
			name: "empty",
			a:    nil, b: []float64{1, 2},
			t: 0, df: 0, exactT: true,
		},
	}
	for _, c := range cases {
		gt, gdf := WelchT(c.a, c.b)
		if c.wantInf != 0 {
			if !math.IsInf(gt, c.wantInf) {
				t.Errorf("%s: t = %v, want %+dInf", c.name, gt, c.wantInf)
			}
			continue
		}
		tol := 1e-6
		if c.exactT {
			tol = 0
		}
		approx(t, c.name+"/t", gt, c.t, tol)
		approx(t, c.name+"/df", gdf, c.df, tol)
	}
}

// TestMutualInformation pins the plug-in estimator against hand-computed
// plug-in values (the estimator is a finite sum, so the references are exact
// arithmetic, not simulation): I = Σ p(x,c)·log2(p(x,c)/(p(x)p(c))).
func TestMutualInformation(t *testing.T) {
	cases := []struct {
		name string
		a, b []float64
		bins int
		want float64
	}{
		// Perfectly separated balanced classes: the observable identifies
		// the class — exactly 1 bit.
		{"separated", []float64{0, 0, 0, 0}, []float64{1, 1, 1, 1}, 2, 1},
		// Identical distributions: 0 bits.
		{"identical", []float64{0, 1, 0, 1}, []float64{0, 1, 0, 1}, 2, 0},
		// Half of class a reaches a cell class b never does:
		// I = 0.25·log2(2) + 0.5·log2(4/3) + 0.25·log2(2/3) = 0.311278 bits.
		{"partial", []float64{0, 0, 1, 1}, []float64{0, 0, 0, 0}, 2, 0.3112781245},
		// Degenerate pooled range (every observation equal): no information.
		{"degenerate-range", []float64{5, 5}, []float64{5, 5}, 8, 0},
		{"empty", nil, []float64{1}, 8, 0},
	}
	for _, c := range cases {
		approx(t, c.name, MutualInformation(c.a, c.b, c.bins), c.want, 1e-9)
	}
}

// TestAUC pins the rank-based AUC (with half-credit ties) against the
// definition P(pos > neg) + ½P(pos = neg), enumerable by hand on these
// inputs.
func TestAUC(t *testing.T) {
	cases := []struct {
		name     string
		pos, neg []float64
		want     float64
	}{
		{"perfect", []float64{2, 3, 4}, []float64{0, 1}, 1},
		{"inverted", []float64{0, 1}, []float64{2, 3, 4}, 0},
		{"all-tied", []float64{1, 2}, []float64{1, 2}, 0.5},
		// Pairs (3,2)(3,0)(1,2)(1,0): three wins of four → 0.75.
		{"mixed", []float64{3, 1}, []float64{2, 0}, 0.75},
		{"empty", nil, []float64{1}, 0.5},
	}
	for _, c := range cases {
		approx(t, c.name, AUC(c.pos, c.neg), c.want, 1e-12)
	}
}

// aucBySort is the reference AUC: pool both samples, sort them, and add
// each positive's average tie-group rank one at a time. AUC must match it
// bit for bit.
func aucBySort(pos, neg []float64) float64 {
	np, nn := len(pos), len(neg)
	if np == 0 || nn == 0 {
		return 0.5
	}
	type obs struct {
		v   float64
		pos bool
	}
	all := make([]obs, 0, np+nn)
	for _, v := range pos {
		all = append(all, obs{v, true})
	}
	for _, v := range neg {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	var rankSum float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		avgRank := float64(i+j+1) / 2 // mean of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			if all[k].pos {
				rankSum += avgRank
			}
		}
		i = j
	}
	u := rankSum - float64(np)*float64(np+1)/2
	return u / (float64(np) * float64(nn))
}

// bootstrapCI is the generic one-sample percentile bootstrap: resamples
// replicates of x drawn with replacement from rng.New(seed), stat on each,
// and the conf-level percentile interval.
func bootstrapCI(x []float64, stat func([]float64) float64, resamples int, conf float64, seed int64) (lo, hi float64) {
	if len(x) == 0 || resamples < 1 {
		return 0, 0
	}
	r := rng.New(seed)
	buf := make([]float64, len(x))
	vals := make([]float64, resamples)
	for i := range vals {
		resample(&r, x, buf)
		vals[i] = stat(buf)
	}
	return percentileInterval(vals, conf)
}

// bootstrapCI2 is the generic two-sample variant: each replicate resamples a
// and then b. bootstrapCI2(a, b, aucBySort, ...) is the reference
// BootstrapAUC must match bit for bit.
func bootstrapCI2(a, b []float64, stat func(a, b []float64) float64, resamples int, conf float64, seed int64) (lo, hi float64) {
	if len(a) == 0 || len(b) == 0 || resamples < 1 {
		return 0, 0
	}
	r := rng.New(seed)
	bufA := make([]float64, len(a))
	bufB := make([]float64, len(b))
	vals := make([]float64, resamples)
	for i := range vals {
		resample(&r, a, bufA)
		resample(&r, b, bufB)
		vals[i] = stat(bufA, bufB)
	}
	return percentileInterval(vals, conf)
}

// resample fills buf with len(src) draws from src with replacement.
func resample(r *rng.Rand, src, buf []float64) {
	for i := range buf {
		buf[i] = src[r.Intn(len(src))]
	}
}

// TestBootstrapCI checks the percentile bootstrap's contract on the generic
// oracle: deterministic under a fixed seed, collapsed for a constant sample,
// and covering the point estimate for a well-behaved one.
func TestBootstrapCI(t *testing.T) {
	mean := func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			s += v
		}
		return s / float64(len(x))
	}

	x := make([]float64, 100)
	for i := range x {
		x[i] = float64(i)
	}
	lo, hi := bootstrapCI(x, mean, 500, 0.99, 42)
	lo2, hi2 := bootstrapCI(x, mean, 500, 0.99, 42)
	if lo != lo2 || hi != hi2 {
		t.Errorf("bootstrap not deterministic under a fixed seed: [%v,%v] vs [%v,%v]", lo, hi, lo2, hi2)
	}
	if !(lo < hi) {
		t.Errorf("interval not ordered: [%v,%v]", lo, hi)
	}
	// The 99% interval of the mean of Uniform{0..99} (point estimate 49.5,
	// se ≈ 2.9) must cover the point estimate and stay in a sane band.
	if lo > 49.5 || hi < 49.5 {
		t.Errorf("interval [%v,%v] does not cover the sample mean 49.5", lo, hi)
	}
	if hi-lo > 20 {
		t.Errorf("interval [%v,%v] implausibly wide for se≈2.9", lo, hi)
	}

	// A constant sample admits exactly one resample: the interval collapses
	// onto the statistic.
	clo, chi := bootstrapCI([]float64{7, 7, 7}, mean, 100, 0.99, 1)
	if clo != 7 || chi != 7 {
		t.Errorf("constant sample: interval [%v,%v], want [7,7]", clo, chi)
	}
}

// TestBootstrapCI2 checks the generic two-sample oracle on the AUC
// statistic: fully separated groups stay at AUC 1 under any resample.
func TestBootstrapCI2(t *testing.T) {
	act := []float64{5, 6, 7, 8}
	idl := []float64{1, 2, 3, 4}
	lo, hi := bootstrapCI2(act, idl, AUC, 200, 0.99, 9)
	if lo != 1 || hi != 1 {
		t.Errorf("separated groups: AUC interval [%v,%v], want [1,1]", lo, hi)
	}
	lo2, hi2 := bootstrapCI2(act, idl, AUC, 200, 0.99, 9)
	if lo != lo2 || hi != hi2 {
		t.Errorf("two-sample bootstrap not deterministic under a fixed seed")
	}
}

// TestBootstrapAUC checks the leakage lab's AUC and its interval: fully
// separated groups stay at AUC 1 under any resample, a fixed seed pins the
// interval, and the point is AUC's bit for bit, also where there is no
// interval (an empty group, no resamples).
func TestBootstrapAUC(t *testing.T) {
	act := []float64{5, 6, 7, 8}
	idl := []float64{1, 2, 3, 4}
	auc, lo, hi := BootstrapAUC(act, idl, 200, 0.99, 9)
	if auc != 1 || lo != 1 || hi != 1 {
		t.Errorf("separated groups: AUC %v in [%v,%v], want 1 in [1,1]", auc, lo, hi)
	}
	_, lo2, hi2 := BootstrapAUC(act, idl, 200, 0.99, 9)
	if lo != lo2 || hi != hi2 {
		t.Errorf("two-sample bootstrap not deterministic under a fixed seed")
	}
	for _, tc := range []struct {
		name      string
		a, b      []float64
		resamples int
	}{
		{"empty a", nil, idl, 200},
		{"empty b", act, nil, 200},
		{"no resamples", act, idl, 0},
		{"negative resamples", []float64{1, 2, 2}, []float64{2, 3}, -1},
	} {
		auc, lo, hi := BootstrapAUC(tc.a, tc.b, tc.resamples, 0.99, 9)
		if want := AUC(tc.a, tc.b); !sameBits(auc, want) || lo != 0 || hi != 0 {
			t.Errorf("%s: AUC %v in [%v,%v], want %v in [0,0]", tc.name, auc, lo, hi, want)
		}
	}
}

// sameBits reports whether x and y are the same float64, bit for bit.
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// checkAUCOracles fails unless AUC and BootstrapAUC on (a, b) match the
// sort-based oracles bit for bit, for the interval and for single replicates.
func checkAUCOracles(t *testing.T, a, b []float64, resamples int, seed int64) {
	t.Helper()
	if got, want := AUC(a, b), aucBySort(a, b); !sameBits(got, want) {
		t.Fatalf("AUC(%v, %v) = %v, oracle %v", a, b, got, want)
	}
	for _, conf := range []float64{0.5, 0.9, 0.99} {
		auc, lo, hi := BootstrapAUC(a, b, resamples, conf, seed)
		wlo, whi := bootstrapCI2(a, b, aucBySort, resamples, conf, seed)
		if !sameBits(auc, AUC(a, b)) || !sameBits(lo, wlo) || !sameBits(hi, whi) {
			t.Fatalf("BootstrapAUC(%v, %v, %d, %v, %d) = %v in [%v,%v], want %v in [%v,%v]",
				a, b, resamples, conf, seed, auc, lo, hi, AUC(a, b), wlo, whi)
		}
	}
	// Without resamples, or against an empty sample, the point is still
	// AUC's and the interval [0, 0].
	for _, c := range []struct {
		a, b      []float64
		resamples int
	}{{a, b, 0}, {a, nil, resamples}, {nil, b, resamples}} {
		if auc, lo, hi := BootstrapAUC(c.a, c.b, c.resamples, 0.99, seed); !sameBits(auc, AUC(c.a, c.b)) || lo != 0 || hi != 0 {
			t.Fatalf("BootstrapAUC(%v, %v, %d) = %v in [%v,%v], want %v in [0,0]", c.a, c.b, c.resamples, auc, lo, hi, AUC(c.a, c.b))
		}
	}
	// One resample pins the interval to that replicate's AUC exactly.
	_, got, _ := BootstrapAUC(a, b, 1, 0.99, seed)
	want, _ := bootstrapCI2(a, b, aucBySort, 1, 0.99, seed)
	if !sameBits(got, want) {
		t.Fatalf("replicate AUC for seed %d = %v, oracle %v", seed, got, want)
	}
}

// TestAUCMatchesSortOracle compares the tie-group AUC and bootstrap against
// the sort-based oracles on heavy-tie random inputs and the edge shapes.
func TestAUCMatchesSortOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	edges := []struct{ a, b []float64 }{
		{[]float64{3}, []float64{3}},
		{[]float64{1}, []float64{2}},
		{[]float64{2}, []float64{1, 1, 2, 3}},
		{[]float64{4, 4, 4}, []float64{4, 4}},
		{[]float64{0, negZero, 0}, []float64{negZero, negZero}},
		{[]float64{negZero, 1, 0, -1}, []float64{0, 0, negZero, 1, -1, 2}},
		{[]float64{1e308, -1e308, 5e-324}, []float64{5e-324, -5e-324, 0}},
	}
	for i, e := range edges {
		checkAUCOracles(t, e.a, e.b, 64, int64(i))
	}
	r := rng.New(11)
	for trial := 0; trial < 300; trial++ {
		levels := 1 + r.Intn(12)
		draw := func() []float64 {
			x := make([]float64, 1+r.Intn(40))
			for i := range x {
				x[i] = float64(r.Intn(levels)) * 0.25
				if r.Intn(8) == 0 {
					x[i] = -x[i] // -0 among the zeros, negatives elsewhere
				}
			}
			return x
		}
		checkAUCOracles(t, draw(), draw(), 1+r.Intn(100), int64(trial))
	}
}

// TestBootstrapAUCAllocs: the sort and the count buffers are allocated once
// per call, so the allocation count does not grow with resamples.
func TestBootstrapAUCAllocs(t *testing.T) {
	a := make([]float64, 400)
	b := make([]float64, 400)
	r := rng.New(3)
	for i := range a {
		a[i] = float64(r.Intn(20))
		b[i] = float64(r.Intn(20))
	}
	at := func(resamples int) float64 {
		return testing.AllocsPerRun(5, func() { BootstrapAUC(a, b, resamples, 0.99, 1) })
	}
	if n100, n1000 := at(100), at(1000); n100 != n1000 {
		t.Errorf("BootstrapAUC allocations grow with resamples: %v at 100, %v at 1000", n100, n1000)
	}
}

// FuzzBootstrapAUC checks AUC and BootstrapAUC against the sort-based
// oracles, and BootstrapAUC's point against AUC, on arbitrary finite inputs. data is read as little-endian float64
// words (non-finite words skipped); split picks how many go to a; coarse
// keeps only sign and exponent, which makes ties (and ±0 mixes) common.
func FuzzBootstrapAUC(f *testing.F) {
	word := func(vs ...float64) []byte {
		var out []byte
		for _, v := range vs {
			u := math.Float64bits(v)
			for i := 0; i < 8; i++ {
				out = append(out, byte(u>>(8*i)))
			}
		}
		return out
	}
	f.Add(word(1, 2, 3, 4), uint8(2), false, uint8(10), int64(1))
	f.Add(word(0, math.Copysign(0, -1), 0, 1, 1), uint8(3), false, uint8(5), int64(2))
	f.Add(word(1.5, 3, 1.25, 7, 0.1, 9e9, -2), uint8(4), true, uint8(31), int64(3))
	f.Add(word(5, 5), uint8(1), false, uint8(0), int64(4))
	f.Fuzz(func(t *testing.T, data []byte, split uint8, coarse bool, resamples uint8, seed int64) {
		var xs []float64
		for i := 0; i+8 <= len(data) && len(xs) < 24; i += 8 {
			var u uint64
			for k := 0; k < 8; k++ {
				u |= uint64(data[i+k]) << (8 * k)
			}
			if coarse {
				u &^= 1<<52 - 1
			}
			v := math.Float64frombits(u)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			xs = append(xs, v)
		}
		if len(xs) < 2 {
			return
		}
		k := 1 + int(split)%(len(xs)-1)
		checkAUCOracles(t, xs[:k], xs[k:], 1+int(resamples)%16, seed)
	})
}
