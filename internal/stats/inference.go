package stats

import (
	"cmp"
	"math"
	"slices"

	"secdir/internal/rng"
)

// This file holds the inferential statistics the leakage lab builds its
// verdicts on: Welch's unequal-variance t-test (the TVLA workhorse), a
// plug-in mutual-information estimate (channel capacity in bits), the
// rank-based ROC AUC, and its seeded percentile-bootstrap confidence interval.
// Everything is deterministic: the bootstrap draws from the repo's splitmix64
// generator, so a fixed seed pins every interval bit-for-bit.

// meanVar returns the sample mean and the unbiased (n-1) sample variance.
func meanVar(x []float64) (mean, variance float64) {
	n := float64(len(x))
	if n == 0 {
		return 0, 0
	}
	for _, v := range x {
		mean += v
	}
	mean /= n
	if n < 2 {
		return mean, 0
	}
	for _, v := range x {
		d := v - mean
		variance += d * d
	}
	return mean, variance / (n - 1)
}

// WelchT returns Welch's two-sample t statistic for a vs. b and the
// Welch–Satterthwaite degrees of freedom. This is the unequal-variance test
// TVLA ("Test Vector Leakage Assessment", Goodwill et al., NIAT 2011) builds
// its |t| > 4.5 leakage criterion on.
//
// Degenerate inputs are resolved the way a leakage verdict needs: when both
// samples have zero variance (a noise-free simulator can produce exactly
// constant observables), t is 0 for equal means and ±Inf for distinct means,
// with df 0. Callers that serialize t must cap the infinities themselves.
func WelchT(a, b []float64) (t, df float64) {
	ma, va := meanVar(a)
	mb, vb := meanVar(b)
	na, nb := float64(len(a)), float64(len(b))
	if na == 0 || nb == 0 {
		return 0, 0
	}
	se2 := va/na + vb/nb
	if se2 == 0 {
		if ma == mb {
			return 0, 0
		}
		return math.Inf(int(math.Copysign(1, ma-mb))), 0
	}
	t = (ma - mb) / math.Sqrt(se2)
	// Welch–Satterthwaite: df = (va/na + vb/nb)^2 / ((va/na)^2/(na-1) + (vb/nb)^2/(nb-1)).
	denom := 0.0
	if na > 1 {
		denom += (va / na) * (va / na) / (na - 1)
	}
	if nb > 1 {
		denom += (vb / nb) * (vb / nb) / (nb - 1)
	}
	if denom == 0 {
		return t, 0
	}
	return t, se2 * se2 / denom
}

// MutualInformation estimates I(C;X) in bits between the binary class label
// C (which of the two samples an observation came from) and the observation
// X, using the plug-in (maximum-likelihood histogram) estimator over bins
// equal-width cells spanning the pooled range. This is the per-observation
// channel capacity bound side-channel evaluations report: 0 bits means the
// observable carries no information about the class; with balanced classes
// the maximum is 1 bit.
//
// The plug-in estimator has a positive O((bins-1)/N) bias on independent
// data; callers comparing against a leakage threshold should keep bins small
// relative to the sample count. A degenerate pooled range (every observation
// identical) carries no information and returns 0.
func MutualInformation(a, b []float64, bins int) float64 {
	if len(a) == 0 || len(b) == 0 || bins < 1 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range [][]float64{a, b} {
		for _, v := range s {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if hi == lo {
		return 0
	}
	width := (hi - lo) / float64(bins)
	binOf := func(v float64) int {
		k := int((v - lo) / width)
		if k >= bins {
			k = bins - 1 // v == hi lands in the last cell
		}
		return k
	}
	counts := make([][2]float64, bins)
	for _, v := range a {
		counts[binOf(v)][0]++
	}
	for _, v := range b {
		counts[binOf(v)][1]++
	}
	n := float64(len(a) + len(b))
	pc := [2]float64{float64(len(a)) / n, float64(len(b)) / n}
	mi := 0.0
	for _, c := range counts {
		px := (c[0] + c[1]) / n
		if px == 0 {
			continue
		}
		for class := 0; class < 2; class++ {
			pxy := c[class] / n
			if pxy == 0 {
				continue
			}
			mi += pxy * math.Log2(pxy/(px*pc[class]))
		}
	}
	if mi < 0 {
		mi = 0 // guard against float cancellation
	}
	return mi
}

// AUC returns the area under the ROC curve of the threshold distinguisher
// separating pos from neg: the probability that a random positive observation
// ranks above a random negative one, with ties counted half (the Mann-Whitney
// U statistic normalized by len(pos)*len(neg)). 0.5 is an uninformative
// distinguisher; 1.0 (or 0.0, for an inverted observable) is a perfect one.
// Computed by rank sum over tie groups: one O(n log n) sort, then O(n).
func AUC(pos, neg []float64) float64 {
	if len(pos) == 0 || len(neg) == 0 {
		return 0.5
	}
	_, cntP, cntN := tieGroups(pos, neg)
	return rankAUC(cntP, cntN, len(pos), len(neg))
}

// BootstrapAUC returns auc = AUC(a, b) and its percentile-bootstrap
// confidence interval at the given confidence level (e.g. 0.99): resamples
// replicates, each drawing len(a) observations from a and then len(b) from
// b with replacement from rng.New(seed), and the (1-conf)/2 and
// 1-(1-conf)/2 empirical quantiles of the replicate AUCs. With an empty
// sample or no resamples the interval is [0, 0].
//
// The pooled sample is sorted once, for the point and every replicate. A
// draw only bumps its observation's tie group count, and a replicate's rank
// sum is one pass over the groups, so a replicate costs
// O(len(a)+len(b)+groups) and allocates nothing. The point and every
// replicate equal AUC of the (resampled) slices bit for bit: see rankAUC.
func BootstrapAUC(a, b []float64, resamples int, conf float64, seed int64) (auc, lo, hi float64) {
	if len(a) == 0 || len(b) == 0 {
		return 0.5, 0, 0
	}
	groups, cntA, cntB := tieGroups(a, b)
	ga, gb := groups[:len(a)], groups[len(a):]
	auc = rankAUC(cntA, cntB, len(a), len(b))
	if resamples < 1 {
		return auc, 0, 0
	}
	r := rng.New(seed)
	vals := make([]float64, resamples)
	for i := range vals {
		clear(cntA)
		clear(cntB)
		for range ga {
			cntA[ga[r.Intn(len(ga))]]++
		}
		for range gb {
			cntB[gb[r.Intn(len(gb))]]++
		}
		vals[i] = rankAUC(cntA, cntB, len(a), len(b))
	}
	lo, hi = percentileInterval(vals, conf)
	return auc, lo, hi
}

// tieGroups sorts a ∪ b once and returns, for each observation (a's first,
// then b's), the index of its tie group in ascending value order, plus how
// many of a's and of b's observations each group holds. Values that compare
// equal (+0 and -0 included) share a group.
func tieGroups(a, b []float64) (groups, cntA, cntB []int) {
	type obs struct {
		v float64
		i int
	}
	all := make([]obs, 0, len(a)+len(b))
	for i, v := range a {
		all = append(all, obs{v, i})
	}
	for i, v := range b {
		all = append(all, obs{v, len(a) + i})
	}
	slices.SortFunc(all, func(x, y obs) int { return cmp.Compare(x.v, y.v) })
	groups = make([]int, len(all))
	ng := 0
	for k, o := range all {
		if k > 0 && o.v != all[k-1].v {
			ng++
		}
		groups[o.i] = ng
	}
	cntA, cntB = make([]int, ng+1), make([]int, ng+1)
	for _, g := range groups[:len(a)] {
		cntA[g]++
	}
	for _, g := range groups[len(a):] {
		cntB[g]++
	}
	return groups, cntA, cntB
}

// rankAUC returns the AUC of na positives against nb negatives whose tie
// group g (ascending value order) holds cntP[g] positives and cntN[g]
// negatives. A group of s observations after pos earlier ones spans 1-based
// ranks pos+1..pos+s, so each of its positives has average rank
// (2·pos+s+1)/2. Ranks are half-integers and every partial rank sum stays
// below (na+nb)², so for pooled sizes under 2^25 each sum is exact and the
// result equals that of adding the positives' average ranks one at a time.
func rankAUC(cntP, cntN []int, na, nb int) float64 {
	var rankSum float64
	pos := 0
	for g, cp := range cntP {
		s := cp + cntN[g]
		rankSum += float64(cp) * (float64(2*pos+s+1) / 2)
		pos += s
	}
	u := rankSum - float64(na)*float64(na+1)/2
	return u / (float64(na) * float64(nb))
}

// percentileInterval returns the symmetric conf-level percentile interval of
// vals (which it sorts in place).
func percentileInterval(vals []float64, conf float64) (lo, hi float64) {
	slices.Sort(vals)
	alpha := (1 - conf) / 2
	return quantileSorted(vals, alpha), quantileSorted(vals, 1-alpha)
}

// quantileSorted returns the q-quantile of sorted vals by the nearest-rank
// method, clamping q to [0,1].
func quantileSorted(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(vals)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(vals) {
		k = len(vals) - 1
	}
	return vals[k]
}
