package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"secdir/internal/stats"
)

// HistogramSnapshot is the exportable state of a Histogram: the raw
// power-of-two bucket counts (which make delta arithmetic exact) plus derived
// summary fields.
type HistogramSnapshot struct {
	// N is the observation count and Sum the sum of observations.
	N   uint64 `json:"n"`
	Sum uint64 `json:"sum"`
	// Mean is Sum/N (0 when empty).
	Mean float64 `json:"mean"`
	// P50/P90/P99 are bucket-upper-bound quantiles.
	P50 uint64 `json:"p50"`
	P90 uint64 `json:"p90"`
	P99 uint64 `json:"p99"`
	// Buckets holds the non-empty buckets keyed by bucket index; bucket k
	// counts values in [2^(k-1), 2^k), bucket 0 the value 0, bucket 63 the
	// overflow.
	Buckets map[int]uint64 `json:"buckets,omitempty"`
}

// histSnapshot converts a stats.Histogram.
func histSnapshot(h *stats.Histogram) HistogramSnapshot {
	s := HistogramSnapshot{
		N:    h.N(),
		Sum:  h.Sum(),
		Mean: h.Mean(),
		P50:  h.Quantile(0.5),
		P90:  h.Quantile(0.9),
		P99:  h.Quantile(0.99),
	}
	counts := h.Counts()
	for b, c := range counts {
		if c != 0 {
			if s.Buckets == nil {
				s.Buckets = map[int]uint64{}
			}
			s.Buckets[b] = c
		}
	}
	return s
}

// Sub returns the histogram delta s - base, recomputing the derived fields
// from the subtracted buckets. base must be an earlier snapshot of the same
// histogram (bucket counts monotone), or the counts saturate at zero.
func (s HistogramSnapshot) Sub(base HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{
		N:   satSub(s.N, base.N),
		Sum: satSub(s.Sum, base.Sum),
	}
	for b, c := range s.Buckets {
		c = satSub(c, base.Buckets[b])
		if c != 0 {
			if d.Buckets == nil {
				d.Buckets = map[int]uint64{}
			}
			d.Buckets[b] = c
		}
	}
	if d.N > 0 {
		d.Mean = float64(d.Sum) / float64(d.N)
		d.P50 = bucketQuantile(d.Buckets, d.N, 0.5)
		d.P90 = bucketQuantile(d.Buckets, d.N, 0.9)
		d.P99 = bucketQuantile(d.Buckets, d.N, 0.99)
	}
	return d
}

// bucketQuantile mirrors stats.Histogram.Quantile over a sparse bucket map:
// it returns the upper edge of the bucket containing the q-quantile.
func bucketQuantile(buckets map[int]uint64, total uint64, q float64) uint64 {
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for b := 0; b < 64; b++ {
		seen += buckets[b]
		if seen >= target {
			_, hi := stats.BucketBounds(b)
			return hi
		}
	}
	return 1<<63 - 1
}

// satSub returns a-b, saturating at zero.
func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Snapshot is a point-in-time copy of a registry's metrics, suitable for JSON
// export and for delta arithmetic between two points of a run.
type Snapshot struct {
	// Counters maps counter name to count.
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Gauges maps gauge name to value; registered GaugeFuncs are evaluated
	// at snapshot time and appear here.
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Histograms maps histogram name to its bucket snapshot.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Series maps series name to its retained points.
	Series map[string][]Point `json:"series,omitempty"`
}

// Snapshot captures the registry's current state, evaluating gauge
// functions. On a nil registry it returns an empty snapshot. Snapshot is safe
// to call while other goroutines mutate the registry: each instrument is read
// atomically, though the snapshot as a whole is not one instant across
// instruments. Gauge functions are evaluated outside the registry's locks.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	// Collect handle references shard by shard under each shard's read lock,
	// then read the instruments without holding any registry lock (every
	// handle is individually thread-safe, and gauge funcs may be arbitrarily
	// slow or themselves touch the registry).
	type namedFn struct {
		name string
		fn   func() float64
	}
	var (
		counters map[string]*Counter
		gauges   map[string]*Gauge
		fns      []namedFn
		hists    map[string]*Histogram
		series   map[string]*Series
	)
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for n, c := range sh.counters {
			if counters == nil {
				counters = map[string]*Counter{}
			}
			counters[n] = c
		}
		for n, g := range sh.gauges {
			if gauges == nil {
				gauges = map[string]*Gauge{}
			}
			gauges[n] = g
		}
		for n, fn := range sh.gaugeFns {
			fns = append(fns, namedFn{n, fn})
		}
		for n, h := range sh.hists {
			if hists == nil {
				hists = map[string]*Histogram{}
			}
			hists[n] = h
		}
		for n, sr := range sh.series {
			if series == nil {
				series = map[string]*Series{}
			}
			series[n] = sr
		}
		sh.mu.RUnlock()
	}
	if len(counters) > 0 {
		s.Counters = make(map[string]uint64, len(counters))
		for n, c := range counters {
			s.Counters[n] = c.Value()
		}
	}
	if len(gauges)+len(fns) > 0 {
		s.Gauges = make(map[string]float64, len(gauges)+len(fns))
		for n, g := range gauges {
			s.Gauges[n] = g.Value()
		}
		for _, nf := range fns {
			s.Gauges[nf.name] = nf.fn()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for n, h := range hists {
			s.Histograms[n] = h.snapshot()
		}
	}
	if len(series) > 0 {
		s.Series = make(map[string][]Point, len(series))
		for n, sr := range series {
			s.Series[n] = sr.Points()
		}
	}
	return s
}

// Sub returns the delta snapshot s - base: counters and histograms subtract
// (saturating at zero, with histogram quantiles recomputed from the delta
// buckets); gauges and series keep their current values, since neither is
// cumulative. Names present only in base are dropped.
func (s Snapshot) Sub(base Snapshot) Snapshot {
	d := Snapshot{Gauges: s.Gauges, Series: s.Series}
	if len(s.Counters) > 0 {
		d.Counters = make(map[string]uint64, len(s.Counters))
		for n, v := range s.Counters {
			d.Counters[n] = satSub(v, base.Counters[n])
		}
	}
	if len(s.Histograms) > 0 {
		d.Histograms = make(map[string]HistogramSnapshot, len(s.Histograms))
		for n, h := range s.Histograms {
			d.Histograms[n] = h.Sub(base.Histograms[n])
		}
	}
	return d
}

// Add returns the histogram sum s + other: bucket-wise addition with the
// derived fields recomputed — the inverse of Sub, used to merge child
// registries into an aggregate.
func (s HistogramSnapshot) Add(other HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{
		N:   s.N + other.N,
		Sum: s.Sum + other.Sum,
	}
	for _, src := range []map[int]uint64{s.Buckets, other.Buckets} {
		for b, c := range src {
			if c != 0 {
				if d.Buckets == nil {
					d.Buckets = map[int]uint64{}
				}
				d.Buckets[b] += c
			}
		}
	}
	if d.N > 0 {
		d.Mean = float64(d.Sum) / float64(d.N)
		d.P50 = bucketQuantile(d.Buckets, d.N, 0.5)
		d.P90 = bucketQuantile(d.Buckets, d.N, 0.9)
		d.P99 = bucketQuantile(d.Buckets, d.N, 0.99)
	}
	return d
}

// Merge returns the union snapshot s + other: counters and histograms add,
// gauges and series take other's value when present (last writer wins, like
// the live instruments). Neither input is modified. Merge is how a server
// folds completed per-job child registries into one cumulative view.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	var d Snapshot
	if len(s.Counters)+len(other.Counters) > 0 {
		d.Counters = make(map[string]uint64, len(s.Counters)+len(other.Counters))
		for n, v := range s.Counters {
			d.Counters[n] = v
		}
		for n, v := range other.Counters {
			d.Counters[n] += v
		}
	}
	if len(s.Gauges)+len(other.Gauges) > 0 {
		d.Gauges = make(map[string]float64, len(s.Gauges)+len(other.Gauges))
		for n, v := range s.Gauges {
			d.Gauges[n] = v
		}
		for n, v := range other.Gauges {
			d.Gauges[n] = v
		}
	}
	if len(s.Histograms)+len(other.Histograms) > 0 {
		d.Histograms = make(map[string]HistogramSnapshot, len(s.Histograms)+len(other.Histograms))
		for n, h := range s.Histograms {
			d.Histograms[n] = h
		}
		for n, h := range other.Histograms {
			d.Histograms[n] = d.Histograms[n].Add(h)
		}
	}
	if len(s.Series)+len(other.Series) > 0 {
		d.Series = make(map[string][]Point, len(s.Series)+len(other.Series))
		for n, pts := range s.Series {
			d.Series[n] = pts
		}
		for n, pts := range other.Series {
			d.Series[n] = pts
		}
	}
	return d
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText writes the snapshot as a sorted human-readable listing.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, n := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "counter   %-40s %d\n", n, s.Counters[n]); err != nil {
			return err
		}
	}
	for _, n := range sortedKeys(s.Gauges) {
		v := s.Gauges[n]
		if math.Abs(v) < 1000 && v == math.Trunc(v) {
			if _, err := fmt.Fprintf(w, "gauge     %-40s %g\n", n, v); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "gauge     %-40s %.4f\n", n, v); err != nil {
			return err
		}
	}
	for _, n := range sortedKeys(s.Histograms) {
		h := s.Histograms[n]
		if _, err := fmt.Fprintf(w, "histogram %-40s n=%d mean=%.2f p50<=%d p90<=%d p99<=%d\n",
			n, h.N, h.Mean, h.P50, h.P90, h.P99); err != nil {
			return err
		}
	}
	for _, n := range sortedKeys(s.Series) {
		pts := s.Series[n]
		if _, err := fmt.Fprintf(w, "series    %-40s %d points", n, len(pts)); err != nil {
			return err
		}
		if len(pts) > 0 {
			last := pts[len(pts)-1]
			if _, err := fmt.Fprintf(w, " (last x=%.0f y=%.4f)", last.X, last.Y); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
