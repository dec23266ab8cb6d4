package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"
)

// Schema identifies the BENCH_*.json format version.
const Schema = "secdir-bench/v1"

// MicroResult is one microbenchmark's measurement.
type MicroResult struct {
	// Name matches the Case name ("EngineMixed", ...).
	Name string `json:"name"`
	// NsPerOp is wall-clock nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes allocated per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
}

// Report is the machine-readable benchmark artifact (BENCH_<date>.json).
type Report struct {
	// Schema is always the Schema constant.
	Schema string `json:"schema"`
	// Date of the run, YYYY-MM-DD.
	Date string `json:"date"`
	// GoVersion, GOOS and GOARCH describe the toolchain and platform.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Micro holds the microbenchmark results.
	Micro []MicroResult `json:"micro"`
	// Workloads holds the bounded experiment workload timings.
	Workloads []WorkloadResult `json:"workloads"`
}

// Collect runs every microbenchmark via testing.Benchmark plus the bounded
// workloads and assembles a Report stamped with the current date and
// toolchain.
func Collect() (*Report, error) {
	r := &Report{
		Schema:    Schema,
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	for _, c := range MicroCases() {
		res := testing.Benchmark(c.Bench)
		r.Micro = append(r.Micro, MicroResult{
			Name:        c.Name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
	}
	wl, err := RunWorkloads()
	if err != nil {
		return nil, err
	}
	r.Workloads = wl
	return r, nil
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a report and validates its schema.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("bench: %s: schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// FindBaseline returns the lexically newest BENCH_*.json in dir (the naming
// scheme embeds the date, so lexical order is chronological), or an error if
// none exists.
func FindBaseline(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("bench: no BENCH_*.json baseline in %s", dir)
	}
	sort.Strings(matches)
	return matches[len(matches)-1], nil
}

// Delta is one compared metric.
type Delta struct {
	// Name is "<benchmark or workload>/<metric>".
	Name string
	// Base and Cur are the baseline and current values.
	Base, Cur float64
	// Ratio is Cur/Base (1.0 = unchanged; +Inf when Base == 0 and Cur > 0).
	Ratio float64
	// Regressed reports whether Cur exceeds the tolerance over Base.
	Regressed bool
}

// String formats the delta for the text report.
func (d Delta) String() string {
	mark := "  "
	if d.Regressed {
		mark = "!!"
	}
	return fmt.Sprintf("%s %-40s %12.2f -> %12.2f  (%+.1f%%)", mark, d.Name, d.Base, d.Cur, (d.Ratio-1)*100)
}

// Compare evaluates cur against base with a relative tolerance (0.10 = 10%).
// Time metrics (ns/op, ns/access) regress when cur > base*(1+tol). The
// allocs/op metric is held to the hot-path invariant instead: any increase
// over the baseline count is a regression, and a zero baseline admits no
// allocations at all. Metrics present on only one side are skipped — a
// renamed benchmark should not fail the comparison.
func Compare(base, cur *Report, tol float64) []Delta {
	var out []Delta
	baseMicro := map[string]MicroResult{}
	for _, m := range base.Micro {
		baseMicro[m.Name] = m
	}
	for _, m := range cur.Micro {
		b, ok := baseMicro[m.Name]
		if !ok {
			continue
		}
		out = append(out,
			delta(m.Name+"/ns-op", b.NsPerOp, m.NsPerOp, func(bv, cv float64) bool {
				return cv > bv*(1+tol)
			}),
			delta(m.Name+"/allocs-op", float64(b.AllocsPerOp), float64(m.AllocsPerOp), func(bv, cv float64) bool {
				return cv > bv
			}),
		)
	}
	baseWL := map[string]WorkloadResult{}
	for _, w := range base.Workloads {
		baseWL[w.Name] = w
	}
	for _, w := range cur.Workloads {
		b, ok := baseWL[w.Name]
		if !ok {
			continue
		}
		out = append(out, delta(w.Name+"/ns-access", b.NsPerAccess, w.NsPerAccess, func(bv, cv float64) bool {
			return cv > bv*(1+tol)
		}))
	}
	return out
}

// delta builds one Delta with the given regression predicate.
func delta(name string, base, cur float64, regressed func(base, cur float64) bool) Delta {
	d := Delta{Name: name, Base: base, Cur: cur, Regressed: regressed(base, cur)}
	switch {
	case base != 0:
		d.Ratio = cur / base
	case cur == 0:
		d.Ratio = 1
	default:
		d.Ratio = cur / base // +Inf, flagged by the predicate where it matters
	}
	return d
}

// Regressions filters a comparison down to the regressed deltas.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}
