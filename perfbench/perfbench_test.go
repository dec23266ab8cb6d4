package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// spinSink keeps spinForProfile's loop from being optimized away.
var spinSink uint64

// spinForProfile burns CPU for d so a CPU profile catches it.
func spinForProfile(d time.Duration) {
	h := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1<<16; i++ {
			h = h*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = h
}

// TestParseProfileOwnRecording records a CPU profile of a known busy
// function and checks the decoder finds that function in the sampled
// stacks, with CPU time attached, and that cpuShares accounts for every
// sample.
func TestParseProfileOwnRecording(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spinForProfile(400 * time.Millisecond)
	pprof.StopCPUProfile()
	gz := buf.Bytes()
	prof, err := parseProfile(gz)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.samples) == 0 {
		t.Fatal("decoded profile has no samples")
	}
	var spin, total int64
	for _, s := range prof.samples {
		total += s.value
		for _, fn := range prof.stack(s) {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spin += s.value
				break
			}
		}
	}
	if spin == 0 || total == 0 {
		t.Fatalf("spinForProfile not found in the samples (spin %d ns of %d ns)", spin, total)
	}
	if share := float64(spin) / float64(total); share < 0.5 {
		t.Errorf("spinForProfile holds %.2f of the sampled CPU time, want most of it", share)
	}
	shares, err := cpuShares(gz)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("layer shares sum to %v, want 1", sum)
	}
	if shares["other"] < 0.5 {
		t.Errorf("the test's own code should count as other, got %v", shares)
	}
}

// TestParseProfileRejectsGarbage checks malformed input is an error, not a
// panic.
func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("non-gzip input decoded without error")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x05, 0x01}) // a field claiming 5 bytes, holding 1
	zw.Close()
	if _, err := parseProfile(buf.Bytes()); err == nil {
		t.Error("truncated protobuf decoded without error")
	}
}

// TestAttribute checks samples go to the nearest repository layer on the
// stack, and otherwise to the runtime or other by their leaf.
func TestAttribute(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"secdir/internal/cachesim.(*Cache[go.shape.struct {}]).Access", "secdir/internal/coherence.(*Engine).Access"}, "cachesim"},
		{[]string{"secdir/internal/rng.(*Rand).Uint64", "secdir/internal/coherence.(*Engine).Reset"}, "coherence"},
		{[]string{"runtime.mallocgc", "secdir/internal/store.(*Store).Append"}, "store"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "main.main"}, "runtime"},
		{[]string{"net/http.(*conn).serve"}, "other"},
		{[]string{"secdir/internal/cachesim.(*Cache[go.shape.*secdir/internal/server.Job]).Put"}, "cachesim"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestSelfShares checks span self times subtract child spans, attribute
// the operation's own time to other, and skip spans recorded after the
// operations.
func TestSelfShares(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Job: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Job: 1, Name: "server.submit", Start: 10, End: 30},
		{ID: 3, Parent: 1, Job: 1, Name: "server.stream", Start: 30, End: 90},
		{ID: 4, Parent: 3, Job: 1, Name: "leakage.run", Start: 40, End: 80},
	}
	tr.endOps()
	tr.spans = append(tr.spans, span{ID: 5, Name: "coherence.replay", Start: 0, End: 1000})
	got := tr.selfShares()
	want := map[string]float64{"other": 0.2, "server": 0.4, "leakage": 0.4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfShares = %v, want %v", got, want)
	}
}

// benchmarkFile is the part of BENCHMARK.json the metric tables must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatches checks BENCHMARK.json names exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var fileNames []string
	for _, w := range bf.Workloads {
		fileNames = append(fileNames, w.Name)
	}
	if !reflect.DeepEqual(names, fileNames) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", names, fileNames)
	}

	e2e := endToEnd(&phase{lat: []time.Duration{time.Second}, accesses: 1, trials: 1}, 1, 1)
	got := map[string]string{}
	for _, m := range bf.EndToEnd {
		got[m.Name] = m.Unit
	}
	want := map[string]string{}
	for n, m := range e2e {
		want[n] = m.Unit
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end %v, program reports %v", got, want)
	}

	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, program reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if bf.PerLayer[i].Name != m.name || bf.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %s (%s), program reports %s (%s)", i, bf.PerLayer[i].Name, bf.PerLayer[i].Unit, m.name, m.unit)
		}
	}
}

// TestParseSteal checks the steal column is read from the aggregate cpu
// line in USER_HZ ticks, and that a missing column reads 0.
func TestParseSteal(t *testing.T) {
	stat := []byte("cpu  97894 0 7506 250090 235 0 807 5991 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n")
	if got, want := parseSteal(stat), 59910*time.Millisecond; got != want {
		t.Errorf("parseSteal = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "cpu 1 2 3\n", "intr 1 2 3 4 5 6 7 8 9\n", "cpu 1 2 3 4 5 6 7 x 9\n"} {
		if got := parseSteal([]byte(bad)); got != 0 {
			t.Errorf("parseSteal(%q) = %v, want 0", bad, got)
		}
	}
}
