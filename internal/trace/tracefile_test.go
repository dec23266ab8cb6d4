package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"secdir/internal/addr"
)

func TestTraceRoundTrip(t *testing.T) {
	g, err := NewSpecApp("bzip2", 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	const n = 5000
	if err := WriteTrace(&buf, g, n); err != nil {
		t.Fatal(err)
	}

	got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("len = %d, want %d", len(got), n)
	}
	// The same seeded generator must produce exactly the recorded stream.
	g2, _ := NewSpecApp("bzip2", 0, 42)
	for i, a := range got {
		want := g2.Next()
		if a.Line != want.Line || a.Write != want.Write || a.Gap != want.Gap {
			t.Fatalf("record %d = %+v, want %+v", i, a, want)
		}
	}
}

func TestTraceWriteFlag(t *testing.T) {
	src := []Access{
		{Line: addr.Line(1<<34 - 1), Write: true, Gap: 7},
		{Line: 0, Write: false, Gap: 0},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, NewFixed(src), uint64(len(src))); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], src[i])
		}
	}
}

func TestTraceGapClamping(t *testing.T) {
	src := []Access{{Line: 5, Gap: 1 << 20}, {Line: 6, Gap: -3}}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, NewFixed(src), 2); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Gap != 0xFFFF || got[1].Gap != 0 {
		t.Fatalf("gaps = %d,%d; want clamped 65535,0", got[0].Gap, got[1].Gap)
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("XXXX\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"), // bad magic
		[]byte("SDTR\x09\x00\x00\x00\x00\x00\x00\x00\x00\x00"), // bad version
		// valid header claiming 2 records but truncated body:
		append([]byte("SDTR\x01\x00"), []byte{2, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3}...),
	}
	for i, raw := range cases {
		if _, err := ReadTrace(bytes.NewReader(raw)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("case %d: err = %v, want ErrBadTrace", i, err)
		}
	}
}

func TestReplayLoops(t *testing.T) {
	g, err := NewReplay([]Access{{Line: 1}, {Line: 2}})
	if err != nil {
		t.Fatal(err)
	}
	want := []addr.Line{1, 2, 1, 2, 1}
	for i, w := range want {
		if got := g.Next().Line; got != w {
			t.Fatalf("replay[%d] = %d, want %d", i, got, w)
		}
	}
	if _, err := NewReplay(nil); err == nil {
		t.Fatal("empty replay accepted")
	}
}

// TestParseTraceMatchesReadTrace: the zero-copy view must decode exactly the
// records ReadTrace materialises, in order, and the Replay generator must
// loop like NewReplay.
func TestParseTraceMatchesReadTrace(t *testing.T) {
	g, err := NewSpecApp("omnetpp", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	const n = 10_123
	if err := WriteTrace(&buf, g, n); err != nil {
		t.Fatal(err)
	}
	want, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	mt, err := ParseTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if mt.Len() != n {
		t.Fatalf("Len = %d, want %d", mt.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if got := mt.At(i); got != want[i] {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, want[i])
		}
	}
	rep, err := mt.Replay()
	if err != nil {
		t.Fatal(err)
	}
	// First pass plus half a loop: indices past n must wrap to i%n.
	for i := 0; i < n+n/2; i++ {
		if got := rep.Next(); got != want[i%n] {
			t.Fatalf("record %d = %+v, want %+v", i, got, want[i%n])
		}
	}
	if err := mt.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
}

// TestParseTraceErrors: malformed images fail at parse with ErrBadTrace —
// never mid-replay — in exactly the cases ReadTrace rejects.
func TestParseTraceErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("SDTR\x01\x00"), // short header
		[]byte("XXXX\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"),                         // bad magic
		[]byte("SDTR\x09\x00\x00\x00\x00\x00\x00\x00\x00\x00"),                         // bad version
		append([]byte("SDTR\x01\x00"), 2, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3),                // truncated body
		append([]byte("SDTR\x01\x00"), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF), // absurd count
	}
	for i, raw := range cases {
		if _, err := ParseTrace(raw); !errors.Is(err, ErrBadTrace) {
			t.Errorf("case %d: ParseTrace err = %v, want ErrBadTrace", i, err)
		}
		// Same verdict as the legacy streaming reader.
		if _, err := ReadTrace(bytes.NewReader(raw)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("case %d: ReadTrace err = %v, want ErrBadTrace", i, err)
		}
	}
}

// TestParseTraceEmpty: a zero-record trace parses (matching ReadTrace) but
// cannot be replayed, and trailing bytes past the declared records are
// ignored by both readers.
func TestParseTraceEmpty(t *testing.T) {
	empty := []byte("SDTR\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00")
	mt, err := ParseTrace(empty)
	if err != nil {
		t.Fatalf("ParseTrace(empty) = %v", err)
	}
	if mt.Len() != 0 {
		t.Fatalf("Len = %d, want 0", mt.Len())
	}
	if _, err := mt.Replay(); err == nil {
		t.Fatal("Replay of empty trace accepted")
	}
	if _, err := ReadTrace(bytes.NewReader(empty)); err != nil {
		t.Fatalf("ReadTrace(empty) = %v", err)
	}

	// One record plus trailing junk: both readers decode exactly one record.
	var buf bytes.Buffer
	if err := WriteTrace(&buf, NewFixed([]Access{{Line: 42, Gap: 1}}), 1); err != nil {
		t.Fatal(err)
	}
	raw := append(buf.Bytes(), 0xDE, 0xAD)
	mt, err = ParseTrace(raw)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Len() != 1 || mt.At(0).Line != 42 {
		t.Fatalf("trailing-junk decode = len %d, At(0) %+v", mt.Len(), mt.At(0))
	}
	if got, err := ReadTrace(bytes.NewReader(raw)); err != nil || len(got) != 1 {
		t.Fatalf("ReadTrace with trailing junk = %v, %v", got, err)
	}
}

// TestOpenMappedTrace: the file-backed path must behave like ParseTrace over
// the file's bytes, and Close must be idempotent.
func TestOpenMappedTrace(t *testing.T) {
	g, err := NewSpecApp("gobmk", 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	const n = 2048
	if err := WriteTrace(&buf, g, n); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "replay.sdtr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	mt, err := OpenMappedTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Len() != n {
		t.Fatalf("Len = %d, want %d", mt.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if got := mt.At(i); got != want[i] {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, want[i])
		}
	}
	if err := mt.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if err := mt.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}

	// Corrupt files fail at open; missing files surface the OS error.
	if err := os.WriteFile(path, []byte("XXXX"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMappedTrace(path); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("corrupt open err = %v, want ErrBadTrace", err)
	}
	if _, err := OpenMappedTrace(filepath.Join(t.TempDir(), "missing.sdtr")); err == nil {
		t.Fatal("missing file accepted")
	}
}
