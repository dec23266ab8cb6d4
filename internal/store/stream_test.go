package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// liveHeap returns the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapSampler wraps a Backend and samples the live heap every few ledger
// lines while a scan runs, after the scan's callback has handled the line —
// so whatever the reader retains of the lines so far is counted.
type heapSampler struct {
	Backend
	every int
	peak  uint64
}

// ScanLedger implements Backend, sampling.
func (h *heapSampler) ScanLedger(fn func(line []byte) error) error {
	n := 0
	return h.Backend.ScanLedger(func(line []byte) error {
		if err := fn(line); err != nil {
			return err
		}
		if n++; n%h.every == 0 {
			h.peak = max(h.peak, liveHeap())
		}
		return nil
	})
}

// writeLedger fills a disk store in dir with n job records of about 700
// bytes each, all referencing one artifact.
func writeLedger(t *testing.T, dir string, n int) {
	t.Helper()
	b, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(b, Options{FlushEvery: 512})
	if err != nil {
		t.Fatal(err)
	}
	dig, err := s.PutArtifact(payload{Name: "shared"})
	if err != nil {
		t.Fatal(err)
	}
	spec := []byte(fmt.Sprintf(`{"kind":"leak","configs":["skylake-unfixed","secdir"],"pad":%q}`, strings.Repeat("s", 200)))
	for i := 0; i < n; i++ {
		if _, err := s.Append(RunRecord{Kind: KindJob, JobID: fmt.Sprint("job-", i+1), State: "done",
			Spec: spec, ResultDigest: dig}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// verifyPeak verifies the ledger in dir and returns how far the live heap
// rose above its pre-verify level while VerifyChain ran.
func verifyPeak(t *testing.T, dir string, records int) uint64 {
	t.Helper()
	b, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	h := &heapSampler{Backend: b, every: 100}
	base := liveHeap()
	rep, err := VerifyChain(h)
	if err != nil || rep.Records != records {
		t.Fatalf("verify: %+v %v", rep, err)
	}
	if h.peak < base {
		return 0
	}
	return h.peak - base
}

// TestVerifyChainMemoryFlat: VerifyChain streams the ledger, so a ledger
// four times longer does not raise its peak live heap by more than a fixed
// slack. A reader that loads the whole ledger grows by megabytes here.
func TestVerifyChainMemoryFlat(t *testing.T) {
	const n, slack = 1000, 256 << 10
	small, large := t.TempDir(), t.TempDir()
	writeLedger(t, small, n)
	writeLedger(t, large, 4*n)
	ps, pl := verifyPeak(t, small, n), verifyPeak(t, large, 4*n)
	t.Logf("VerifyChain peak live heap above baseline: %d B at %d records, %d B at %d", ps, n, pl, 4*n)
	if pl > ps+slack {
		t.Errorf("growing the ledger 4x grew VerifyChain's peak live heap from %d to %d B (slack %d)", ps, pl, slack)
	}
}

// TestScanLedgerLongLinesAndTornTail: the disk scan reassembles lines longer
// than its read buffer byte for byte, and skips an unterminated tail of any
// length; OpenDisk truncates that tail even when it spans several of the
// blocks it reads backwards.
func TestScanLedgerLongLinesAndTornTail(t *testing.T) {
	dir := t.TempDir()
	lines := [][]byte{
		[]byte("short"),
		bytes.Repeat([]byte("L"), 200<<10),
		[]byte(""),
		[]byte("after"),
	}
	var file []byte
	for _, ln := range lines {
		file = append(append(file, ln...), '\n')
	}
	complete := len(file)
	file = append(file, bytes.Repeat([]byte("T"), 10<<10)...) // torn tail
	path := filepath.Join(dir, ledgerName)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	d := &DiskBackend{dir: dir}
	scan := func() [][]byte {
		var got [][]byte
		if err := d.ScanLedger(func(line []byte) error {
			got = append(got, append([]byte(nil), line...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	check := func(when string, got [][]byte) {
		if len(got) != len(lines) {
			t.Fatalf("%s: scanned %d lines, want %d", when, len(got), len(lines))
		}
		for i := range lines {
			if !bytes.Equal(got[i], lines[i]) {
				t.Fatalf("%s: line %d is %d bytes, want %d", when, i, len(got[i]), len(lines[i]))
			}
		}
	}
	check("before repair", scan())

	b, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(complete) {
		t.Fatalf("OpenDisk left %v bytes (%v), want the %d bytes of complete lines", fi.Size(), err, complete)
	}
	check("after repair", scan())

	stop := errors.New("stop")
	n := 0
	if err := b.ScanLedger(func([]byte) error { n++; return stop }); err != stop || n != 1 {
		t.Fatalf("ScanLedger returned %v after %d lines, want the callback's error after 1", err, n)
	}
}

// TestDurableWatermark: the watermark starts at the replayed head, moves to
// the newest flushed record, and stops at the first failed flush.
func TestDurableWatermark(t *testing.T) {
	b := &flakyBackend{MemBackend: NewMem()}
	s, err := Open(b, Options{FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Durable(); got != -1 {
		t.Fatalf("empty store durable at %d, want -1", got)
	}
	fillStore(t, s, 3)
	if got := s.Durable(); got != 2 {
		t.Fatalf("after flushing records 0..2, durable at %d, want 2", got)
	}
	if _, err := s.Append(RunRecord{Kind: KindJob, JobID: "job-4"}); err != nil {
		t.Fatal(err)
	}
	if got := s.Durable(); got != 2 {
		t.Fatalf("an unflushed record moved durable to %d", got)
	}
	b.fail = true
	if err := s.Flush(); err == nil {
		t.Fatal("flush over a failing backend succeeded")
	}
	b.fail = false
	if _, err := s.Append(RunRecord{Kind: KindJob, JobID: "job-5"}); err != nil {
		t.Fatal(err)
	}
	_ = s.Flush()
	if got := s.Durable(); got != 2 {
		t.Fatalf("durable moved to %d after a failed flush, want it held at 2", got)
	}
	_ = s.Close()

	s2, err := Open(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, head := s2.Durable(), s2.Stats().HeadIndex; got != head {
		t.Fatalf("reopened store durable at %d, want its head %d", got, head)
	}
}

// flakyBackend is a MemBackend whose ledger appends fail while fail is set.
// Only the batcher goroutine appends, and the test flips fail between
// Flush barriers.
type flakyBackend struct {
	*MemBackend
	fail bool
}

// AppendLedger implements Backend.
func (f *flakyBackend) AppendLedger(lines [][]byte) error {
	if f.fail {
		return errors.New("ledger append: no space left on device")
	}
	return f.MemBackend.AppendLedger(lines)
}

// discardArtifacts is a MemBackend that drops every artifact, so the heap a
// test measures is the store's own.
type discardArtifacts struct{ *MemBackend }

// PutArtifact implements Backend, keeping nothing.
func (discardArtifacts) PutArtifact(string, []byte) error { return nil }

// TestStoreRetainsNoPerArtifactState: a store that has put 10 000 distinct
// artifacts and flushed them holds nothing per digest, so its memory does
// not grow with the number of distinct results it has written. Dedup is the
// backends' job: both PutArtifacts are write-once.
func TestStoreRetainsNoPerArtifactState(t *testing.T) {
	s, err := Open(discardArtifacts{NewMem()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	put := func(from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			if _, err := s.PutArtifact(payload{Name: fmt.Sprint("artifact-", i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	put(0, 100) // the batcher's buffers reach their steady size
	h0 := liveHeap()
	const n = 10_000
	put(100, n)
	h1 := liveHeap()
	perPut := (float64(h1) - float64(h0)) / n
	t.Logf("retained heap per distinct artifact: %.1f B", perPut)
	if perPut > 8 {
		t.Errorf("each distinct artifact put retains %.1f B of heap after Flush, want <= 8", perPut)
	}
}
