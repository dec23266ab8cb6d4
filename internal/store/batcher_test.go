package store

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// countingBackend wraps MemBackend counting AppendLedger calls, to observe
// flush batching.
type countingBackend struct {
	*MemBackend
	mu      sync.Mutex
	appends int
}

// AppendLedger implements Backend, counting calls.
func (c *countingBackend) AppendLedger(lines [][]byte) error {
	c.mu.Lock()
	c.appends++
	c.mu.Unlock()
	return c.MemBackend.AppendLedger(lines)
}

// ledgerLines counts the lines of b's ledger.
func ledgerLines(t *testing.T, b Backend) int {
	t.Helper()
	n := 0
	if err := b.ScanLedger(func([]byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestBatcherFlushOnCount: FlushEvery ops reach the backend without an
// explicit Flush, in one coalesced append.
func TestBatcherFlushOnCount(t *testing.T) {
	cb := &countingBackend{MemBackend: NewMem()}
	s, err := Open(cb, Options{FlushEvery: 4, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4; i++ {
		if _, err := s.Append(RunRecord{Kind: KindJob, JobID: fmt.Sprint("job-", i+1)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := ledgerLines(t, cb)
		if n == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("count-triggered flush never happened: %d lines durable", n)
		}
		time.Sleep(time.Millisecond)
	}
	cb.mu.Lock()
	appends := cb.appends
	cb.mu.Unlock()
	if appends != 1 {
		t.Fatalf("4 records flushed in %d appends, want 1 coalesced batch", appends)
	}
}

// TestBatcherFlushOnInterval: with a tiny interval, a single record becomes
// durable without reaching FlushEvery.
func TestBatcherFlushOnInterval(t *testing.T) {
	cb := &countingBackend{MemBackend: NewMem()}
	s, err := Open(cb, Options{FlushEvery: 1 << 20, FlushInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append(RunRecord{Kind: KindJob, JobID: "job-1"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ledgerLines(t, cb) == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("interval-triggered flush never happened")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatcherDrainLosesNothing: every record accepted before Close is
// durable after it, across both backends and with the flush count far below
// the record count.
func TestBatcherDrainLosesNothing(t *testing.T) {
	backends(t, func(t *testing.T, open func(t *testing.T) Backend) {
		b := open(t)
		s, err := Open(b, Options{FlushEvery: 1 << 20, FlushInterval: time.Hour, QueueDepth: 64})
		if err != nil {
			t.Fatal(err)
		}
		const n = 500
		for i := 0; i < n; i++ {
			dig, err := s.PutArtifact(payload{Name: fmt.Sprint("r", i)})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Append(RunRecord{Kind: KindJob, JobID: fmt.Sprint("job-", i+1), ResultDigest: dig}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := ledgerLines(t, b); got != n {
			t.Fatalf("drain lost records: %d durable, want %d", got, n)
		}
		if rep, err := VerifyChain(b); err != nil || rep.Records != n || rep.ArtifactsChecked != n {
			t.Fatalf("post-drain chain: %+v %v", rep, err)
		}
	})
}

// TestFlushBarrier: Flush returns only after previously appended records are
// readable through the backend.
func TestFlushBarrier(t *testing.T) {
	cb := &countingBackend{MemBackend: NewMem()}
	s, err := Open(cb, Options{FlushEvery: 1 << 20, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		if _, err := s.Append(RunRecord{Kind: KindJob, JobID: fmt.Sprint("job-", i+1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := ledgerLines(t, cb); n != 3 {
		t.Fatalf("flush returned with %d/3 records durable", n)
	}
	if st := s.Stats(); st.Pending != 0 {
		t.Fatalf("pending %d after flush", st.Pending)
	}
}
