// Package store is the durable, tamper-evident experiment store: every
// result a secdir process publishes can be written through it and later
// verified against the exact spec, seed, engine options, and binary that
// produced it.
//
// Three layers compose the store:
//
//   - A Backend (MemBackend, DiskBackend) with write-once artifact Puts and
//     append-only ledger semantics — the only interface a new storage medium
//     has to implement.
//   - A content-addressed artifact store: result payloads are serialised to
//     canonical JSON, named by the SHA-256 of those bytes, and written at
//     most once; records reference artifacts by digest only.
//   - A hash-chained append-only run ledger: each RunRecord carries the hash
//     of its predecessor, so flipping any byte of any historical record (or
//     any artifact a record references) makes VerifyChain fail and name the
//     offending record.
//
// Appends go through an asynchronous batcher — a bounded channel drained by
// one writer goroutine that flushes on count, interval, or drain — so job
// hot paths never block on I/O. Chain order and hashes are fixed
// synchronously at Append time; only the write is deferred. Flush (and
// Close) block until everything previously appended is durable, and the
// DiskBackend fsyncs on every flush, so a crash loses at most the records
// appended since the last flush interval — never a record the caller has
// Flushed. Durable reports how far the flushes have got without waiting
// for one. Every reader of the ledger streams it through Backend.ScanLedger
// (ScanRecords decodes), so only Records, which returns every record, holds
// more than one record at a time.
package store

import (
	"fmt"
	"sync"
	"time"
)

// Options tunes a Store. The zero value is ready to use.
type Options struct {
	// FlushEvery flushes the batcher once this many operations are pending
	// (default 64).
	FlushEvery int
	// FlushInterval flushes the batcher at least this often while work is
	// pending (default 200ms).
	FlushInterval time.Duration
	// QueueDepth bounds the batcher channel (default 1024). An Append past
	// the bound blocks until the writer catches up — backpressure, never
	// loss.
	QueueDepth int
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.FlushEvery <= 0 {
		o.FlushEvery = 64
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 200 * time.Millisecond
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	return o
}

// Stats is a point-in-time snapshot of a store's accounting, the /storez
// payload's core.
type Stats struct {
	// Records is the number of ledger records appended (including those
	// replayed from the backend at Open).
	Records int64 `json:"records"`
	// Flushes counts batcher flushes.
	Flushes int64 `json:"flushes"`
	// Pending is the number of operations accepted but not yet durable.
	Pending int64 `json:"pending"`
	// HeadIndex and HeadHash identify the chain head (-1/"" when empty).
	HeadIndex int64 `json:"head_index"`
	// HeadHash is the chain head record's hash.
	HeadHash string `json:"head_hash"`
}

// Store couples a Backend with the hash chain and the async batcher. Create
// one with Open; it is safe for concurrent use.
type Store struct {
	b    Backend
	opts Options

	mu        sync.Mutex
	headIndex int64  // index of the last appended record (-1 when empty)
	headHash  string // hash of the last appended record ("" when empty)
	records   int64
	closed    bool

	bat *batcher
}

// Open replays the backend's ledger to recover the chain head and returns a
// store appending after it. The replay streams the ledger and decodes only
// the tail record — full verification is VerifyChain's job — but it does
// fail on a ledger whose last record does not parse, since appending after
// an unparseable head would chain onto garbage.
func Open(b Backend, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	var tail []byte
	n := 0
	err := b.ScanLedger(func(line []byte) error {
		tail = append(tail[:0], line...)
		n++
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s := &Store{
		b:         b,
		opts:      opts,
		headIndex: -1,
	}
	if n > 0 {
		rec, err := DecodeRecord(tail)
		if err != nil {
			return nil, fmt.Errorf("store: open: ledger tail (record %d) does not parse: %w", n-1, err)
		}
		s.headIndex = rec.Index
		s.headHash = rec.Hash
		s.records = int64(n)
	}
	// Everything replayed is already on the backend: durable.
	s.bat = newBatcher(b, opts, s.headIndex)
	return s, nil
}

// Backend returns the store's backend — VerifyChain and the read-side
// helpers operate on it directly.
func (s *Store) Backend() Backend { return s.b }

// PutArtifact canonical-JSON-encodes v, stores the bytes content-addressed,
// and returns their digest. Identical payloads share one artifact; the write
// itself is batched and becomes durable at the next flush.
func (s *Store) PutArtifact(v any) (string, error) {
	data, err := CanonicalJSON(v)
	if err != nil {
		return "", fmt.Errorf("store: artifact encode: %w", err)
	}
	return s.PutRawArtifact(data)
}

// PutRawArtifact stores raw bytes content-addressed and returns their
// digest. Use it for non-JSON payloads (golden CSVs); PutArtifact is the
// canonical-JSON path. The store keeps nothing per digest: a re-Put of
// identical content reaches the backend, whose write-once PutArtifact
// leaves the stored copy as it is.
func (s *Store) PutRawArtifact(data []byte) (string, error) {
	digest := Digest(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", errClosed
	}
	// Enqueued under the store lock so a concurrent Close (which flips
	// closed under the same lock before draining) can never strand an
	// accepted op. The batcher writes an artifact enqueued before the
	// record referencing it no later than that record.
	s.bat.enqueue(op{artifactDigest: digest, artifactData: data})
	return digest, nil
}

// Artifact returns the content of one artifact by digest. It flushes first
// so a just-Put artifact is readable.
func (s *Store) Artifact(digest string) ([]byte, error) {
	if err := s.Flush(); err != nil {
		return nil, err
	}
	return s.b.GetArtifact(digest)
}

// Append links rec onto the chain and queues it for durable write, returning
// the completed record. The store fills Index, PrevHash, Hash, and — when
// unset — Time and Build; everything else is the caller's. Chain position is
// assigned synchronously (concurrent Appends serialise under the store
// lock), so records are totally ordered even though the write is batched.
func (s *Store) Append(rec RunRecord) (RunRecord, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return RunRecord{}, errClosed
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now().UTC()
	}
	if rec.Build == (BuildInfo{}) {
		rec.Build = Build()
	}
	rec.Index = s.headIndex + 1
	rec.PrevHash = s.headHash
	rec.Hash = ""
	line, err := sealRecord(&rec)
	if err != nil {
		s.mu.Unlock()
		return RunRecord{}, fmt.Errorf("store: append: %w", err)
	}
	s.headIndex = rec.Index
	s.headHash = rec.Hash
	s.records++
	s.bat.enqueue(op{line: line, index: rec.Index}) // under the lock: see PutRawArtifact
	s.mu.Unlock()
	return rec, nil
}

// Records reads the full ledger back as parsed records, flushing first so
// every accepted Append is included.
func (s *Store) Records() ([]RunRecord, error) {
	if err := s.Flush(); err != nil {
		return nil, err
	}
	var out []RunRecord
	err := ScanRecords(s.b, func(rec RunRecord) error {
		out = append(out, rec)
		return nil
	})
	return out, err
}

// ScanRecords decodes b's ledger in chain order and calls fn with each
// record. It stops at the first line DecodeRecord refuses, with an error
// naming the record, or at the first error fn returns, which it passes
// through. Like ScanLedger it holds one record at a time, so callers that
// fold the ledger into a summary run in memory independent of its length.
func ScanRecords(b Backend, fn func(RunRecord) error) error {
	i := 0
	return b.ScanLedger(func(line []byte) error {
		rec, err := DecodeRecord(line)
		if err != nil {
			return fmt.Errorf("store: record %d does not parse (tampered or corrupted): %w", i, err)
		}
		i++
		return fn(rec)
	})
}

// Durable returns the durable watermark: the index of the newest record
// whose flush succeeded, or -1 while there is none. Every record at or
// below it, and every artifact those records reference, is on the backend.
// After the first flush error the watermark stops advancing, so it never
// covers a record that may have been lost.
func (s *Store) Durable() int64 { return s.bat.durable.Load() }

// Stats snapshots the store's accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Records:   s.records,
		HeadIndex: s.headIndex,
		HeadHash:  s.headHash,
	}
	s.mu.Unlock()
	st.Flushes, st.Pending = s.bat.stats()
	return st
}

// Flush blocks until every previously accepted Append and PutArtifact is
// durable on the backend.
func (s *Store) Flush() error { return s.bat.flush() }

// Close flushes, stops the batcher, and closes the backend. The store
// rejects writes afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.bat.close()
	if cerr := s.b.Close(); err == nil {
		err = cerr
	}
	return err
}

// errClosed is returned by writes on a closed store.
var errClosed = fmt.Errorf("store: closed")
