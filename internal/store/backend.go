package store

import (
	"fmt"
	"sort"
	"sync"
)

// Backend is the storage contract the store builds on: write-once
// content-addressed artifact Puts, and an append-only ledger of opaque
// lines. Implementations must be safe for concurrent use and must make
// AppendLedger durable before returning (the batcher calls it once per
// flush, so its cost amortises over the batch).
type Backend interface {
	// PutArtifact stores data under digest. Artifacts are write-once: a Put
	// of an existing digest is a no-op (content addressing guarantees the
	// bytes match; implementations need not re-verify).
	PutArtifact(digest string, data []byte) error
	// GetArtifact returns the stored bytes, or an error naming the digest
	// when absent.
	GetArtifact(digest string) ([]byte, error)
	// ListArtifacts returns every stored digest, sorted.
	ListArtifacts() ([]string, error)
	// AppendLedger appends the encoded record lines, in order, durably.
	AppendLedger(lines [][]byte) error
	// ScanLedger calls fn with every appended line, in order, and stops at
	// the first error fn returns, passing it through. The line is valid only
	// during the call and must not be modified; a caller that keeps it copies
	// it. Memory stays bounded by the longest line, not the ledger.
	ScanLedger(fn func(line []byte) error) error
	// Close releases the backend's resources.
	Close() error
}

// MemBackend is the in-memory Backend: maps and slices under a mutex. It is
// the test and ephemeral-server backend — nothing survives the process.
type MemBackend struct {
	mu        sync.Mutex
	artifacts map[string][]byte
	ledger    [][]byte
}

// NewMem returns an empty in-memory backend.
func NewMem() *MemBackend {
	return &MemBackend{artifacts: map[string][]byte{}}
}

// PutArtifact implements Backend.
func (m *MemBackend) PutArtifact(digest string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.artifacts[digest]; !ok {
		m.artifacts[digest] = append([]byte(nil), data...)
	}
	return nil
}

// GetArtifact implements Backend.
func (m *MemBackend) GetArtifact(digest string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.artifacts[digest]
	if !ok {
		return nil, fmt.Errorf("store: no artifact %s", digest)
	}
	return append([]byte(nil), data...), nil
}

// ListArtifacts implements Backend.
func (m *MemBackend) ListArtifacts() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.artifacts))
	for d := range m.artifacts {
		out = append(out, d)
	}
	sort.Strings(out)
	return out, nil
}

// AppendLedger implements Backend.
func (m *MemBackend) AppendLedger(lines [][]byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ln := range lines {
		m.ledger = append(m.ledger, append([]byte(nil), ln...))
	}
	return nil
}

// ScanLedger implements Backend over the lines appended before the call.
// Appended lines are never modified, so fn runs without the lock and may
// call back into the backend.
func (m *MemBackend) ScanLedger(fn func(line []byte) error) error {
	m.mu.Lock()
	ledger := m.ledger
	m.mu.Unlock()
	for _, ln := range ledger {
		if err := fn(ln); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Backend.
func (m *MemBackend) Close() error { return nil }
