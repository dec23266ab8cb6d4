package store

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// DiskBackend is the durable Backend: a directory holding
//
//	<dir>/ledger.ndjson            the append-only record chain, one JSON line each
//	<dir>/artifacts/<dd>/<digest>  content-addressed artifacts, sharded by digest prefix
//
// Artifacts are written via temp-file + fsync + rename, so a crash never
// leaves a partial artifact under its final name. Ledger appends go to one
// file held open in append mode and fsynced per flush. On open, a torn tail
// line (a crash mid-append) is truncated away — the records it would have
// held were never acknowledged as flushed.
type DiskBackend struct {
	dir string

	mu     sync.Mutex
	ledger *os.File
}

// ledgerName is the ledger file's name inside the store directory.
const ledgerName = "ledger.ndjson"

// OpenDisk opens (creating if needed) a disk backend rooted at dir and
// self-heals a torn ledger tail.
func OpenDisk(dir string) (*DiskBackend, error) {
	if err := os.MkdirAll(filepath.Join(dir, "artifacts"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, ledgerName)
	if err := truncateTornTail(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &DiskBackend{dir: dir, ledger: f}, nil
}

// Dir returns the backend's root directory.
func (d *DiskBackend) Dir() string { return d.dir }

// truncateTornTail cuts an existing ledger file back to its last complete
// ('\n'-terminated) line, reading backwards from the end only as far as that
// line. A missing file is fine.
func truncateTornTail(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if fi.Size() == 0 {
		return nil
	}
	buf := make([]byte, 4096)
	cut := int64(0) // stays 0 when no newline at all
	for end := fi.Size(); end > 0; {
		n := min(int64(len(buf)), end)
		if _, err := f.ReadAt(buf[:n], end-n); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if end == fi.Size() && buf[n-1] == '\n' {
			return nil
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			cut = end - n + int64(i) + 1
			break
		}
		end -= n
	}
	if err := os.Truncate(path, cut); err != nil {
		return fmt.Errorf("store: truncating torn ledger tail: %w", err)
	}
	return nil
}

// artifactPath shards artifacts by the first two digest hex digits.
func (d *DiskBackend) artifactPath(digest string) string {
	shard := "xx"
	if len(digest) >= 2 {
		shard = digest[:2]
	}
	return filepath.Join(d.dir, "artifacts", shard, digest)
}

// PutArtifact implements Backend: write-once via temp file, fsync, rename.
func (d *DiskBackend) PutArtifact(digest string, data []byte) error {
	path := d.artifactPath(digest)
	if _, err := os.Stat(path); err == nil {
		return nil // content-addressed: already present means already identical
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+digest+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// GetArtifact implements Backend.
func (d *DiskBackend) GetArtifact(digest string) ([]byte, error) {
	data, err := os.ReadFile(d.artifactPath(digest))
	if err != nil {
		return nil, fmt.Errorf("store: no artifact %s: %w", digest, err)
	}
	return data, nil
}

// ListArtifacts implements Backend.
func (d *DiskBackend) ListArtifacts() ([]string, error) {
	var out []string
	root := filepath.Join(d.dir, "artifacts")
	err := filepath.WalkDir(root, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !de.IsDir() && !strings.HasPrefix(de.Name(), ".") {
			out = append(out, de.Name())
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(out)
	return out, nil
}

// AppendLedger implements Backend: one write per line, one fsync per call.
func (d *DiskBackend) AppendLedger(lines [][]byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, ln := range lines {
		if _, err := d.ledger.Write(append(ln, '\n')); err != nil {
			return fmt.Errorf("store: ledger append: %w", err)
		}
	}
	if err := d.ledger.Sync(); err != nil {
		return fmt.Errorf("store: ledger fsync: %w", err)
	}
	return nil
}

// ScanLedger implements Backend with one buffered pass over the ledger file,
// ignoring a torn unterminated tail (which OpenDisk would truncate on the
// next open).
func (d *DiskBackend) ScanLedger(fn func(line []byte) error) error {
	f, err := os.Open(filepath.Join(d.dir, ledgerName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	var long []byte // a line longer than r's buffer, assembled across reads
	for {
		chunk, err := r.ReadSlice('\n')
		switch {
		case err == nil:
			line := chunk[:len(chunk)-1]
			if len(long) > 0 {
				long = append(long, line...)
				line = long
			}
			if err := fn(line); err != nil {
				return err
			}
			long = long[:0]
		case errors.Is(err, bufio.ErrBufferFull):
			long = append(long, chunk...)
		case errors.Is(err, io.EOF):
			return nil // torn tail: never acknowledged, not part of the ledger
		default:
			return fmt.Errorf("store: %w", err)
		}
	}
}

// Close implements Backend.
func (d *DiskBackend) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ledger.Close()
}
