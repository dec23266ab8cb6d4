package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fillStore appends n job records (each with a distinct artifact) and
// flushes.
func fillStore(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		dig, err := s.PutArtifact(payload{Name: fmt.Sprint("r", i), Score: float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append(RunRecord{Kind: KindJob, JobID: fmt.Sprint("job-", i+1), State: "done", ResultDigest: dig}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// diskStore opens a store over a fresh disk backend in dir.
func diskStore(t *testing.T, dir string) *Store {
	t.Helper()
	b, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestVerifyPinpointsCorruptedRecord: flipping one byte of one ledger line
// makes VerifyChain fail and name that record.
func TestVerifyPinpointsCorruptedRecord(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	fillStore(t, s, 6)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, ledgerName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != 6 {
		t.Fatalf("got %d ledger lines, want 6", len(lines))
	}
	// Flip one byte inside record 3's job_id value so the line still parses
	// but its hash no longer matches.
	target := bytes.Index(lines[3], []byte("job-4"))
	if target < 0 {
		t.Fatalf("record 3 does not mention its job id: %s", lines[3])
	}
	lines[3][target+4] = '9'
	corrupted := append(bytes.Join(lines, []byte("\n")), '\n')
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}

	b, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	_, err = VerifyChain(b)
	if err == nil {
		t.Fatal("corrupted ledger verified clean")
	}
	if !strings.Contains(err.Error(), "record 3") {
		t.Fatalf("verification error does not name record 3: %v", err)
	}
}

// TestVerifyRejectsUnhashedBytes: a ledger line verifies only if it is
// byte-identical to its record's canonical JSON, the bytes the chain hash
// covers. Edits that leave the decoded record unchanged — bytes appended
// after the value, re-spaced keys — must fail and name the record.
func TestVerifyRejectsUnhashedBytes(t *testing.T) {
	tampers := []struct {
		name string
		edit func(line []byte) []byte
	}{
		{"appended value", func(line []byte) []byte { return append(line, ` {"junk":1}`...) }},
		{"re-spaced key", func(line []byte) []byte { return bytes.Replace(line, []byte(`":`), []byte(`": `), 1) }},
	}
	for _, tc := range tampers {
		t.Run(tc.name, func(t *testing.T) {
			b := NewMem()
			s, err := Open(b, Options{})
			if err != nil {
				t.Fatal(err)
			}
			fillStore(t, s, 3)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			b.ledger[1] = tc.edit(bytes.Clone(b.ledger[1]))
			rep, err := VerifyChain(b)
			if err == nil {
				t.Fatalf("tampered ledger verified clean: %+v", rep)
			}
			if !strings.Contains(err.Error(), "record 1") {
				t.Fatalf("verification error does not name record 1: %v", err)
			}
		})
	}
}

// TestVerifyPinpointsTruncatedArtifact: truncating a persisted artifact
// makes VerifyChain fail naming the record that references it.
func TestVerifyPinpointsTruncatedArtifact(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	fillStore(t, s, 4)
	recs, err := s.Records()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	victim := recs[2].ResultDigest
	path := filepath.Join(dir, "artifacts", victim[:2], victim)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-1); err != nil {
		t.Fatal(err)
	}

	b, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	_, err = VerifyChain(b)
	if err == nil {
		t.Fatal("truncated artifact verified clean")
	}
	if !strings.Contains(err.Error(), "record 2") || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("verification error does not pinpoint the truncated artifact: %v", err)
	}

	// A deleted artifact is caught too, as a missing-artifact failure.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err = VerifyChain(b); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing artifact should fail verification: %v", err)
	}
}

// TestVerifyDetectsReorderAndDrop: removing a record from the middle breaks
// the index/linkage checks.
func TestVerifyDetectsReorderAndDrop(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	fillStore(t, s, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ledgerName)
	data, _ := os.ReadFile(path)
	lines := bytes.SplitAfter(data, []byte("\n"))
	// Drop record 2 (SplitAfter leaves a trailing empty slice).
	dropped := bytes.Join(append(lines[:2:2], lines[3:]...), nil)
	if err := os.WriteFile(path, dropped, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err = VerifyChain(b); err == nil {
		t.Fatal("ledger with a dropped record verified clean")
	}
}

// TestDoubleAppendRace: concurrent appends and artifact puts from many
// goroutines must serialise into one valid chain with no lost records —
// run under -race this also proves the locking discipline.
func TestDoubleAppendRace(t *testing.T) {
	backends(t, func(t *testing.T, open func(t *testing.T) Backend) {
		s, err := Open(open(t), Options{FlushEvery: 8})
		if err != nil {
			t.Fatal(err)
		}
		const goroutines, per = 8, 25
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					dig, err := s.PutArtifact(payload{Name: fmt.Sprint(g, "/", i)})
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := s.Append(RunRecord{Kind: KindJob, JobID: fmt.Sprintf("job-%d-%d", g, i), State: "done", ResultDigest: dig}); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		recs, err := s.Records()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != goroutines*per {
			t.Fatalf("got %d records, want %d", len(recs), goroutines*per)
		}
		seen := map[string]bool{}
		for _, r := range recs {
			if seen[r.JobID] {
				t.Fatalf("job %s recorded twice", r.JobID)
			}
			seen[r.JobID] = true
		}
		if _, err := VerifyChain(s.Backend()); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTornTailRepair: a crash mid-append leaves a partial final line; the
// next open truncates it away, the chain verifies, and appends continue
// from the last complete record.
func TestTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir)
	fillStore(t, s, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ledgerName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":3,"kind":"job","job_`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := diskStore(t, dir)
	defer s2.Close()
	if st := s2.Stats(); st.Records != 3 || st.HeadIndex != 2 {
		t.Fatalf("torn tail not repaired: %+v", st)
	}
	if _, err := s2.Append(RunRecord{Kind: KindJob, JobID: "job-4", State: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	if rep, err := VerifyChain(s2.Backend()); err != nil || rep.Records != 4 {
		t.Fatalf("repaired chain does not verify: %+v %v", rep, err)
	}
}
