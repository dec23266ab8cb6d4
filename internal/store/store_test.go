package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// backends runs a subtest against both backend implementations.
func backends(t *testing.T, f func(t *testing.T, open func(t *testing.T) Backend)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) {
		f(t, func(t *testing.T) Backend { return NewMem() })
	})
	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		f(t, func(t *testing.T) Backend {
			b, err := OpenDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			return b
		})
	})
}

// payload is a stand-in result body.
type payload struct {
	Name  string    `json:"name"`
	Score float64   `json:"score"`
	Rows  []float64 `json:"rows"`
}

// TestStoreRoundTrip: append records with artifacts, read them back, verify
// the chain, and confirm content addressing deduplicates identical payloads.
func TestStoreRoundTrip(t *testing.T) {
	backends(t, func(t *testing.T, open func(t *testing.T) Backend) {
		s, err := Open(open(t), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var digests []string
		for i := 0; i < 5; i++ {
			dig, err := s.PutArtifact(payload{Name: fmt.Sprint("run-", i%3), Score: float64(i % 3), Rows: []float64{1, 2.5}})
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, dig)
			rec, err := s.Append(RunRecord{Kind: KindJob, JobID: fmt.Sprint("job-", i+1), State: "done", Seed: int64(i), ResultDigest: dig})
			if err != nil {
				t.Fatal(err)
			}
			if rec.Index != int64(i) {
				t.Fatalf("record %d got index %d", i, rec.Index)
			}
			if rec.Hash == "" || (i > 0 && rec.PrevHash == "") {
				t.Fatalf("record %d not sealed: %+v", i, rec)
			}
			if rec.Build == (BuildInfo{}) {
				t.Fatalf("record %d has no build info", i)
			}
		}
		// i%3 payloads: artifacts 3 and 4 duplicate 0 and 1.
		if digests[3] != digests[0] || digests[4] != digests[1] {
			t.Fatalf("identical payloads got different digests: %v", digests)
		}
		recs, err := s.Records()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 5 {
			t.Fatalf("got %d records, want 5", len(recs))
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].PrevHash != recs[i-1].Hash {
				t.Fatalf("record %d prev_hash does not chain", i)
			}
		}
		arts, err := s.Backend().ListArtifacts()
		if err != nil {
			t.Fatal(err)
		}
		if len(arts) != 3 {
			t.Fatalf("got %d artifacts, want 3 (content-addressed dedup): %v", len(arts), arts)
		}
		data, err := s.Artifact(digests[0])
		if err != nil {
			t.Fatal(err)
		}
		var p payload
		if err := json.Unmarshal(data, &p); err != nil || p.Name != "run-0" {
			t.Fatalf("artifact round-trip: %v %+v", err, p)
		}
		rep, err := VerifyChain(s.Backend())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Records != 5 || rep.ArtifactsChecked != 3 || rep.HeadIndex != 4 {
			t.Fatalf("verify report %+v", rep)
		}
		st := s.Stats()
		if st.Records != 5 || st.HeadIndex != 4 || st.HeadHash != recs[4].Hash {
			t.Fatalf("stats %+v", st)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append(RunRecord{Kind: KindJob}); err == nil {
			t.Fatal("append on a closed store should fail")
		}
	})
}

// TestStoreReopenResumesChain: a reopened disk store appends after the
// persisted head and the chain still verifies end to end.
func TestStoreReopenResumesChain(t *testing.T) {
	dir := t.TempDir()
	openStore := func() *Store {
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
	s := openStore()
	var head string
	for i := 0; i < 3; i++ {
		rec, err := s.Append(RunRecord{Kind: KindJob, JobID: fmt.Sprint("job-", i+1), State: "done"})
		if err != nil {
			t.Fatal(err)
		}
		head = rec.Hash
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore()
	if st := s2.Stats(); st.HeadIndex != 2 || st.HeadHash != head {
		t.Fatalf("reopened head %+v, want index 2 hash %.12s", st, head)
	}
	rec, err := s2.Append(RunRecord{Kind: KindJob, JobID: "job-4", State: "done"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Index != 3 || rec.PrevHash != head {
		t.Fatalf("append after reopen got index %d prev %.12s, want 3 after %.12s", rec.Index, rec.PrevHash, head)
	}
	if _, err := VerifyChain(s2.Backend()); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCanonicalJSONStability: the digest of a payload depends only on its
// value, and golden pin/verify round-trips through raw artifacts.
func TestCanonicalJSONStability(t *testing.T) {
	a, err := CanonicalJSON(payload{Name: "x", Score: 1.25, Rows: []float64{3}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalJSON(payload{Name: "x", Score: 1.25, Rows: []float64{3}})
	if err != nil {
		t.Fatal(err)
	}
	if Digest(a) != Digest(b) {
		t.Fatal("identical values produced different digests")
	}
	if len(Digest(a)) != 64 {
		t.Fatalf("digest %q is not hex sha-256", Digest(a))
	}
}

// TestGoldenPinAndVerify: pinning a file records its digest; VerifyGolden
// passes on the same content and names the divergence after an edit.
func TestGoldenPinAndVerify(t *testing.T) {
	dir := t.TempDir()
	golden := filepath.Join(dir, "golden.csv")
	if err := os.WriteFile(golden, []byte("a,b\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := OpenDisk(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data, _ := os.ReadFile(golden)
	dig, err := s.PutRawArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(RunRecord{Kind: KindGolden, Name: "golden.csv", ResultDigest: dig}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyGolden(b, "golden.csv", golden); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyGolden(b, "other.csv", golden); err == nil {
		t.Fatal("verifying an unpinned name should fail")
	}
	if err := os.WriteFile(golden, []byte("a,b\n1,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = VerifyGolden(b, "golden.csv", golden)
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("edited golden should fail verification, got %v", err)
	}
}

// TestBuildInfoPopulated: the process build info carries at least the go
// version — the field the /versionz endpoint and every record share.
func TestBuildInfoPopulated(t *testing.T) {
	bi := Build()
	if bi.GoVersion == "" {
		t.Fatal("build info has no go version")
	}
	if bi != Build() {
		t.Fatal("build info should be stable")
	}
}

// TestAppendTimestamps: a caller-set Time survives, an unset one is stamped.
func TestAppendTimestamps(t *testing.T) {
	s, err := Open(NewMem(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	at := time.Date(2026, 8, 9, 1, 2, 3, 0, time.UTC)
	rec, err := s.Append(RunRecord{Kind: KindJob, Time: at})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Time.Equal(at) {
		t.Fatalf("caller time overwritten: %v", rec.Time)
	}
	rec2, err := s.Append(RunRecord{Kind: KindJob})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Time.IsZero() {
		t.Fatal("unset time not stamped")
	}
}
