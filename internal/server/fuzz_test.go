package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"testing"
	"time"

	"secdir/internal/config"
	"secdir/internal/store"
)

// namesRecord matches an error that says which ledger record it is about.
var namesRecord = regexp.MustCompile(`record \d+`)

// ledgerSeed builds a valid three-job ledger — one job done with a result
// artifact, one failed, one still queued — and returns its bytes and the
// artifacts it references.
func ledgerSeed(f *testing.F) ([]byte, map[string][]byte) {
	f.Helper()
	b := store.NewMem()
	st, err := store.Open(b, store.Options{})
	if err != nil {
		f.Fatal(err)
	}
	spec := smallLeak()
	if err := spec.Normalize(); err != nil {
		f.Fatal(err)
	}
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	status := func(id string, state JobState, errMsg string) JobStatus {
		return JobStatus{ID: id, State: state, Spec: spec, Submitted: now, Err: errMsg}
	}
	for _, step := range []struct {
		st     JobStatus
		result any
	}{
		{status("job-1", StateQueued, ""), nil},
		{status("job-1", StateDone, ""), map[string]int{"answer": 42}},
		{status("job-2", StateQueued, ""), nil},
		{status("job-2", StateFailed, "boom"), nil},
		{status("job-3", StateQueued, ""), nil},
	} {
		if _, err := appendJob(st, step.st, step.result); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	var ledger []byte
	artifacts := map[string][]byte{}
	err = store.ScanRecords(b, func(rec store.RunRecord) error {
		line, err := store.CanonicalJSON(rec)
		ledger = append(append(ledger, line...), '\n')
		if err == nil && rec.ResultDigest != "" {
			artifacts[rec.ResultDigest], err = b.GetArtifact(rec.ResultDigest)
		}
		return err
	})
	if err != nil {
		f.Fatal(err)
	}
	return ledger, artifacts
}

// FuzzLedgerReplay feeds arbitrary ledger bytes through store.Open,
// AttachStore and VerifyChain. Each must restore, or refuse with an error
// naming a record; none may panic; a ledger VerifyChain accepts must also
// open and replay, and must re-encode to its own bytes.
//
// The fuzzed ledger is a splice into the valid seed ledger: bytes
// [at, at+cut) are replaced by patch (at and cut are clamped to the seed),
// so any byte string is reachable (at 0, cut the whole seed) while the
// fuzzer's input stays a few bytes. Go's fuzzer minimises every input that
// reaches new coverage, at a cost quadratic in its length and capped at a
// minute per input, so a raw multi-KB ledger as the input would keep the
// workers minimising instead of fuzzing.
func FuzzLedgerReplay(f *testing.F) {
	valid, artifacts := ledgerSeed(f)
	if len(valid) > math.MaxUint16 {
		f.Fatalf("seed ledger is %d bytes, more than a uint16 offset reaches", len(valid))
	}
	f.Add(uint16(0), uint16(0), []byte(nil))                                      // the valid ledger
	f.Add(uint16(len(valid)), uint16(0), []byte(`{"index":5,"kind":"job","job_`)) // torn tail
	mid := len(valid) / 2
	f.Add(uint16(mid), uint16(1), []byte{valid[mid] ^ 0x01}) // one flipped bit
	at := bytes.Index(valid, []byte(`{"index":0,`)) + len(`{"index":0,`)
	f.Add(uint16(at), uint16(0), []byte(`"bogus":1,`)) // unknown field
	at = bytes.Index(valid, []byte("}\n")) + 1
	f.Add(uint16(at), uint16(0), []byte(` {"junk":1}`)) // bytes after the value
	at = bytes.Index(valid, []byte(`":`)) + 2
	f.Add(uint16(at), uint16(0), []byte(" ")) // re-spaced key

	f.Fuzz(func(t *testing.T, at, cut uint16, patch []byte) {
		start := min(int(at), len(valid))
		end := min(start+int(cut), len(valid))
		ledger := append(append(append([]byte(nil), valid[:start]...), patch...), valid[end:]...)
		isValid := bytes.Equal(ledger, valid)
		b := store.NewMem()
		for dig, data := range artifacts {
			if err := b.PutArtifact(dig, data); err != nil {
				t.Fatal(err)
			}
		}
		// Complete lines only, as DiskBackend reads them: an unterminated
		// tail was never acknowledged.
		var lines [][]byte
		for {
			i := bytes.IndexByte(ledger, '\n')
			if i < 0 {
				break
			}
			lines = append(lines, ledger[:i])
			ledger = ledger[i+1:]
		}
		if err := b.AppendLedger(lines); err != nil {
			t.Fatal(err)
		}
		refused := func(what string, err error) bool {
			if err != nil && !namesRecord.MatchString(err.Error()) {
				t.Fatalf("%s refused the ledger without naming a record: %v", what, err)
			}
			return err != nil
		}

		_, verr := store.VerifyChain(b)
		verified := !refused("VerifyChain", verr)
		for i, line := range lines {
			if !verified {
				break
			}
			var rec store.RunRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("record %d verified but does not decode: %v", i, err)
			}
			if enc, err := store.CanonicalJSON(rec); err != nil || !bytes.Equal(enc, line) {
				t.Fatalf("record %d verified but does not re-encode to its own bytes (%v):\n%s\n%s", i, err, line, enc)
			}
		}
		st, err := store.Open(b, store.Options{})
		if refused("Open", err) {
			if verified {
				t.Fatalf("Open refused a ledger VerifyChain accepts: %v", err)
			}
			return
		}
		defer st.Close()
		// A drained server runs nothing: the replay validates every job it
		// would resubmit and then drops it, so no input's spec is executed
		// and every run covers the same code for the same bytes.
		srv, err := New(config.ServerConfig{QueueDepth: 4, Workers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		rc, err := srv.AttachStore(st)
		if refused("AttachStore", err) {
			if verified {
				t.Fatalf("AttachStore refused a ledger VerifyChain accepts: %v", err)
			}
			return
		}
		if isValid && (rc.Restored != 2 || len(rc.Dropped) != 1 || !strings.HasPrefix(rc.Dropped[0], "job-3: server draining")) {
			t.Fatalf("valid ledger replayed as %+v, want 2 restored and queued job-3 held back by the drain", rc)
		}
		// Every replayed job answers its status; a done one, its result.
		// Open and AttachStore do not verify the chain, so a replayed ID
		// may hold any character: it goes into the path escaped.
		srv.mu.Lock()
		ids := append([]string(nil), srv.order...)
		srv.mu.Unlock()
		for _, id := range ids {
			code, body := serve(srv, "/jobs/"+url.PathEscape(id))
			var js JobStatus
			if err := json.Unmarshal(body, &js); code != http.StatusOK || err != nil || js.ID != id {
				t.Fatalf("status of replayed %s: HTTP %d %s (%v)", id, code, body, err)
			}
			if js.State == StateDone {
				if code, body := serve(srv, "/jobs/"+url.PathEscape(id)+"/result"); code != http.StatusOK {
					t.Fatalf("result of replayed done %s: HTTP %d %s", id, code, body)
				}
			}
		}
	})
}

// serve answers a GET of path in process.
func serve(srv *Server, path string) (int, []byte) {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w.Code, w.Body.Bytes()
}

// FuzzJobSpec feeds arbitrary bytes through the submit decoder and
// Normalize. Neither may panic; a spec they accept must come back unchanged
// when resubmitted; and an accepted leak or leaderboard spec must plan
// exactly one cell per (config, strategy) pair it names.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"experiment","experiments":["f5","T7"]}`,
		`{"kind":"attack","design":"both","rounds":6,"seed":3}`,
		`{"kind":"replay","design":"ceaser","workload":"mix2","cores":4}`,
		`{"kind":"leak","configs":["skylake-unfixed","secdir"],"strategies":["primeprobe"],"trials":40}`,
		`{"kind":"leaderboard","confidence":0.95,"resamples":200,"perf_accesses":1000}`,
		`{"kind":"leak","configs":["all"],"strategies":["all"],"fleet":true}`,
		`{"kind":"leaderboard","configs":["secdir, secdir"],"strategies":["suite"]}`,
		`{"kind":"leak","configs":[","]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeJobSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		first, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeJobSpec(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("normalized spec %s refused on resubmission: %v", first, err)
		}
		if second, _ := json.Marshal(again); !bytes.Equal(second, first) {
			t.Fatalf("Normalize is not idempotent:\nonce  %s\ntwice %s", first, second)
		}
		if spec.Kind != KindLeak && spec.Kind != KindLeaderboard {
			return
		}
		o, err := spec.reportOptions()
		if err != nil {
			t.Fatalf("accepted spec %s has no sweep: %v", first, err)
		}
		cells, err := o.Plan()
		if err != nil {
			t.Fatalf("accepted spec %s does not plan: %v", first, err)
		}
		if want := len(spec.Configs) * len(spec.Strategies); len(cells) != want {
			t.Fatalf("spec %s plans %d cells, want %d configs x strategies", first, len(cells), want)
		}
	})
}
