package store

import (
	"fmt"
	"os"
)

// VerifyReport summarises a successful chain verification.
type VerifyReport struct {
	// Records is the number of chain records verified.
	Records int `json:"records"`
	// ArtifactsChecked counts distinct referenced artifacts whose content
	// re-hashed to their digest.
	ArtifactsChecked int `json:"artifacts_checked"`
	// HeadIndex and HeadHash identify the verified chain head (-1/"" for an
	// empty ledger, which verifies trivially).
	HeadIndex int64 `json:"head_index"`
	// HeadHash is the chain head record's hash.
	HeadHash string `json:"head_hash"`
}

// VerifyChain walks the backend's entire ledger, re-deriving every record's
// hash and the prev-hash linkage, and re-hashing every referenced artifact's
// content against its digest. Any flipped byte — in a record or in an
// artifact — fails verification with an error naming the offending record.
// The ledger is streamed: memory holds one record and the set of artifact
// digests already checked, however long the chain.
func VerifyChain(b Backend) (VerifyReport, error) {
	rep := VerifyReport{HeadIndex: -1}
	checked := map[string]bool{}
	prevHash := ""
	err := ScanRecords(b, func(rec RunRecord) error {
		i := rep.Records
		if rec.Index != int64(i) {
			return fmt.Errorf("store: record %d carries index %d — a record was inserted or removed", i, rec.Index)
		}
		if rec.PrevHash != prevHash {
			return fmt.Errorf("store: record %d (%s): prev_hash %.12s does not match the chain head %.12s — the preceding history was altered",
				i, recordLabel(rec), rec.PrevHash, prevHash)
		}
		want, err := HashRecord(rec)
		if err != nil {
			return fmt.Errorf("store: record %d (%s): %w", i, recordLabel(rec), err)
		}
		if rec.Hash != want {
			return fmt.Errorf("store: record %d (%s): stored hash %.12s, recomputed %.12s — the record was tampered with",
				i, recordLabel(rec), rec.Hash, want)
		}
		if rec.ResultDigest != "" && !checked[rec.ResultDigest] {
			data, err := b.GetArtifact(rec.ResultDigest)
			if err != nil {
				return fmt.Errorf("store: record %d (%s): artifact missing: %w", i, recordLabel(rec), err)
			}
			if got := Digest(data); got != rec.ResultDigest {
				return fmt.Errorf("store: record %d (%s): artifact %.12s re-hashes to %.12s — the artifact was tampered with or truncated",
					i, recordLabel(rec), rec.ResultDigest, got)
			}
			checked[rec.ResultDigest] = true
			rep.ArtifactsChecked++
		}
		prevHash = rec.Hash
		rep.HeadIndex = rec.Index
		rep.HeadHash = rec.Hash
		rep.Records++
		return nil
	})
	return rep, err
}

// recordLabel names a record for error messages: its job ID, name, or kind.
func recordLabel(rec RunRecord) string {
	switch {
	case rec.JobID != "":
		return rec.Kind + " " + rec.JobID
	case rec.Name != "":
		return rec.Kind + " " + rec.Name
	default:
		return rec.Kind
	}
}

// VerifyGolden checks a file on disk against the newest KindGolden record
// pinning name: the file's SHA-256 must equal the recorded digest. It
// returns that record on success.
func VerifyGolden(b Backend, name, path string) (RunRecord, error) {
	var pin RunRecord
	found := false
	err := ScanRecords(b, func(rec RunRecord) error {
		if rec.Kind == KindGolden && rec.Name == name {
			pin, found = rec, true
		}
		return nil
	})
	if err != nil {
		return RunRecord{}, err
	}
	if !found {
		return RunRecord{}, fmt.Errorf("store: no golden record pins %q", name)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return RunRecord{}, err
	}
	if got := Digest(data); got != pin.ResultDigest {
		return pin, fmt.Errorf("store: golden %q: file %s hashes to %.12s but record %d pinned %.12s — the file diverged from the recorded run",
			name, path, got, pin.Index, pin.ResultDigest)
	}
	return pin, nil
}
