package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// Record kinds the secdir stack writes. The ledger accepts any kind string;
// these are the vocabulary the server, fleet, and CLI share.
const (
	// KindJob is a job lifecycle record: one at submission (state "queued")
	// and one at the terminal state ("done", "failed", "canceled",
	// "requeued").
	KindJob = "job"
	// KindFleetMerge records a fleet job's per-shard merge provenance: its
	// artifact lists which worker produced which trial range of which cell.
	KindFleetMerge = "fleet-merge"
	// KindGolden pins an external file (a committed golden CSV) by digest so
	// later verify runs can prove the file unchanged.
	KindGolden = "golden"
)

// BuildInfo identifies the binary that wrote a record, from
// debug.ReadBuildInfo: enough to tie a ledger entry (and therefore a golden
// number) to the exact code that produced it.
type BuildInfo struct {
	// Path is the main module path.
	Path string `json:"path,omitempty"`
	// Version is the main module version ("(devel)" for source builds).
	Version string `json:"version,omitempty"`
	// VCSRevision and VCSTime are the checkout the binary was built from,
	// when the build embedded them.
	VCSRevision string `json:"vcs_revision,omitempty"`
	// VCSTime is the commit timestamp of VCSRevision.
	VCSTime string `json:"vcs_time,omitempty"`
	// VCSModified reports a dirty working tree at build time.
	VCSModified bool `json:"vcs_modified,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version,omitempty"`
}

// buildOnce caches the process's build info: it cannot change at runtime.
var buildOnce = sync.OnceValue(func() BuildInfo {
	bi := BuildInfo{}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	bi.Path = info.Main.Path
	bi.Version = info.Main.Version
	bi.GoVersion = info.GoVersion
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			bi.VCSRevision = s.Value
		case "vcs.time":
			bi.VCSTime = s.Value
		case "vcs.modified":
			bi.VCSModified = s.Value == "true"
		}
	}
	return bi
})

// Build returns the running binary's build info (module path and version,
// VCS revision, go version) — the same struct every appended record carries.
func Build() BuildInfo { return buildOnce() }

// RunRecord is one entry of the append-only run ledger. The store fills
// Index, PrevHash, Hash, and (when zero) Time and Build at Append; the
// remaining fields describe the run and are the writer's to set. Hash covers
// every field but itself, and PrevHash chains it to the predecessor, so no
// historical record can change without breaking every later hash.
type RunRecord struct {
	// Index is the record's position in the chain, from 0.
	Index int64 `json:"index"`
	// Time is when the record was appended (UTC).
	Time time.Time `json:"time"`
	// Kind classifies the record (KindJob, KindFleetMerge, KindGolden, …).
	Kind string `json:"kind"`

	// JobID names the server job the record describes, for job records.
	JobID string `json:"job_id,omitempty"`
	// State is the job lifecycle state at write time ("queued", "done",
	// "failed", "canceled", "requeued").
	State string `json:"state,omitempty"`
	// Name labels non-job records: the pinned file path of a golden record,
	// the sweep label of a fleet merge.
	Name string `json:"name,omitempty"`
	// Spec is the canonical JSON of the job spec that produced the result.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Seed is the run's master seed.
	Seed int64 `json:"seed,omitempty"`
	// EngineShards and EngineWindow are legacy, read-only fields: ledgers
	// written while the engine had sharded and conflict-window modes record
	// the options a run executed with. Nothing writes them any more; they
	// stay so strict parsing (and so VerifyChain) accepts those ledgers.
	EngineShards int `json:"engine_shards,omitempty"`
	// EngineWindow is the legacy conflict-window size (0 = none).
	EngineWindow int `json:"engine_window,omitempty"`
	// Strategy names the attack strategies of a leakage run.
	Strategy string `json:"strategy,omitempty"`
	// Submitted, Started and Finished are the job's lifecycle timestamps,
	// when known.
	Submitted time.Time `json:"submitted,omitzero"`
	// Started is when a worker picked the job up.
	Started time.Time `json:"started,omitzero"`
	// Finished is when the job reached its terminal state.
	Finished time.Time `json:"finished,omitzero"`
	// Err carries the failure message of failed/canceled records.
	Err string `json:"error,omitempty"`
	// ResultDigest is the content address of the record's result artifact
	// ("" for records without a payload).
	ResultDigest string `json:"result_digest,omitempty"`
	// Build identifies the binary that wrote the record.
	Build BuildInfo `json:"build"`

	// PrevHash is the Hash of the preceding record ("" on the genesis
	// record).
	PrevHash string `json:"prev_hash"`
	// Hash is the SHA-256 of this record's canonical JSON with Hash itself
	// blanked — the value the next record chains on.
	Hash string `json:"hash"`
}

// CanonicalJSON is the store's one serialisation: encoding/json compact
// output. Struct fields encode in declaration order and map keys sort, so
// identical values produce identical bytes — the property content
// addressing and chain hashing rely on.
func CanonicalJSON(v any) ([]byte, error) { return json.Marshal(v) }

// Digest returns the hex SHA-256 content address of data.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// HashRecord computes the record's chain hash: the SHA-256 of its canonical
// JSON with the Hash field blanked. Index, PrevHash and every payload field
// are covered.
func HashRecord(rec RunRecord) (string, error) {
	rec.Hash = ""
	data, err := CanonicalJSON(rec)
	if err != nil {
		return "", err
	}
	return Digest(data), nil
}

// sealRecord fills rec.Hash and returns the record's ledger line.
func sealRecord(rec *RunRecord) ([]byte, error) {
	h, err := HashRecord(*rec)
	if err != nil {
		return nil, err
	}
	rec.Hash = h
	return CanonicalJSON(*rec)
}

// DecodeRecord parses one ledger line strictly: unknown fields are errors,
// because a record that round-trips lossily could not be re-hashed, and the
// line must be byte-identical to the record's canonical JSON — the bytes
// sealRecord wrote and the chain hash covers — so appended bytes, re-spacing
// or reordered keys cannot ride along unhashed.
func DecodeRecord(line []byte) (RunRecord, error) {
	var rec RunRecord
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return rec, err
	}
	canon, err := CanonicalJSON(rec)
	if err != nil {
		return rec, err
	}
	if !bytes.Equal(canon, line) {
		return rec, errors.New("line is not the canonical JSON of its record (bytes added, re-spaced or reordered)")
	}
	return rec, nil
}

// String renders a compact one-line summary for listings.
func (r RunRecord) String() string {
	id := r.JobID
	if id == "" {
		id = r.Name
	}
	dig := r.ResultDigest
	if len(dig) > 12 {
		dig = dig[:12]
	}
	return fmt.Sprintf("%4d  %s  %-11s %-22s %-8s %s",
		r.Index, r.Time.Format(time.RFC3339), r.Kind, id, r.State, dig)
}
