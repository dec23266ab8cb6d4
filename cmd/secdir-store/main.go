// Command secdir-store inspects and audits a durable experiment store
// directory written by secdir-serve -store-dir: the hash-chained run ledger
// and its content-addressed result artifacts.
//
// Usage:
//
//	secdir-store -dir DIR verify [golden path]...   audit the whole chain (and optionally pinned files)
//	secdir-store -dir DIR ls                        list ledger records, one line each
//	secdir-store -dir DIR show ID                   print records as JSON (ID = index or job id)
//	secdir-store -dir DIR export DIGEST             write an artifact's bytes to stdout
//	secdir-store -dir DIR export ID                 ... or resolve a job id / index to its result artifact
//	secdir-store -dir DIR pin NAME PATH             pin a golden file's digest into the ledger
//
// verify recomputes every record's hash, re-walks the prev-hash chain, and
// re-hashes every referenced artifact: any tampered, truncated, missing,
// inserted or removed record or artifact fails the audit with the offending
// record named. Each "golden path" pair additionally checks a pinned file
// (see KindGolden) against its recorded digest. Exit status 0 means the store
// is intact; 1 means it is not (or the command was misused).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"

	"secdir/internal/store"
)

func main() {
	dir := flag.String("dir", "", "experiment store directory (as given to secdir-serve -store-dir)")
	flag.Usage = usage
	flag.Parse()
	if err := run(*dir, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "secdir-store:", err)
		os.Exit(1)
	}
}

// usage prints the command synopsis to stderr.
func usage() {
	fmt.Fprintf(os.Stderr, `usage: secdir-store -dir DIR COMMAND [ARG...]

commands:
  verify [NAME PATH]...  audit the hash chain and artifacts (plus pinned goldens)
  ls                     list ledger records
  show ID                print records as JSON (ID = record index or job id)
  export DIGEST|ID       write an artifact's bytes to stdout
  pin NAME PATH          pin a golden file's digest into the ledger

flags:
`)
	flag.PrintDefaults()
}

// run dispatches the subcommand against the store directory.
func run(dir string, args []string) error {
	if dir == "" {
		return fmt.Errorf("missing -dir (the directory given to secdir-serve -store-dir)")
	}
	if len(args) == 0 {
		return fmt.Errorf("missing command: verify, ls, show, or export")
	}
	b, err := store.OpenDisk(dir)
	if err != nil {
		return err
	}
	defer b.Close()
	switch cmd, rest := args[0], args[1:]; cmd {
	case "verify":
		return verify(b, rest)
	case "ls":
		return ls(b, rest)
	case "show":
		return show(b, rest)
	case "export":
		return export(b, rest)
	case "pin":
		return pin(b, rest)
	default:
		return fmt.Errorf("unknown command %q: want verify, ls, show, export, or pin", cmd)
	}
}

// verify audits the chain and any NAME PATH golden pairs.
func verify(b store.Backend, args []string) error {
	if len(args)%2 != 0 {
		return fmt.Errorf("verify takes NAME PATH pairs, got %d trailing argument(s)", len(args)%2)
	}
	rep, err := store.VerifyChain(b)
	if err != nil {
		return err
	}
	head := rep.HeadHash
	if len(head) > 12 {
		head = head[:12]
	}
	fmt.Printf("chain ok: %d record(s), %d artifact(s) checked, head %d (%s)\n",
		rep.Records, rep.ArtifactsChecked, rep.HeadIndex, head)
	for i := 0; i+1 < len(args); i += 2 {
		rec, err := store.VerifyGolden(b, args[i], args[i+1])
		if err != nil {
			return err
		}
		fmt.Printf("golden ok: %s matches %s (pinned at record %d)\n", args[i+1], args[i], rec.Index)
	}
	return nil
}

// ls prints every ledger record as a one-line summary.
func ls(b store.Backend, args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("ls takes no arguments")
	}
	fmt.Printf("%4s  %-20s  %-11s %-22s %-8s %s\n", "idx", "time", "kind", "id", "state", "digest")
	return scan(b, func(rec store.RunRecord) { fmt.Println(rec.String()) })
}

// show prints every record matching the index or job id, as indented JSON.
func show(b store.Backend, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("show takes exactly one ID (a record index or job id)")
	}
	matches, err := match(b, args[0])
	if err != nil {
		return err
	}
	for _, rec := range matches {
		data, err := store.CanonicalJSON(rec)
		if err != nil {
			return err
		}
		fmt.Println(indent(data))
	}
	return nil
}

// export writes one artifact's exact bytes to stdout: by digest, or by
// resolving a record index / job id to its newest result digest.
func export(b store.Backend, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("export takes exactly one DIGEST, record index, or job id")
	}
	dig := args[0]
	if data, err := b.GetArtifact(dig); err == nil {
		_, err = os.Stdout.Write(data)
		return err
	}
	matches, err := match(b, args[0])
	if err != nil {
		return err
	}
	dig = ""
	for _, rec := range matches { // newest digest-bearing record wins
		if rec.ResultDigest != "" {
			dig = rec.ResultDigest
		}
	}
	if dig == "" {
		return fmt.Errorf("%q has no result artifact", args[0])
	}
	data, err := b.GetArtifact(dig)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(data)
	return err
}

// pin appends a KindGolden record for the file at PATH under NAME: its bytes
// become an artifact and its digest is sealed into the chain, so later
// `verify NAME PATH` runs prove the file unchanged since the pin.
func pin(b store.Backend, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("pin takes exactly NAME PATH")
	}
	data, err := os.ReadFile(args[1])
	if err != nil {
		return err
	}
	st, err := store.Open(b, store.Options{})
	if err != nil {
		return err
	}
	dig, err := st.PutRawArtifact(data)
	if err == nil {
		_, err = st.Append(store.RunRecord{Kind: store.KindGolden, Name: args[0], ResultDigest: dig})
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("pinned %s as %s (%s)\n", args[1], args[0], dig[:12])
	return nil
}

// scan streams the ledger's records to fn, tolerating nothing: a store that
// fails here fails verify too.
func scan(b store.Backend, fn func(store.RunRecord)) error {
	err := store.ScanRecords(b, func(rec store.RunRecord) error {
		fn(rec)
		return nil
	})
	if err != nil {
		return fmt.Errorf("%w (run verify for a full audit)", err)
	}
	return nil
}

// match selects records by decimal chain index or by job id / name, in chain
// order.
func match(b store.Backend, id string) ([]store.RunRecord, error) {
	keep := func(rec store.RunRecord) bool { return rec.JobID == id || rec.Name == id }
	if n, err := strconv.ParseInt(id, 10, 64); err == nil {
		keep = func(rec store.RunRecord) bool { return rec.Index == n }
	}
	var out []store.RunRecord
	err := scan(b, func(rec store.RunRecord) {
		if keep(rec) {
			out = append(out, rec)
		}
	})
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no record matches %q", id)
	}
	return out, nil
}

// indent pretty-prints compact JSON for the terminal.
func indent(data []byte) string {
	var buf bytes.Buffer
	if err := json.Indent(&buf, data, "", "  "); err != nil {
		return string(data)
	}
	return buf.String()
}
