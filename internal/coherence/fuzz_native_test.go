package coherence

import (
	"testing"

	"secdir/internal/addr"
	"secdir/internal/config"
)

// FuzzEngineOps is a native fuzz target driving whole-machine access
// sequences through the SecDir engine. Byte 2k encodes the op — bits 0-1 the
// core, bit 2 the write flag, bits 3-7 the high line bits — and byte 2k+1 the
// low line bits, spanning the same 13-bit line space as the oracle test.
// Every hit is validated against the protocol oracle and the structural
// invariants are audited after every access, so a violation that a later
// access would heal is still caught at the op that made it. Run with
// `go test -fuzz FuzzEngineOps ./internal/coherence` for open-ended
// exploration; under plain `go test` the seed corpus and the checked-in files
// under testdata/fuzz act as regression tests.
func FuzzEngineOps(f *testing.F) {
	// Read-share a line everywhere, then write it: global invalidation.
	f.Add([]byte{0, 42, 1, 42, 2, 42, 3, 42, 4, 42, 1, 42})
	// Conflict pressure: one core sweeps lines that collide in the tiny
	// directory sets, forcing TD→VD retreats and VD self-conflicts.
	var sweep []byte
	for i := byte(0); i < 40; i++ {
		sweep = append(sweep, i<<3, 17)
	}
	f.Add(sweep)
	f.Fuzz(func(t *testing.T, ops []byte) {
		cfg := smallConfig(config.SecDir)
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		o := newOracle()
		for i := 0; i+1 < len(ops); i += 2 {
			b := ops[i]
			c := int(b & 3)
			w := b&4 != 0
			l := addr.Line(uint64(b>>3)<<8 | uint64(ops[i+1]))
			res := e.Access(c, l, w)
			if (res.Level == LevelL1 || res.Level == LevelL2) && !o.mayHit(c, l) {
				t.Fatalf("op %d: core %d hit line %#x it cannot legally hold", i, c, uint64(l))
			}
			o.access(c, l, w)
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	})
}
