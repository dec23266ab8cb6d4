package cuckoo

import (
	"reflect"
	"testing"

	"secdir/internal/addr"
)

// FuzzTableOps is a native fuzz target over raw operation bytes: byte 2k
// selects insert/remove/contains/reset for the line in byte 2k+1. A reset
// (reseeded from the line byte) must leave the table identical to a freshly
// built one. Run with
// `go test -fuzz FuzzTableOps ./internal/cuckoo` for open-ended exploration;
// under plain `go test` the seed corpus below acts as a regression test.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{0, 10, 0, 10, 1, 10})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 1, 1, 2, 2})
	f.Add([]byte{0, 1, 0, 9, 0, 17, 0, 25, 0, 33, 0, 41, 3, 5, 0, 1, 2, 1, 0, 9, 3, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		cfg := Config{Sets: 4, Ways: 2, NumRelocations: 3, Cuckoo: true, StashSize: 1, Seed: 1}
		tb := New(cfg)
		resident := map[addr.Line]bool{}
		for i := 0; i+1 < len(ops); i += 2 {
			l := addr.Line(ops[i+1] % 64)
			switch ops[i] % 4 {
			case 0:
				v, ev := tb.Insert(l)
				if ev {
					if !resident[v] && v != l {
						t.Fatalf("evicted never-inserted line %#x", uint64(v))
					}
					delete(resident, v)
					if v != l {
						resident[l] = true
					}
				} else {
					resident[l] = true
				}
			case 1:
				if ok := tb.Remove(l); ok != resident[l] {
					t.Fatalf("Remove(%#x) = %v, tracker %v", uint64(l), ok, resident[l])
				}
				delete(resident, l)
			case 2:
				if got := tb.Contains(l); got != resident[l] {
					t.Fatalf("Contains(%#x) = %v, tracker %v", uint64(l), got, resident[l])
				}
			case 3:
				cfg.Seed = int64(ops[i+1])
				tb.Reset(cfg.Seed)
				if !reflect.DeepEqual(tb, New(cfg)) {
					t.Fatalf("op %d: Reset(%d) differs from a fresh table", i/2, cfg.Seed)
				}
				clear(resident)
			}
			if tb.Len() != len(resident) {
				t.Fatalf("Len %d != tracker %d", tb.Len(), len(resident))
			}
		}
	})
}
