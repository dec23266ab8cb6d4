package area

import (
	"math"
	"testing"

	"secdir/internal/config"
)

func almost(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

// TestTable7Storage checks the exact per-slice storage numbers of Table 7
// for the 8-core machine.
func TestTable7Storage(t *testing.T) {
	almost(t, "TD KB", KB(TDBits(8)), 107.25, 0.001)
	almost(t, "ED12 KB", KB(EDBits(12, 8)), 114.0, 0.001)
	almost(t, "ED8 KB", KB(EDBits(8, 8)), 76.0, 0.001)
	sets, ways := FullVDBank(8)
	if sets != 512 || ways != 4 {
		t.Fatalf("FullVDBank(8) = %dx%d, want 512x4 (Table 4)", sets, ways)
	}
	almost(t, "VD KB", KB(8*VDBankBits(sets, ways)), 66.5, 0.001)

	base := SkylakeSlice(8)
	sec := SecDirSlice(8, 8)
	// "SecDir needs 28.5 KB more directory storage per slice" (§7, §10.4).
	almost(t, "extra KB", KB(sec.Total())-KB(base.Total()), 28.5, 0.001)
	// "+12.9% storage" (§10.4).
	almost(t, "storage ratio", KB(sec.Total())/KB(base.Total()), 1.129, 0.005)
}

// TestTable7Area checks the fitted area model against the CACTI datapoints.
func TestTable7Area(t *testing.T) {
	almost(t, "TD mm2", AreaMM2(KB(TDBits(8)), 1), 0.080, 0.002)
	almost(t, "ED12 mm2", AreaMM2(KB(EDBits(12, 8)), 1), 0.087, 0.003)
	almost(t, "ED8 mm2", AreaMM2(KB(EDBits(8, 8)), 1), 0.057, 0.002)
	sets, ways := FullVDBank(8)
	almost(t, "VD mm2", AreaMM2(KB(8*VDBankBits(sets, ways)), 8), 0.057, 0.003)
}

// TestFig5Anchors checks the Figure 5 sizing search at points the paper
// quotes: with W_ED=8 and 8 cores the per-core VD reaches about half the L2
// (hence the extra 28.5 KB to reach 1.0), and the ratio grows with the core
// count because the VD re-uses ever-wider sharer fields.
func TestFig5Anchors(t *testing.T) {
	s := SizeVD(8, 8)
	if s.Ratio < 0.4 || s.Ratio > 0.75 {
		t.Errorf("SizeVD(8 cores, W_ED=8).Ratio = %v, want ≈0.5", s.Ratio)
	}
	// At 44+ cores the same-storage design reaches one L2 of entries.
	s44 := SizeVD(64, 8)
	if s44.Ratio < 1.0 {
		t.Errorf("SizeVD(64 cores, W_ED=8).Ratio = %v, want ≥1", s44.Ratio)
	}
	// W_ED=6 at 128 cores reaches ≈3.5 in the paper.
	s128 := SizeVD(128, 6)
	if s128.Ratio < 2.5 || s128.Ratio > 4.5 {
		t.Errorf("SizeVD(128 cores, W_ED=6).Ratio = %v, want ≈3.5", s128.Ratio)
	}
	// Monotone in freed ways: fewer ED ways retained → more VD entries.
	for cores := 4; cores <= 128; cores *= 2 {
		prev := -1.0
		for wED := 10; wED >= 6; wED-- {
			r := SizeVD(cores, wED).Ratio
			if r < prev {
				t.Errorf("ratio not monotone at %d cores, W_ED=%d: %v < %v", cores, wED, r, prev)
			}
			prev = r
		}
	}
}

// TestStorageCrossover checks the §7 claim that SecDir uses less directory
// storage than Skylake-X from 44 cores on.
func TestStorageCrossover(t *testing.T) {
	n := StorageCrossover(8)
	if n < 33 || n > 48 {
		t.Errorf("StorageCrossover(8) = %d, want ≈44 (§7)", n)
	}
	// And once crossed it stays crossed for power-of-two counts.
	for c := 64; c <= 512; c *= 2 {
		if SecDirSlice(c, 8).Total() > SkylakeSlice(c).Total() {
			t.Errorf("SecDir storage exceeds baseline again at %d cores", c)
		}
	}
}

// TestRequiredAssociativity checks the §2.3 bound: >123 ways for 8 cores.
func TestRequiredAssociativity(t *testing.T) {
	if got := RequiredAssociativity(8); got != 123 {
		t.Errorf("RequiredAssociativity(8) = %d, want 123", got)
	}
	if got := RequiredAssociativity(28); got != 16*27+11 {
		t.Errorf("RequiredAssociativity(28) = %d, want %d", got, 16*27+11)
	}
}

// TestDefenseStorage checks the leaderboard cost model: every catalogue
// design resolves, the baseline aliases agree, keyed/skewed designs pay the
// full-tag premium over the baseline, and tag-partitioning's missing sharer
// vector makes it the cheapest design.
func TestDefenseStorage(t *testing.T) {
	names := []string{"skylake-unfixed", "secdir", "skewed", "dls", "tagpart", "ceaser"}
	kb := map[string]float64{}
	for _, n := range config.Names() {
		c, err := config.ByName(n, 8)
		if err != nil {
			t.Fatal(err)
		}
		s, banks, ok := DefenseStorage(c)
		if !ok {
			t.Fatalf("DefenseStorage(%s, kind %v) unknown", n, c.Kind)
		}
		if s.Total() == 0 || banks < 1 {
			t.Fatalf("DefenseStorage(%s) = %d bits in %d banks", n, s.Total(), banks)
		}
		kb[n] = KB(s.Total())
	}
	if _, _, ok := DefenseStorage(config.Config{Kind: config.DirectoryKind(99), Cores: 8}); ok {
		t.Error("DefenseStorage accepted an unknown kind")
	}

	for _, alias := range []string{"baseline", "skylake-fixed", "waypart"} {
		c, _ := config.ByName(alias, 8)
		base, banks, _ := DefenseStorage(c)
		if got := SkylakeSlice(8); base != got || banks != 2 {
			t.Errorf("%s = %+v/%d banks, want the baseline's %+v/2", alias, base, banks, got)
		}
	}
	almost(t, "skylake-unfixed KB", kb["skylake-unfixed"], KB(SkylakeSlice(8).Total()), 0.001)
	almost(t, "secdir KB", kb["secdir"], KB(SecDirSlice(8, 8).Total()), 0.001)
	if kb["ceaser"] <= kb["skylake-unfixed"] {
		t.Errorf("ceaser stores full tags and must exceed the baseline: %v <= %v",
			kb["ceaser"], kb["skylake-unfixed"])
	}
	if kb["skewed"] <= kb["skylake-unfixed"] {
		t.Errorf("skewed stores full tags and must exceed the baseline: %v <= %v",
			kb["skewed"], kb["skylake-unfixed"])
	}
	for _, n := range names {
		if n != "tagpart" && kb["tagpart"] >= kb[n] {
			t.Errorf("tagpart (%v KB) should undercut %s (%v KB)", kb["tagpart"], n, kb[n])
		}
	}
}

func TestEntryBits(t *testing.T) {
	if got := TDEntryBits(8); got != 39 {
		t.Errorf("TDEntryBits(8) = %d, want 39", got)
	}
	if got := EDEntryBits(8); got != 38 {
		t.Errorf("EDEntryBits(8) = %d, want 38", got)
	}
	if got := VDEntryBits(); got != 33 {
		t.Errorf("VDEntryBits() = %d, want 33", got)
	}
}
