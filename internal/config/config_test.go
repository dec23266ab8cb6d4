package config

import (
	"strings"
	"testing"
)

func TestSkylakeXDefaults(t *testing.T) {
	c := SkylakeX(8)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Kind != Baseline || c.AppendixAFix {
		t.Fatal("baseline must model the unfixed Skylake-X (Appendix A)")
	}
	if c.L2Lines() != 16384 {
		t.Fatalf("L2Lines = %d, want 16384 (1 MB of 64 B lines)", c.L2Lines())
	}
	if c.TDWays != 11 || c.EDWays != 12 || c.TDSets != 2048 {
		t.Fatalf("directory geometry %d/%d x %d", c.TDWays, c.EDWays, c.TDSets)
	}
}

func TestSecDirDefaults(t *testing.T) {
	c := SecDirConfig(8)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Kind != SecDir || !c.AppendixAFix || !c.VDCuckoo || !c.VDEmptyBit {
		t.Fatalf("SecDir defaults wrong: %+v", c)
	}
	if c.EDWays != 8 {
		t.Fatalf("EDWays = %d, want 8 (Table 4)", c.EDWays)
	}
	if c.VDSets != 512 || c.VDWays != 4 {
		t.Fatalf("VD bank = %dx%d, want 512x4 (Table 4)", c.VDSets, c.VDWays)
	}
	if c.NumRelocations != 8 {
		t.Fatalf("NumRelocations = %d, want 8", c.NumRelocations)
	}
	// The per-core distributed VD must hold at least as many entries as the
	// L2 holds lines (§4.1).
	if c.VDEntriesPerCore() < c.L2Lines() {
		t.Fatalf("per-core VD %d entries < %d L2 lines", c.VDEntriesPerCore(), c.L2Lines())
	}
}

func TestVDEntriesScaleWithCores(t *testing.T) {
	// Per-core VD capacity stays ≈ L2 size irrespective of core count: more
	// slices, smaller banks (§4.1 "Provides Isolation Inexpensively and
	// Scalably").
	for _, n := range []int{4, 8, 16, 32, 64} {
		c := SecDirConfig(n)
		got := c.VDEntriesPerCore()
		if got < c.L2Lines() || got > 2*c.L2Lines() {
			t.Errorf("%d cores: per-core VD %d entries (L2 %d)", n, got, c.L2Lines())
		}
	}
}

func TestValidateRejections(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cores = 3 },
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Cores = 128 },   // beyond the 64-bit sharer vector
		func(c *Config) { c.EDSets = 1024 }, // TD/ED set mismatch
		func(c *Config) { c.L2Sets = 1000 },
		func(c *Config) { c.Kind = SecDir; c.VDSets = 0 },
		func(c *Config) { c.DisableEDTD = true }, // requires SecDir
	}
	for i, mutate := range bad {
		c := SkylakeX(8)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestKindString(t *testing.T) {
	if Baseline.String() != "baseline" || SecDir.String() != "secdir" {
		t.Fatal("DirectoryKind.String broken")
	}
}

func TestDefaultLatencies(t *testing.T) {
	l := DefaultLatencies()
	// Table 4 round-trip constants.
	if l.L1RT != 4 || l.L2RT != 10 || l.DirLocalRT != 30 || l.DirRemoteRT != 50 {
		t.Fatalf("cache/directory latencies: %+v", l)
	}
	if l.EBCheck != 2 || l.VDAccess != 5 {
		t.Fatalf("VD latencies: %+v", l)
	}
	if l.DRAMRT != 100 { // 50 ns at 2.0 GHz
		t.Fatalf("DRAM latency: %+v", l)
	}
}

// TestValidateRejectsCoresBeyondBitset pins the core cap: the directory's
// sharer vector is a uint64, so 64 cores validate and 128 must be refused
// with an error that names the Bitset width rather than simulated wrongly.
func TestValidateRejectsCoresBeyondBitset(t *testing.T) {
	if err := SecDirConfig(MaxCores).Validate(); err != nil {
		t.Fatalf("%d cores rejected: %v", MaxCores, err)
	}
	for _, c := range []Config{SkylakeX(128), SecDirConfig(128), SkylakeX(1 << 10)} {
		err := c.Validate()
		if err == nil {
			t.Fatalf("%d cores accepted", c.Cores)
		}
		for _, want := range []string{"cores", "64", "Bitset"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%d cores: error %q does not mention %q", c.Cores, err, want)
			}
		}
	}
}

// TestByName pins the design catalogue: every listed name resolves to a
// valid configuration, the aliases and the bulk-re-keyed ceaser mean what
// their callers expect, and a bad name or core count is refused with an
// error that says why.
func TestByName(t *testing.T) {
	for _, n := range Names() {
		if _, err := ByName(n, 8); err != nil {
			t.Errorf("ByName(%q): %v", n, err)
		}
	}
	get := func(n string) Config {
		c, err := ByName(n, 8)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if unfixed := get("skylake-unfixed"); unfixed != get("baseline") || unfixed.AppendixAFix {
		t.Error("baseline must alias the unfixed Skylake-X")
	}
	if fixed := get("skylake-fixed"); fixed.Kind != Baseline || !fixed.AppendixAFix {
		t.Errorf("skylake-fixed = %v fix=%v", fixed.Kind, fixed.AppendixAFix)
	}
	if rm := get("randmap"); rm.Kind != Ceaser || rm.RemapStep != rm.TDSets {
		t.Errorf("randmap must be a ceaser directory re-keyed in one step: %v step %d", rm.Kind, rm.RemapStep)
	}
	if ce := get("ceaser"); ce.RekeyEvery != rivalRekeyEvery || ce.RemapStep != 0 {
		t.Errorf("ceaser rekey %d step %d", ce.RekeyEvery, ce.RemapStep)
	}

	_, err := ByName("nosuch", 8)
	if err == nil {
		t.Fatal("unknown design accepted")
	}
	for _, n := range Names() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error %q does not list %q", err, n)
		}
	}
	if _, err := ByName("secdir", 3); err == nil || !strings.Contains(err.Error(), "cores") {
		t.Errorf("3 cores: %v, want an error naming cores", err)
	}
}
