package attack

import (
	"testing"

	"secdir/internal/addr"
	"secdir/internal/config"
	"secdir/internal/directory"
)

// TestRandomizedDefeatsTargetedAttack: against the CEASER-style randomized
// directory, the address-computed eviction set no longer aliases with the
// victim's entry, and targeted evict+reload collapses to chance.
func TestRandomizedDefeatsTargetedAttack(t *testing.T) {
	e := newEngine(t, config.RandMappedConfig(8, 50_000))
	res, err := EvictReload(e, victimCore, attackerCores(8), targetLine, 40, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.VictimEvictions > 2 {
		t.Errorf("targeted attack evicted the victim %d/%d times on the randomized design", res.VictimEvictions, res.Rounds)
	}
	if res.Accuracy() > 0.65 {
		t.Errorf("targeted attack accuracy %.2f on the randomized design, want ≈0.5", res.Accuracy())
	}
}

// TestFloodBeatsRandomized reproduces the §11 criticism: flooding the slice
// still evicts the victim's entry — randomization only raised the price.
func TestFloodBeatsRandomized(t *testing.T) {
	e := newEngine(t, config.RandMappedConfig(8, 200_000))
	res, err := FloodReload(e, victimCore, attackerCores(8), targetLine, 20, 48_000)
	if err != nil {
		t.Fatal(err)
	}
	// Statistical, not structural: the flood wins most rounds (vs. the
	// targeted attack's zero), at a cost of ~10^5 accesses per observation.
	if res.VictimEvictions < res.Rounds/2 {
		t.Errorf("flood evicted the victim in only %d/%d rounds", res.VictimEvictions, res.Rounds)
	}
	if res.Accuracy() < 0.7 {
		t.Errorf("flood accuracy %.2f on the randomized design, want well above chance", res.Accuracy())
	}
}

// TestFloodFailsOnSecDir: the same brute-force flood cannot touch SecDir's
// per-core Victim Directories — the defense is structural, not statistical.
func TestFloodFailsOnSecDir(t *testing.T) {
	e := newEngine(t, config.SecDirConfig(8))
	res, err := FloodReload(e, victimCore, attackerCores(8), targetLine, 10, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.VictimEvictions != 0 {
		t.Errorf("flood evicted the victim %d times on SecDir", res.VictimEvictions)
	}
	if got := e.Stats().Core[victimCore].ConflictInvalidations; got != 0 {
		t.Errorf("victim suffered %d conflict invalidations", got)
	}
}

// TestRekeyingHappens: the randomized design actually re-keys under load and
// stays coherent across remaps.
func TestRekeyingHappens(t *testing.T) {
	cfg := config.RandMappedConfig(8, 2_000)
	e := newEngine(t, cfg)
	w := attackerCores(8)
	_ = w
	for i := 0; i < 30_000; i++ {
		e.Access(i%8, targetLine+addr.Line(i*13), i%6 == 0)
	}
	var rekeys uint64
	for s := 0; s < 8; s++ {
		rekeys += e.Slice(s).(*directory.CeaserSlice).Epochs
	}
	if rekeys == 0 {
		t.Fatal("no re-keys happened under load")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
