// Command secdir-attack mounts the cross-core conflict-based directory
// attacks of §2.2/§9 against a victim line on a directory design of the
// catalogue (by default the Skylake-X-style baseline and SecDir), printing
// the attacker's observables and the ground-truth inclusion victims.
//
// Usage:
//
//	secdir-attack                     # both designs, both attacks
//	secdir-attack -dir baseline -rounds 100
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"secdir/internal/config"
	"secdir/internal/metrics"
	"secdir/internal/server"
	"secdir/internal/trace"
)

func main() {
	dir := flag.String("dir", "both", "directory design, one of "+strings.Join(config.Names(), ", ")+", or both (baseline and secdir)")
	rounds := flag.Int("rounds", 40, "attack rounds")
	cores := flag.Int("cores", 8, "number of cores (power of two)")
	evLines := flag.Int("evlines", 32, "eviction-set size (W_ED+W_TD=23 needed to fill a set)")
	seed := flag.Int64("seed", 1, "simulation seed")
	mflags := metrics.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()

	if err := mflags.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	reg := mflags.Registry()

	spec := server.JobSpec{Kind: server.KindAttack, Design: *dir, Cores: *cores, Seed: *seed,
		Rounds: *rounds, EvictionLines: *evLines}
	if err := spec.Normalize(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res, err := server.Run(context.Background(), spec, reg, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	target := trace.T0Lines()[0] // a line of the AES T0 table
	for _, rep := range res.([]server.AttackReport) {
		fmt.Printf("=== %s directory ===\n", rep.Design)
		fmt.Printf("victim core 0, attackers on cores 1..%d, target line %#x (AES T0[0])\n",
			*cores-1, uint64(target))
		fmt.Printf("evict+reload:  accuracy %.2f (0.50 = chance), victim copy evicted in %d/%d rounds\n",
			rep.EvictReloadAccuracy, rep.VictimEvictions, rep.Rounds)
		fmt.Printf("prime+probe:   signal %.2f extra probe misses/round when the victim is active\n", rep.PrimeProbeSignal)
		fmt.Printf("evict+time:    victim runs %.1f cycles slower when its operation touches the target\n", rep.EvictTimeSignal)
		fmt.Printf("key recovery:  %d/%d key nibbles recovered after %d observed encryptions\n",
			rep.KeyNibblesRecovered, rep.KeyNibblesTotal, rep.Encryptions)
		fmt.Printf("victim inclusion victims (shared-structure conflicts): %d\n", rep.InclusionVictims)
		if rep.VictimEvictions == 0 {
			fmt.Println("-> the attacker forced no evictions of the victim's private copies;")
			fmt.Println("   the reload carries no information.")
		} else {
			fmt.Println("-> directory conflicts evicted the victim's private copies;")
			fmt.Println("   the attacker reads the victim's access pattern.")
		}
		fmt.Println()
	}
	if err := mflags.Finish(reg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
