// Package leakage is the statistical leakage-quantification lab: it turns
// the raw per-round signals of internal/attack into verdicts. A Monte-Carlo
// trial runner executes N independently seeded machines per (configuration,
// strategy) pair, splits each trial's rounds into victim-active and
// victim-idle halves under a randomized balanced schedule (TVLA-style
// fixed-vs-random interleaving), and tests the two observable distributions
// against each other: Welch's t (the TVLA |t| > 4.5 convention), a plug-in
// mutual-information / channel-capacity estimate in bits per trial, and a
// distinguisher ROC AUC with a seeded bootstrap confidence interval. The
// outcome is a Report comparing skylake-unfixed vs. skylake-fixed vs. secdir
// per strategy — "this configuration leaks / does not leak", at a stated
// confidence, instead of a bag of counters.
package leakage

import (
	"fmt"
	"strings"

	"secdir/internal/attack"
	"secdir/internal/coherence"
	"secdir/internal/config"
)

// Strategy is one pluggable attack behind the trial loop. The five directory
// attacks of internal/attack (PrimeProbeStrategy, EvictReloadStrategy,
// EvictTimeStrategy, FloodReloadStrategy, MonitorStrategy) implement it.
type Strategy interface {
	// Name is the strategy's CLI/JSON identifier.
	Name() string
	// DefaultLines is the conflict-set size used when the caller does not
	// override it (FloodReload's flood is far larger than a targeted set).
	DefaultLines() int
	// NewDriver mounts the attack on e, which is freshly built or just
	// Reset. The trial runner mounts once per worker and engine, and
	// before each later trial resets the engine and calls the driver's
	// Rearm.
	NewDriver(e *coherence.Engine, p attack.Params) (attack.Driver, error)
}

// Strategies returns every built-in strategy, in canonical order.
func Strategies() []Strategy {
	return []Strategy{
		attack.PrimeProbeStrategy{},
		attack.EvictReloadStrategy{},
		attack.EvictTimeStrategy{},
		attack.FloodReloadStrategy{},
		attack.MonitorStrategy{},
	}
}

// DefaultSuite returns the strategies a full report runs by default: every
// built-in except floodreload, whose ~10^5 accesses per round make it a
// deliberate opt-in for Monte-Carlo trial counts.
func DefaultSuite() []Strategy {
	out := make([]Strategy, 0, 4)
	for _, s := range Strategies() {
		if s.Name() != "floodreload" {
			out = append(out, s)
		}
	}
	return out
}

// StrategyNames returns the names of ss in order.
func StrategyNames(ss []Strategy) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Name()
	}
	return out
}

// ParseStrategy resolves a strategy name.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range Strategies() {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("leakage: unknown strategy %q (want one of %s)",
		name, strings.Join(StrategyNames(Strategies()), ","))
}

// ConfigNames lists the directory configurations a report compares by
// default, in canonical order: the Skylake-X baseline with and without the
// Appendix A fix, and SecDir.
var ConfigNames = []string{"skylake-unfixed", "skylake-fixed", "secdir"}

// RivalNames lists the rival secure-directory designs the cross-defense
// leaderboard races against the canonical trio: the SEED-style GF(2^n)
// skewed directory, the directoryless shared LLC, the tag-partitioned /
// data-shared isolation design, and the gradually-remapped CEASER variant.
var RivalNames = []string{"skewed", "dls", "tagpart", "ceaser"}

// AllConfigNames returns every parseable configuration name: the canonical
// trio followed by the rivals.
func AllConfigNames() []string {
	return append(append([]string(nil), ConfigNames...), RivalNames...)
}

// ParseConfig resolves a configuration name at the given core count
// through the design catalogue (config.ByName): skylake-unfixed is the
// Skylake-X baseline with the Appendix A implementation limitation (an
// ED→TD migration invalidates an Exclusive private copy), skylake-fixed the
// same geometry with the fix, secdir the paper's defense, and the rival
// names the alternative defenses of the cross-defense leaderboard
// (RivalNames). An unknown name, or a core count the simulator cannot model
// (not a power of two, or above config.MaxCores), is an error.
func ParseConfig(name string, cores int) (config.Config, error) {
	c, err := config.ByName(name, cores)
	if err != nil {
		return config.Config{}, fmt.Errorf("leakage: %w", err)
	}
	return c, nil
}

// splitList parses a comma-separated CLI list, trimming blanks and expanding
// "all" (and the empty string) to defs, deduplicating while keeping order.
func splitList(spec string, defs []string) []string {
	if spec == "" || spec == "all" {
		return append([]string(nil), defs...)
	}
	seen := map[string]bool{}
	var out []string
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" || seen[f] {
			continue
		}
		seen[f] = true
		out = append(out, f)
	}
	return out
}

// ParseConfigList expands a comma-separated configuration list ("" means the
// canonical ConfigNames trio, "all" additionally includes every rival
// defense) and validates each name.
func ParseConfigList(spec string, cores int) ([]string, error) {
	defs := ConfigNames
	if spec == "all" {
		defs = AllConfigNames()
	}
	names := splitList(spec, defs)
	for _, n := range names {
		if _, err := ParseConfig(n, cores); err != nil {
			return nil, err
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("leakage: empty config list %q", spec)
	}
	return names, nil
}

// ParseStrategyList expands a comma-separated strategy list ("" and "suite"
// mean the default suite, "all" every strategy) and resolves each name.
func ParseStrategyList(spec string) ([]Strategy, error) {
	switch spec {
	case "", "suite":
		return DefaultSuite(), nil
	case "all":
		return Strategies(), nil
	}
	names := splitList(spec, nil)
	out := make([]Strategy, 0, len(names))
	for _, n := range names {
		s, err := ParseStrategy(n)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("leakage: empty strategy list %q", spec)
	}
	return out, nil
}
