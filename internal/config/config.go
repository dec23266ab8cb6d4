// Package config holds the architectural parameters of the simulated machine:
// the Intel Skylake-X-like baseline and the SecDir variant, following
// Tables 3 and 4 of the paper.
package config

import (
	"fmt"
	"strings"

	"secdir/internal/cachesim"
)

// DirectoryKind selects the directory organization of the simulated machine.
type DirectoryKind int

const (
	// Baseline is the Skylake-X-style directory: per-slice TD + 12-way ED
	// (Figure 2a, Figure 3a).
	Baseline DirectoryKind = iota
	// SecDir is the paper's design: per-slice TD + 8-way ED + per-core
	// cuckoo Victim Directory banks (Figure 2b, Figure 3b).
	SecDir
	// WayPartitioned is the §1/§11 alternative: directory ways statically
	// partitioned across cores (DAWG-style). Secure but inflexible — it
	// cannot be built at all once cores exceed the way count.
	WayPartitioned
	// SkewedDir is a SEED-style linearly-skewed directory: one unified table
	// whose every way is indexed by its own secret invertible affine map
	// over GF(2^n).
	SkewedDir
	// DLS is a directoryless shared LLC: coherence rides on inclusive
	// shared-cache tags, removing the directory side channel but keeping the
	// classic inclusive-LLC one.
	DLS
	// TagPartitioned gives every core a private tag partition mirroring its
	// L2 (data stays shared), so cross-core conflict evictions are
	// impossible by construction (after Ramkrishnan et al.).
	TagPartitioned
	// Ceaser is the §11 randomization-based alternative (CEASER-style): a
	// keyed set-index mix with two live keys and a remap pointer sweeping
	// the set space. Defeats targeted eviction sets but only slows flooding
	// attacks. A RemapStep of every set is the bulk re-key
	// (RandMappedConfig).
	Ceaser
)

// String implements fmt.Stringer.
func (k DirectoryKind) String() string {
	switch k {
	case Baseline:
		return "baseline"
	case SecDir:
		return "secdir"
	case WayPartitioned:
		return "way-partitioned"
	case SkewedDir:
		return "skewed"
	case DLS:
		return "dls"
	case TagPartitioned:
		return "tag-partitioned"
	case Ceaser:
		return "ceaser"
	default:
		return fmt.Sprintf("DirectoryKind(%d)", int(k))
	}
}

// Latencies holds the round-trip latency constants of Table 4, in cycles of
// the 2.0 GHz core clock.
type Latencies struct {
	L1RT        int // private L1 round trip
	L2RT        int // private L2 round trip
	DirLocalRT  int // directory/LLC slice on the local tile
	DirRemoteRT int // directory/LLC slice on a remote tile
	EBCheck     int // added when the VD Empty-Bit array is consulted
	VDAccess    int // added when the EB misses and the VD banks are read
	DRAMRT      int // main memory round trip after the L3 (50 ns at 2 GHz)
	CacheToCore int // extra hops to fetch a line from a remote L2

	// MLP is the memory-level-parallelism divisor applied to L2-miss
	// latency: an out-of-order core (8-issue, 32-entry load queue, Table 4)
	// overlaps independent misses, so the average stall per miss is the
	// round-trip latency divided by the achieved overlap. A first-order
	// constant models this; 1 yields a fully blocking core.
	MLP int

	// MeshHopRT, when positive, replaces the flat local/remote split with a
	// distance-based model of Table 4's 4×2 mesh: a directory access costs
	// DirLocalRT plus MeshHopRT round-trip cycles per Manhattan hop between
	// the requesting tile and the home slice's tile. 0 keeps the two-level
	// model.
	MeshHopRT int
}

// Config fully describes one simulated machine.
type Config struct {
	// Cores is the number of cores; the machine has one LLC/directory slice
	// per core. Must be a power of two for the slice hash.
	Cores int

	// Private caches. L1 is modeled as a subset of L2 so the directory
	// tracks L2 contents only (see DESIGN.md).
	L1Sets, L1Ways int
	L2Sets, L2Ways int

	// L2Policy selects the private-cache replacement policy (LRU default;
	// SRRIP and tree-PLRU model what shipping cores implement).
	L2Policy cachesim.Policy

	// Traditional Directory: coupled to the LLC slice (TDWays == LLC ways).
	TDSets, TDWays int

	// Extended Directory.
	EDSets, EDWays int

	// Directory organization.
	Kind DirectoryKind

	// Victim Directory (SecDir only): per-core bank geometry within a slice.
	VDSets, VDWays int
	// NumRelocations bounds the cuckoo relocation chain (8 in Table 4).
	NumRelocations int
	// VDCuckoo selects the cuckoo organization (CKVD) vs. a plain one-hash
	// bank (NoCKVD) — the Table 6 comparison.
	VDCuckoo bool
	// VDEmptyBit enables the Empty-Bit arrays that skip accesses to empty
	// VD sets (§5.2.2). This only affects latency/energy accounting.
	VDEmptyBit bool

	// Protocol selects the coherence protocol family. SecDir works with any
	// protocol (§4.2); the paper's evaluation uses MOESI, the §7 analysis
	// assumes MESI.
	Protocol Protocol

	// VDSearchBatch limits how many VD banks are searched at a time
	// (§5.1: "SecDir can save hardware by performing the VD search
	// operation in batches — e.g., by accessing and searching 8 VD banks at
	// a time"). 0 searches all banks in parallel. On reads, the search is
	// called off as soon as a matching entry is found.
	VDSearchBatch int

	// VDStash adds a small fully-associative stash to each VD bank that
	// absorbs entries a failed cuckoo relocation chain would otherwise
	// evict — one of the "more sophisticated cuckoo" extensions §10.3
	// leaves to future work. 0 disables it.
	VDStash int

	// Mitigation selects the §6 defense against the VD timing side channel
	// (the VD is accessed after the ED/TD, so coherence transactions that
	// find their entry in a VD take ~7 cycles longer; an attacker timing a
	// multithreaded victim could tell where the victim's entries live).
	Mitigation TimingMitigation

	// AppendixAFix allows TD entries to be associated with empty LLC lines,
	// so an ED->TD migration does not invalidate an Exclusive private copy.
	// The paper incorporates this fix in SecDir (Appendix A); the unfixed
	// behaviour reproduces the Skylake-X prime+probe vulnerability.
	AppendixAFix bool

	// DisableEDTD disables the shared ED and TD entirely, leaving only the
	// VDs. This emulates the most powerful adversary of §9, which fully
	// controls ED and TD.
	DisableEDTD bool

	// RekeyEvery (Ceaser only) is the number of slice operations between
	// remap steps; 0 never re-keys.
	RekeyEvery int

	// RemapStep (Ceaser only) is the number of sets relocated per remap
	// step; 0 picks sets/64, a full epoch every 64 steps, and TDSets
	// re-keys the whole directory at once.
	RemapStep int

	Lat Latencies

	// Seed feeds every PRNG in the machine (replacement, cuckoo picks).
	Seed int64
}

// Protocol selects the coherence protocol family.
type Protocol int

const (
	// MOESI lets a dirty line be shared: the owner downgrades M→O on a
	// remote read and keeps the only dirty copy (no memory write-back).
	MOESI Protocol = iota
	// MESI has no Owned state: a remote read of a Modified line writes the
	// dirty data back to memory and both copies become Shared.
	MESI
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case MOESI:
		return "MOESI"
	case MESI:
		return "MESI"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// TimingMitigation selects how the §6 VD timing side channel is closed.
type TimingMitigation int

const (
	// MitigationOff leaves the timing difference observable (the paper's
	// evaluated design; the channel needs cross-thread communication and is
	// hard to exploit, §6).
	MitigationOff TimingMitigation = iota
	// MitigationNaive slows every ED/TD-satisfied transaction by the time a
	// VD access would have added, so entry location is timing-invisible.
	MitigationNaive
	// MitigationSelective applies the slowdown only to ED/TD-satisfied
	// transactions that involve invalidating or querying another core's
	// cache — the only transactions whose latency a victim's sharing
	// partner can observe (§6's "more advanced solution").
	MitigationSelective
)

// String implements fmt.Stringer.
func (m TimingMitigation) String() string {
	switch m {
	case MitigationOff:
		return "off"
	case MitigationNaive:
		return "naive"
	case MitigationSelective:
		return "selective"
	default:
		return fmt.Sprintf("TimingMitigation(%d)", int(m))
	}
}

// DefaultLatencies returns the Table 4 latency constants.
func DefaultLatencies() Latencies {
	return Latencies{
		L1RT:        4,
		L2RT:        10,
		DirLocalRT:  30,
		DirRemoteRT: 50,
		EBCheck:     2,
		VDAccess:    5,
		DRAMRT:      100, // 50 ns at 2.0 GHz
		CacheToCore: 40,  // remote-L2 forwarding beyond the directory hop
		MLP:         4,
	}
}

// SkylakeX returns the baseline configuration of Tables 3/4 for the given
// core count: 32 KB 8-way L1D, 1 MB 16-way L2, per-slice 11-way 2048-set TD
// (coupled to the 1.375 MB 11-way LLC slice) and 12-way 2048-set ED.
//
// The baseline models the Skylake-X implementation limitation of Appendix A
// (AppendixAFix == false): every TD entry must own LLC data, so an ED→TD
// migration of an exclusively-held line invalidates the private copy. Only
// SecDir incorporates the fix ("Such a fix has been incorporated in our
// SecDir implementation", Appendix A).
func SkylakeX(cores int) Config {
	return Config{
		Cores:  cores,
		L1Sets: 64, L1Ways: 8,
		L2Sets: 1024, L2Ways: 16,
		TDSets: 2048, TDWays: 11,
		EDSets: 2048, EDWays: 12,
		Kind:         Baseline,
		AppendixAFix: false,
		Lat:          DefaultLatencies(),
		Seed:         1,
	}
}

// SecDirConfig returns the SecDir configuration of Table 4 for the given core
// count: the ED gives up 4 of its 12 ways to per-core VD banks; with 8 cores
// each bank is 4-way with 512 sets, so a core's distributed VD holds
// 8 slices × 512 × 4 = 16384 entries — as many as lines in the 1 MB L2.
func SecDirConfig(cores int) Config {
	c := SkylakeX(cores)
	c.Kind = SecDir
	c.AppendixAFix = true
	c.EDWays = 8
	c.VDWays = 4
	// Size the per-core distributed VD to the number of L2 lines:
	// cores banks machine-wide, VDSets*VDWays entries each.
	l2Lines := c.L2Sets * c.L2Ways
	c.VDSets = ceilPow2(l2Lines / (cores * c.VDWays))
	c.NumRelocations = 8
	c.VDCuckoo = true
	c.VDEmptyBit = true
	return c
}

// RandMappedConfig returns the CEASER-style randomized directory at baseline
// geometry with a bulk re-key every rekeyEvery slice operations (0 = never):
// a ceaser directory whose one remap step sweeps every set.
func RandMappedConfig(cores, rekeyEvery int) Config {
	c := CeaserConfig(cores, rekeyEvery)
	c.RemapStep = c.TDSets
	return c
}

// WayPartitionedConfig returns the way-partitioned alternative design at
// baseline geometry. Construction fails (NewEngine returns an error) once
// the core count exceeds the TD or ED way count.
func WayPartitionedConfig(cores int) Config {
	c := SkylakeX(cores)
	c.Kind = WayPartitioned
	c.AppendixAFix = true
	return c
}

// SkewedConfig returns the SEED-style skewed directory at baseline geometry:
// the TD + ED way budget folded into one GF(2^n)-skewed table.
func SkewedConfig(cores int) Config {
	c := SkylakeX(cores)
	c.Kind = SkewedDir
	c.AppendixAFix = true
	return c
}

// DLSConfig returns the directoryless shared-LLC design at baseline geometry:
// the directory storage folded back into the inclusive LLC tag array.
func DLSConfig(cores int) Config {
	c := SkylakeX(cores)
	c.Kind = DLS
	c.AppendixAFix = true
	return c
}

// TagPartConfig returns the tag-partitioned / data-shared design at baseline
// geometry: the TD + ED way budget split into per-core tag partitions.
func TagPartConfig(cores int) Config {
	c := SkylakeX(cores)
	c.Kind = TagPartitioned
	c.AppendixAFix = true
	return c
}

// CeaserConfig returns the gradually-remapped randomized directory at
// baseline geometry, taking one remap step every rekeyEvery slice operations
// (0 = never).
func CeaserConfig(cores, rekeyEvery int) Config {
	c := SkylakeX(cores)
	c.Kind = Ceaser
	c.AppendixAFix = true
	c.RekeyEvery = rekeyEvery
	return c
}

// rivalRekeyEvery is the remap cadence of the catalogue's ceaser design: one
// incremental step every 20k slice operations sweeps a full epoch in ~1.3M
// operations at the default 64-step schedule.
const rivalRekeyEvery = 20_000

// designs is the design catalogue: every directory-design name the tools,
// the job server and the leakage lab accept, in listing order, with the one
// configuration it means.
var designs = []struct {
	name  string
	build func(cores int) Config
}{
	{"skylake-unfixed", SkylakeX},
	{"baseline", SkylakeX},
	{"skylake-fixed", func(cores int) Config {
		c := SkylakeX(cores)
		c.AppendixAFix = true
		return c
	}},
	{"secdir", SecDirConfig},
	{"waypart", WayPartitionedConfig},
	{"randmap", func(cores int) Config { return RandMappedConfig(cores, 200_000) }},
	{"skewed", SkewedConfig},
	{"dls", DLSConfig},
	{"tagpart", TagPartConfig},
	{"ceaser", func(cores int) Config { return CeaserConfig(cores, rivalRekeyEvery) }},
}

// Names lists every design name ByName resolves, in catalogue order.
// "baseline" is an alias of "skylake-unfixed": the Skylake-X baseline with
// the Appendix A limitation; "skylake-fixed" is the same geometry with the
// fix.
func Names() []string {
	out := make([]string, len(designs))
	for i, d := range designs {
		out[i] = d.name
	}
	return out
}

// ByName returns the validated configuration a design name means at the
// given core count. An unknown name, or a core count the simulator cannot
// model, is an error.
func ByName(name string, cores int) (Config, error) {
	for _, d := range designs {
		if d.name == name {
			c := d.build(cores)
			if err := c.Validate(); err != nil {
				return Config{}, fmt.Errorf("%s: %w", name, err)
			}
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("config: unknown design %q (want one of %s)", name, strings.Join(Names(), ", "))
}

// ceilPow2 returns the smallest power of two >= v (minimum 1).
func ceilPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// L2Lines returns the number of lines a private L2 holds.
func (c Config) L2Lines() int { return c.L2Sets * c.L2Ways }

// WithSeed returns a copy of the configuration reseeded for one independent
// trial — the seeding hook Monte-Carlo harnesses (internal/leakage) use to
// derive per-trial machines from one base configuration.
func (c Config) WithSeed(seed int64) Config {
	c.Seed = seed
	return c
}

// VDEntriesPerCore returns the number of VD entries a single core owns
// machine-wide (one bank per slice, Cores slices).
func (c Config) VDEntriesPerCore() int {
	if c.Kind != SecDir {
		return 0
	}
	return c.Cores * c.VDSets * c.VDWays
}

// MaxCores is the largest machine the simulator models: a directory
// entry's sharer vector (directory.Bitset) is one uint64, one bit per core,
// so a core numbered 64 or above would silently never be recorded as a
// sharer. Larger machines are analysed analytically in internal/area.
const MaxCores = 64

// Validate checks structural requirements and returns a descriptive error.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0 || c.Cores&(c.Cores-1) != 0:
		return fmt.Errorf("config: cores must be a positive power of two, got %d", c.Cores)
	case c.Cores > MaxCores:
		return fmt.Errorf("config: cores must be at most %d, the width of the directory's uint64 sharer Bitset, got %d", MaxCores, c.Cores)
	case c.TDSets != c.EDSets:
		return fmt.Errorf("config: TD and ED must have the same set count (%d != %d); entries migrate within a set index", c.TDSets, c.EDSets)
	case c.Kind == SecDir && (c.VDSets <= 0 || c.VDWays <= 0):
		return fmt.Errorf("config: SecDir requires VD geometry, got %dx%d", c.VDSets, c.VDWays)
	case c.DisableEDTD && c.Kind != SecDir:
		return fmt.Errorf("config: DisableEDTD requires the SecDir directory")
	}
	for _, d := range []struct {
		name string
		v    int
	}{
		{"L1Sets", c.L1Sets}, {"L2Sets", c.L2Sets}, {"TDSets", c.TDSets}, {"EDSets", c.EDSets},
	} {
		if d.v <= 0 || d.v&(d.v-1) != 0 {
			return fmt.Errorf("config: %s must be a positive power of two, got %d", d.name, d.v)
		}
	}
	return nil
}
