// Package area models directory storage and silicon area: exact bit counts
// for the TD, ED and VD structures under the paper's §7 assumptions (MESI,
// full-mapped presence vector, 40-bit physical addresses), the VD sizing
// search behind Figure 5, the storage-crossover analysis of §7, the
// Table 7 storage/area comparison, and the §2.3 required-associativity bound.
//
// Area is reported by a linear model (per-KB cost plus a per-bank overhead)
// fitted to the four CACTI-7 22 nm datapoints of Table 7; storage in KB is
// exact.
package area

import "secdir/internal/config"

// Paper constants (Table 3, §7).
const (
	// TDEntryTagBits and EDEntryTagBits are the 29-bit address tags of the
	// 2048-set TD and ED.
	TDEntryTagBits = 29
	EDEntryTagBits = 29
	// VDEntryTagBits: a VD bank is indexed with skewing hash functions, so
	// the set-index bits cannot be dropped from the tag; only the slice-
	// selection bits are implicit. 34 line-address bits minus 3 slice bits.
	VDEntryTagBits = 31
	// VDEntryOverheadBits: Valid + Cuckoo bit.
	VDEntryOverheadBits = 2
	// EmptyBitPerSet: one EB per VD set (§5.2.2).
	EmptyBitPerSet = 1

	// Skylake-X geometry (Table 3).
	DirSets    = 2048
	TDWays     = 11
	EDWaysBase = 12
	L2Lines    = 16384 // 1 MB, 64 B lines
	L2Ways     = 16
	LLCWays    = 11
	MinVDWays  = 3
	MaxVDWays  = 8
)

// TDEntryBits returns the size of one TD entry for an N-core machine:
// tag + Valid + Dirty + N presence bits.
func TDEntryBits(cores int) int { return TDEntryTagBits + 2 + cores }

// EDEntryBits returns the size of one ED entry: tag + Valid + N presence.
func EDEntryBits(cores int) int { return EDEntryTagBits + 1 + cores }

// VDEntryBits returns the size of one VD entry: tag + Valid + Cuckoo. A VD
// is core-private, so it needs no sharer information — the insight that makes
// SecDir area-efficient.
func VDEntryBits() int { return VDEntryTagBits + VDEntryOverheadBits }

// TDBits returns the per-slice TD storage in bits.
func TDBits(cores int) uint64 {
	return uint64(DirSets) * uint64(TDWays) * uint64(TDEntryBits(cores))
}

// EDBits returns the per-slice ED storage in bits for the given way count.
func EDBits(ways, cores int) uint64 {
	return uint64(DirSets) * uint64(ways) * uint64(EDEntryBits(cores))
}

// VDBankBits returns the storage of one VD bank: entries plus the Empty-Bit
// array.
func VDBankBits(sets, ways int) uint64 {
	return uint64(sets)*uint64(ways)*uint64(VDEntryBits()) + uint64(sets)*EmptyBitPerSet
}

// KB converts bits to kilobytes (1024 bytes).
func KB(bits uint64) float64 { return float64(bits) / 8 / 1024 }

// Area model fitted to the CACTI-7 22 nm datapoints of Table 7:
// TD (107.25 KB → 0.080 mm²), ED12 (114 KB → 0.087), ED8 (76 KB → 0.057),
// VD (66.5 KB in 8 banks → 0.057).
const (
	mm2PerKB   = 0.080 / 107.25 // ≈ 0.000746 mm² per KB of directory SRAM
	mm2PerBank = 0.00093        // per-bank peripheral overhead
)

// AreaMM2 estimates silicon area for kb kilobytes of directory storage
// organised into the given number of independently accessed banks
// (1 for TD/ED).
func AreaMM2(kb float64, banks int) float64 {
	return kb*mm2PerKB + float64(banks-1)*mm2PerBank
}

// Sizing is one point of the Figure 5 design-space search.
type Sizing struct {
	Cores int
	WED   int // ED ways retained by SecDir
	WVD   int // chosen VD bank associativity
	SVD   int // chosen VD bank set count (power of two)
	// EntriesPerCore is the number of VD entries one core owns
	// machine-wide (Cores banks of SVD×WVD entries).
	EntriesPerCore int
	// Ratio is EntriesPerCore / L2Lines — the y-axis of Figure 5.
	Ratio float64
}

// SizeVD performs the §7 sizing search for an equal-storage SecDir design:
// the storage of the (12−wED) ED ways given up is divided into Cores VD
// banks per slice; among bank associativities 3..8 it picks the design with
// the highest entry count and a power-of-two set count that fits.
func SizeVD(cores, wED int) Sizing {
	budget := EDBits(EDWaysBase, cores) - EDBits(wED, cores) // bits per slice
	perBank := budget / uint64(cores)
	best := Sizing{Cores: cores, WED: wED}
	for wVD := MinVDWays; wVD <= MaxVDWays; wVD++ {
		setCost := uint64(wVD*VDEntryBits()) + EmptyBitPerSet
		sVD := 1
		for uint64(sVD*2)*setCost <= perBank {
			sVD *= 2
		}
		if uint64(sVD)*setCost > perBank {
			continue // not even one set fits
		}
		entries := sVD * wVD
		// Highest entry count wins; ties prefer lower associativity
		// (faster bank access).
		if entries > best.SVD*best.WVD || best.SVD == 0 {
			best.WVD, best.SVD = wVD, sVD
		}
	}
	best.EntriesPerCore = cores * best.SVD * best.WVD
	best.Ratio = float64(best.EntriesPerCore) / float64(L2Lines)
	return best
}

// FullVDBank returns the minimal power-of-two bank geometry whose Cores banks
// give a core at least L2Lines entries machine-wide: the "per-core VD as
// large as the L2" guideline of §7 (4-way 512-set banks for 8 cores).
func FullVDBank(cores int) (sets, ways int) {
	need := (L2Lines + cores - 1) / cores
	bestEntries := 1 << 62
	for w := MinVDWays; w <= MaxVDWays; w++ {
		s := 1
		for s*w < need {
			s *= 2
		}
		// Fewest entries ≥ need wins; ties prefer the lower associativity,
		// keeping bank accesses fast (§5.1 keeps W_VD modest).
		if e := s * w; e < bestEntries {
			bestEntries, sets, ways = e, s, w
		}
	}
	return sets, ways
}

// SliceStorage is the per-slice storage of one design, in bits.
type SliceStorage struct {
	TD, ED, VD uint64
}

// Total returns the slice's total directory bits.
func (s SliceStorage) Total() uint64 { return s.TD + s.ED + s.VD }

// SkylakeSlice returns the baseline per-slice storage.
func SkylakeSlice(cores int) SliceStorage {
	return SliceStorage{TD: TDBits(cores), ED: EDBits(EDWaysBase, cores)}
}

// SecDirSlice returns the per-slice storage of the §8 SecDir design: the ED
// keeps 8 ways and the per-core VD holds at least L2Lines entries
// machine-wide.
func SecDirSlice(cores, wED int) SliceStorage {
	sets, ways := FullVDBank(cores)
	return SliceStorage{
		TD: TDBits(cores),
		ED: EDBits(wED, cores),
		VD: uint64(cores) * VDBankBits(sets, ways),
	}
}

// Entry-size helpers for the rival defenses of the cross-defense leaderboard.
// Designs whose set index is a keyed or skewed function of the address cannot
// drop the set-index bits from the tag (same argument as the VD's 31-bit
// tag); conventionally indexed structures store the 29-bit tag of a 2048-set
// array.
const (
	// FullTagBits is the tag width when no address bits are implicit in the
	// set index: 34 line-address bits minus 3 slice-selection bits.
	FullTagBits = 31
)

// SkewedEntryBits returns one entry of the SEED-style skewed table: full tag
// (the per-way GF index makes no bit implicit) + Valid + Dirty + HasData +
// presence vector.
func SkewedEntryBits(cores int) int { return FullTagBits + 3 + cores }

// DLSEntryBits returns one entry of the directoryless shared-LLC tag array:
// conventional tag + Valid + Dirty + presence vector (every entry owns an
// LLC slot, so no HasData bit is needed).
func DLSEntryBits(cores int) int { return TDEntryTagBits + 2 + cores }

// TagPartEntryBits returns one entry of a per-core tag partition: tag +
// Valid. The partition index is the sharer and data lives wherever the
// protocol put it, so neither a presence vector nor data bits are stored —
// the design's storage win.
func TagPartEntryBits() int { return TDEntryTagBits + 1 }

// DefenseStorage returns the per-slice directory storage and the number of
// independently accessed banks of a directory design at baseline geometry
// (2048 sets, 11 TD + 12 ED ways of budget) on c.Cores cores. A kind the
// cost model does not know returns ok == false.
func DefenseStorage(c config.Config) (s SliceStorage, banks int, ok bool) {
	cores := c.Cores
	unified := uint64(DirSets) * uint64(TDWays+EDWaysBase)
	switch c.Kind {
	case config.Baseline, config.WayPartitioned:
		// Way partitioning divides the baseline's arrays among the cores.
		return SkylakeSlice(cores), 2, true
	case config.SecDir:
		return SecDirSlice(cores, 8), 2 + cores, true
	case config.SkewedDir:
		// One unified table; every way is its own independently decoded
		// array (per-way index functions), hence one bank per way.
		return SliceStorage{TD: unified * uint64(SkewedEntryBits(cores))}, TDWays + EDWaysBase, true
	case config.DLS:
		// The TD+ED budget folded back into the inclusive LLC tag array.
		return SliceStorage{TD: unified * uint64(DLSEntryBits(cores))}, 1, true
	case config.TagPartitioned:
		// Per-core partitions of the unified way budget (minimum 1 way each).
		ways := (TDWays + EDWaysBase) / cores
		if ways < 1 {
			ways = 1
		}
		bits := uint64(cores) * uint64(DirSets) * uint64(ways) * uint64(TagPartEntryBits())
		return SliceStorage{TD: bits}, cores, true
	case config.Ceaser:
		// Baseline structure under a keyed index: full tags, plus nothing
		// else worth counting (two 64-bit keys per slice vanish at KB scale).
		td := uint64(DirSets) * uint64(TDWays) * uint64(FullTagBits+2+cores)
		ed := uint64(DirSets) * uint64(EDWaysBase) * uint64(FullTagBits+1+cores)
		return SliceStorage{TD: td, ED: ed}, 2, true
	}
	return SliceStorage{}, 0, false
}

// StorageCrossover returns the smallest core count at which the SecDir design
// (ED with wED ways + full-size per-core VD) uses no more directory storage
// than the Skylake-X baseline — the "44 cores or more" claim of §7.
func StorageCrossover(wED int) int {
	for n := 2; n <= 4096; n++ {
		if SecDirSlice(n, wED).Total() <= SkylakeSlice(n).Total() {
			return n
		}
	}
	return -1
}

// RequiredAssociativity returns the per-slice directory associativity a
// victim needs to be guaranteed one live entry against an attacker using all
// other cores: W_L2 × (N−1) + W_LLC (§2.3).
func RequiredAssociativity(cores int) int {
	return L2Ways*(cores-1) + LLCWays
}
