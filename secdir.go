// Package secdir is a behavioural simulator of SecDir, the secure
// cache-coherence directory of Yan, Wen, Fletcher and Torrellas (ISCA 2019),
// together with the Skylake-X-style baseline directory it hardens, a MOESI
// multicore cache model, the paper's workloads, and a directory side-channel
// attack toolkit.
//
// The package is a facade over the implementation packages:
//
//   - NewMachine builds a multicore machine (private L1/L2 per core, one
//     LLC/directory slice per core) with either the Baseline directory
//     (TD + 12-way ED, Figure 2a) or SecDir (TD + 8-way ED + per-core cuckoo
//     Victim Directories, Figure 2b).
//   - Run drives a Workload over a machine and reports IPC and L2-miss
//     breakdowns.
//   - The trace constructors (SPEC mixes, PARSEC applications, the AES
//     T-table victim) rebuild the paper's evaluation workloads.
//   - The attack functions mount cross-core conflict-based directory
//     attacks (evict+reload, prime+probe) and report whether they succeed.
//
// Quick start:
//
//	cfg := secdir.SecDirConfig(8)
//	m, err := secdir.NewMachine(cfg)
//	...
//	res := m.Access(0, secdir.LineOf(0x1234_0000), false)
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the reproduction
// of every table and figure in the paper.
package secdir

import (
	"secdir/internal/addr"
	"secdir/internal/attack"
	"secdir/internal/coherence"
	"secdir/internal/config"
	"secdir/internal/sim"
	"secdir/internal/trace"
)

// Core types, aliased so the public API is self-contained.
type (
	// Config describes a simulated machine (caches, directory geometry,
	// latencies). Use SkylakeX or SecDirConfig for the paper's designs.
	Config = config.Config
	// Line is a physical cache-line address.
	Line = addr.Line
	// Workload binds one access-trace generator per core.
	Workload = trace.Workload
	// Generator produces a core's memory access stream.
	Generator = trace.Generator
	// Access is one memory reference of a generator.
	Access = trace.Access
	// AccessResult reports where a single access was satisfied.
	AccessResult = coherence.AccessResult
	// Result is the outcome of a Run.
	Result = sim.Result
	// RunOptions configures a Run.
	RunOptions = sim.Options
)

// Directory organizations.
const (
	// Baseline is the Skylake-X-style directory, vulnerable to
	// conflict-based directory attacks.
	Baseline = config.Baseline
	// SecDir is the paper's secure directory.
	SecDir = config.SecDir
	// WayPartitioned is the §1/§11 DAWG-style alternative: secure but
	// inflexible (unbuildable beyond 11 cores at baseline geometry).
	WayPartitioned = config.WayPartitioned
)

// Access levels, re-exported for classifying AccessResult.Level.
const (
	LevelL1     = coherence.LevelL1
	LevelL2     = coherence.LevelL2
	LevelEDTD   = coherence.LevelEDTD
	LevelVD     = coherence.LevelVD
	LevelMemory = coherence.LevelMemory
)

// Coherence protocols (Config.Protocol).
const (
	// MOESI is the paper's evaluation protocol (§8).
	MOESI = config.MOESI
	// MESI writes dirty data back on read-sharing instead of keeping an
	// Owned copy.
	MESI = config.MESI
)

// Timing-channel mitigations (§6, Config.Mitigation).
const (
	// MitigationOff leaves the VD timing difference observable.
	MitigationOff = config.MitigationOff
	// MitigationNaive pads every ED/TD-satisfied transaction.
	MitigationNaive = config.MitigationNaive
	// MitigationSelective pads only cross-core transactions.
	MitigationSelective = config.MitigationSelective
)

// SkylakeX returns the baseline machine configuration of Tables 3/4.
func SkylakeX(cores int) Config { return config.SkylakeX(cores) }

// SecDirConfig returns the SecDir machine configuration of Table 4.
func SecDirConfig(cores int) Config { return config.SecDirConfig(cores) }

// WayPartitionedConfig returns the way-partitioned alternative design;
// NewMachine fails once cores exceed the directory way count.
func WayPartitionedConfig(cores int) Config { return config.WayPartitionedConfig(cores) }

// RandMappedConfig returns the CEASER-style randomized directory, re-keying
// all of it every rekeyEvery slice operations.
func RandMappedConfig(cores, rekeyEvery int) Config {
	return config.RandMappedConfig(cores, rekeyEvery)
}

// LineOf returns the cache line containing the physical byte address.
func LineOf(pa uint64) Line { return addr.LineOf(pa) }

// Machine is a simulated multicore with a coherent cache hierarchy.
type Machine struct {
	eng *coherence.Engine
}

// NewMachine builds a machine from the configuration.
func NewMachine(cfg Config) (*Machine, error) {
	e, err := coherence.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &Machine{eng: e}, nil
}

// Access performs one memory access by a core and returns where it was
// satisfied and the latency charged.
func (m *Machine) Access(core int, line Line, write bool) AccessResult {
	return m.eng.Access(core, line, write)
}

// Contains reports whether the core's private caches hold the line.
func (m *Machine) Contains(core int, line Line) bool {
	return m.eng.L2Contains(core, line)
}

// Flush evicts every line from the core's private caches, updating the
// directory as ordinary evictions would.
func (m *Machine) Flush(core int) { m.eng.FlushCore(core) }

// CheckInvariants verifies the machine-wide coherence invariants; it returns
// nil when the directory, cache and sharer state are mutually consistent.
func (m *Machine) CheckInvariants() error { return m.eng.CheckInvariants() }

// Engine exposes the underlying coherence engine for advanced use
// (statistics, per-slice inspection, the attack toolkit).
func (m *Machine) Engine() *coherence.Engine { return m.eng }

// Run drives the workload over a machine, returning the measured-phase
// results. The machine comes from the engine pool and goes back to it when
// Run returns, setting opts.Metrics' dir/* occupancy gauges (see sim.New).
func Run(opts RunOptions) (Result, error) {
	r, err := sim.New(opts)
	if err != nil {
		return Result{}, err
	}
	defer r.Close()
	return r.Run(), nil
}

// Workload constructors (the paper's evaluation workloads).

// NewSpecMix returns SPEC mix i (0..11) of Table 5 for the given core count.
func NewSpecMix(i, cores int, seed int64) (Workload, error) {
	return trace.NewSpecMix(i, cores, seed)
}

// NewParsecWorkload returns the named PARSEC-like application with one
// thread per core. See ParsecNames for the catalogue.
func NewParsecWorkload(name string, cores int, seed int64) (Workload, error) {
	return trace.NewParsecWorkload(name, cores, seed)
}

// ParsecNames lists the PARSEC application catalogue.
func ParsecNames() []string { return trace.ParsecNames() }

// NewAESVictim returns a generator that performs AES-128 T-table encryptions
// of random plaintexts and emits the table-access trace (the §9 victim).
func NewAESVictim(key [16]byte, seed int64) Generator {
	return trace.NewAESVictim(key, seed)
}

// AEST0Lines returns the 16 cache lines of the AES T0 table, the monitoring
// targets of the §9 security evaluation.
func AEST0Lines() []Line { return trace.T0Lines() }

// Attack toolkit.

// EvictReloadResult is the outcome of an evict+reload attack.
type EvictReloadResult = attack.EvictReloadResult

// PrimeProbeResult is the outcome of a prime+probe attack.
type PrimeProbeResult = attack.PrimeProbeResult

// EvictReload mounts the cross-core evict+reload directory attack of §2.2
// against the target line: the attacker cores build a directory eviction set
// and try to observe whether the victim core accesses the target.
func (m *Machine) EvictReload(victim int, attackers []int, target Line, rounds int) (EvictReloadResult, error) {
	return attack.EvictReload(m.eng, victim, attackers, target, rounds, 32)
}

// PrimeProbe mounts the cross-core prime+probe directory attack against the
// target line.
func (m *Machine) PrimeProbe(victim int, attackers []int, target Line, rounds int) (PrimeProbeResult, error) {
	return attack.PrimeProbe(m.eng, victim, attackers, target, rounds, 32)
}

// EvictTimeResult is the outcome of an evict+time attack.
type EvictTimeResult = attack.EvictTimeResult

// KeyRecoveryResult is the outcome of the AES first-round key-recovery
// attack.
type KeyRecoveryResult = attack.KeyRecoveryResult

// EvictTime mounts the evict+time variant (§2.2): the attacker evicts via
// directory conflicts and then times the victim's operation.
func (m *Machine) EvictTime(victim int, attackers []int, target Line, rounds int) (EvictTimeResult, error) {
	return attack.EvictTime(m.eng, victim, attackers, target, rounds, 32)
}

// FloodReload mounts the brute-force variant of evict+reload: instead of a
// targeted eviction set, the attackers flood the target's home slice with
// floodLines lines across many sets — the only attack shape left against a
// randomized (CEASER-style) directory, at ~1000× the cost (§11).
func (m *Machine) FloodReload(victim int, attackers []int, target Line, rounds, floodLines int) (EvictReloadResult, error) {
	return attack.FloodReload(m.eng, victim, attackers, target, rounds, floodLines)
}

// RecoverAESKey mounts the end-to-end payload of the §9 scenario: the
// Osvik-Shamir-Tromer first-round attack carried by directory conflicts,
// recovering the high nibbles of AES key bytes 0, 4, 8 and 12 from a victim
// encrypting on victimCore. On SecDir the oracle saturates and every nibble
// comes back unrecovered (-1).
func (m *Machine) RecoverAESKey(victim int, attackers []int, key [16]byte, encsPerGuess int) (KeyRecoveryResult, error) {
	return attack.RecoverAESKey(m.eng, victim, attackers, key, encsPerGuess)
}
