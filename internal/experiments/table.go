package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"secdir/internal/config"
)

// Artifact names one paper artifact: its experiment ID, the data/ file its
// table is pinned to, and the title the CLI prints above it.
type Artifact struct {
	ID    string
	File  string
	Title string
}

// Artifacts lists every experiment in the canonical order DESIGN.md uses. It
// is the only list of experiment IDs: the CLI, the job server and the golden
// tests all resolve IDs through it and build rows through Table.
var Artifacts = []Artifact{
	{"A1", "A1_associativity.csv", "§2.3: directory associativity required to resist a conflict attack"},
	{"F5", "F5_vd_sizing.csv", "Figure 5: #per-core VD entries / #L2 lines (equal storage to Skylake-X)"},
	{"F6", "F6_aes_trace.csv", "Figure 6: AES T0 accesses on SecDir with VD only (no ED/TD)"},
	{"F7", "F7_spec.csv", "Figure 7: SPEC mixes (normalized IPC, L2-miss breakdown)"},
	{"F8", "F8_parsec.csv", "Figure 8: PARSEC (normalized execution time, L2-miss breakdown)"},
	{"T6", "T6_vd_features.csv", "Table 6: Empty Bit (EBVD/NoEBVD) and cuckoo (CKVD/NoCKVD)"},
	{"T7", "T7_storage_area.csv", "Table 7: per-slice directory storage and area (CACTI-fitted model)"},
	{"S1", "S1_security.csv", "§9: conflict-based directory attacks against both designs"},
	{"SC", "SC_scaling.csv", "scaling: the attack vs. core count (§2.3, §4.1)"},
	{"ALT", "ALT_designs.csv", "§1/§11 design space: secure-directory alternatives (mix2 + two attacks)"},
}

// Lookup returns the artifact with the given ID, or an error naming the
// valid IDs.
func Lookup(id string) (Artifact, error) {
	for _, a := range Artifacts {
		if a.ID == id {
			return a, nil
		}
	}
	return Artifact{}, fmt.Errorf("unknown experiment %q (want one of %s)", id, strings.Join(IDs(), ","))
}

// IDs returns every experiment ID in Artifacts order.
func IDs() []string {
	ids := make([]string, len(Artifacts))
	for i, a := range Artifacts {
		ids[i] = a.ID
	}
	return ids
}

// Validate rejects a machine no experiment can build, with the same checks
// config.Validate applies to every simulated configuration.
func (o RunOpts) Validate() error {
	return config.SkylakeX(o.Cores).Validate()
}

// Table runs one experiment and returns its table: the header and rows that
// the CLI prints, writes with -csv and the server returns, and that data/
// pins byte-for-byte after golden.Encode.
func Table(ctx context.Context, id string, o RunOpts) (head []string, rows [][]string, err error) {
	if _, err := Lookup(id); err != nil {
		return nil, nil, err
	}
	if err := o.Validate(); err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	switch id {
	case "A1":
		for _, r := range AssociativityAnalysis() {
			rows = append(rows, []string{itoa(r.Cores), itoa(r.Required), itoa(r.Provided)})
		}
		return []string{"cores", "required", "provided"}, rows, nil
	case "F5":
		for _, r := range Fig5VDSizing() {
			row := []string{itoa(r.Cores)}
			for wED := 6; wED <= 10; wED++ {
				row = append(row, ftoa(r.Ratios[wED]))
			}
			rows = append(rows, row)
		}
		return []string{"cores", "wed6", "wed7", "wed8", "wed9", "wed10"}, rows, nil
	case "F6":
		res, err := Fig6AESTrace(ctx, o)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range res.Points {
			cls := "l1l2"
			if p.MemAccess {
				cls = "memory"
			}
			rows = append(rows, []string{utoa(p.Cycle), itoa(p.LineIndex), cls})
		}
		return []string{"cycle", "t0_line", "class"}, rows, nil
	case "F7", "F8":
		fig, timeMetric := Fig7SPECMixes, false
		if id == "F8" {
			fig, timeMetric = Fig8PARSEC, true
		}
		res, err := fig(ctx, o)
		if err != nil {
			return nil, nil, err
		}
		head, rows = perfTable(res, timeMetric)
		return head, rows, nil
	case "T6":
		spec, err := Table6SPEC(ctx, o)
		if err != nil {
			return nil, nil, err
		}
		parsec, err := Table6PARSEC(ctx, o)
		if err != nil {
			return nil, nil, err
		}
		rows = append(t6Rows(spec, "average-spec"), t6Rows(parsec, "average-parsec")...)
		return []string{"workload", "eb_ratio", "ck_ratio"}, rows, nil
	case "T7":
		for _, r := range Table7StorageArea(o.Cores) {
			rows = append(rows, []string{r.Design, r.Structure, ftoa(r.KB), ftoa(r.MM2)})
		}
		return []string{"design", "structure", "kb", "mm2"}, rows, nil
	case "S1":
		res, err := SecurityAttack(ctx, o)
		if err != nil {
			return nil, nil, err
		}
		rows = [][]string{
			{"evict_reload_accuracy", ftoa(res.BaselineAccuracy), ftoa(res.SecDirAccuracy)},
			{"victim_evictions", itoa(res.BaselineVictimEvictions), itoa(res.SecDirVictimEvictions)},
			{"prime_probe_signal", ftoa(res.BaselineSignal), ftoa(res.SecDirSignal)},
			{"inclusion_victims", utoa(res.BaselineInclusionVictims), utoa(res.SecDirInclusionVictims)},
		}
		return []string{"metric", "baseline", "secdir"}, rows, nil
	case "SC":
		res, err := Scaling(ctx, o, 64)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range res {
			rows = append(rows, []string{
				itoa(r.Cores), itoa(r.RequiredAssoc), itoa(r.VDEntriesPerCore), itoa(r.L2Lines),
				ftoa(r.StorageDeltaKB), ftoa(r.BaselineAccuracy), itoa(r.BaselineVictimEvictions),
				ftoa(r.SecDirAccuracy), itoa(r.SecDirVictimEvictions),
			})
		}
		return []string{"cores", "required_assoc", "vd_per_core", "l2_lines",
			"storage_delta_kb", "base_accuracy", "base_evictions", "sec_accuracy", "sec_evictions"}, rows, nil
	default: // "ALT"
		res, err := Alternatives(ctx, o)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range res {
			if !r.Buildable {
				rows = append(rows, []string{r.Design, "unbuildable", "", "", "", "", ""})
				continue
			}
			rows = append(rows, []string{r.Design, ftoa(r.IPC), utoa(r.L2Misses),
				ftoa(r.AttackAccuracy), itoa(r.VictimEvictions),
				ftoa(r.FloodAccuracy), itoa(r.FloodEvictions)})
		}
		return []string{"design", "ipc", "l2_misses",
			"targeted_accuracy", "targeted_evictions", "flood_accuracy", "flood_evictions"}, rows, nil
	}
}

// perfTable renders Figures 7 and 8: one row per workload, then the average
// normalized performance and misses. norm_perf is SecDir/Baseline IPC (F7)
// or execution time (F8).
func perfTable(res []PerfRow, timeMetric bool) (head []string, rows [][]string) {
	var sumPerf, sumMiss float64
	for _, r := range res {
		m := r.NormIPC
		if timeMetric {
			m = r.NormTime
		}
		sumPerf += m
		sumMiss += r.NormMisses
		rows = append(rows, []string{
			r.Name, ftoa(m), ftoa(r.NormMisses),
			utoa(r.Baseline.EDTDHits), utoa(r.Baseline.VDHits), utoa(r.Baseline.MemAccess),
			utoa(r.SecDir.EDTDHits), utoa(r.SecDir.VDHits), utoa(r.SecDir.MemAccess),
			utoa(r.BaselineInclusionVictims), utoa(r.SecDirInclusionVictims),
		})
	}
	n := float64(len(res))
	rows = append(rows, []string{"average", ftoa(sumPerf / n), ftoa(sumMiss / n), "", "", "", "", "", "", "", ""})
	return []string{"workload", "norm_perf", "norm_misses",
		"base_edtd", "base_vd", "base_mem", "sec_edtd", "sec_vd", "sec_mem",
		"base_inclusion_victims", "sec_inclusion_victims"}, rows
}

// t6Rows renders one half of Table 6 followed by its average row.
func t6Rows(res []T6Row, average string) [][]string {
	var rows [][]string
	var sumEB, sumCK float64
	for _, r := range res {
		sumEB += r.EBRatio
		sumCK += r.CKRatio
		rows = append(rows, []string{r.Name, ftoa(r.EBRatio), ftoa(r.CKRatio)})
	}
	n := float64(len(res))
	return append(rows, []string{average, ftoa(sumEB / n), ftoa(sumCK / n)})
}

// ftoa renders a float the way every data/ CSV does: shortest 'g' with 6
// significant digits.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
func itoa(v int) string     { return strconv.Itoa(v) }
func utoa(v uint64) string  { return strconv.FormatUint(v, 10) }
