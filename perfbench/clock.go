package main

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// The benchmark's times exclude hypervisor steal: the time the host ran
// another tenant while this machine's vCPUs were ready to run, which Linux
// reports in the steal column of /proc/stat. On a shared VM steal comes and
// goes with the neighbours and moved whole runs by a quarter; it is no
// cost of the program. Only busy vCPUs accrue steal, and every workload
// keeps one vCPU busy on its critical path and the other mostly idle, so
// the steal over an operation is the delay it suffered. Where steal is not
// reported (bare metal, other systems) it reads 0 and times are wall times.

// userHZ is the unit of /proc/stat's counters (USER_HZ, 100 on Linux).
const userHZ = 100

// stopwatch measures elapsed time less steal.
type stopwatch struct {
	wall  time.Time
	steal time.Duration
}

// startWatch starts a stopwatch.
func startWatch() stopwatch { return stopwatch{wall: time.Now(), steal: stolen()} }

// elapsed returns the wall time since the stopwatch started less the steal
// accrued meanwhile.
func (w stopwatch) elapsed() time.Duration {
	d := time.Since(w.wall) - (stolen() - w.steal)
	return max(d, 0)
}

// stolen returns the steal time accrued on all CPUs since boot, or 0 when
// /proc/stat does not report it.
func stolen() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	return parseSteal(data)
}

// parseSteal reads the steal column (the eighth number) of the aggregate
// "cpu" line of /proc/stat.
func parseSteal(stat []byte) time.Duration {
	line, _, _ := bytes.Cut(stat, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(string(f[8]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}
