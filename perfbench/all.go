package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runAll runs every workload in a child process of its own and prints each
// reported metric by name and unit. It returns the exit code: non-zero when
// a child fails or reports a failed or incorrect operation.
func runAll(seed int64, secs, traced int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(secs), "--trace", strconv.Itoa(traced), "--out", out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: bad result line: %v\n", w.name, err)
			code = 1
			continue
		}
		if !res.Correct || res.Failed > 0 {
			code = 1
		}
		fmt.Printf("%s: correct=%v attempted=%d failed=%d\n", w.name, res.Correct, res.Attempted, res.Failed)
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := res.Metrics[n]
			fmt.Printf("  %-28s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
	return code
}
