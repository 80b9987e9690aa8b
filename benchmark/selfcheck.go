package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// runSelfcheck is the A/A mode: every workload runs twice on the same
// tree, each run a fresh process as the driver would start it, in the
// order w1..w4 then w4..w1. It prints both values of every end-to-end
// metric with their relative difference and fails when one differs by
// more than half its bound, or any op failed.
func runSelfcheck(seed int64, seconds int, dosgid, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dosgi-bench:", err)
		return 1
	}
	order := make([]*workload, 0, 2*len(workloads))
	for i := range workloads {
		order = append(order, &workloads[i])
	}
	for i := len(workloads) - 1; i >= 0; i-- {
		order = append(order, &workloads[i])
	}
	runs := map[string][]selfcheckRun{}
	for _, w := range order {
		fmt.Printf("# selfcheck: running %s\n", w.name)
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", "0", "-dosgid", dosgid, "-out", out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dosgi-bench: selfcheck run of %s: %v\n%s", w.name, err, stdout)
			return 1
		}
		r, err := parseRun(stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dosgi-bench: selfcheck run of %s: %v\n", w.name, err)
			return 1
		}
		runs[w.name] = append(runs[w.name], r)
	}

	status := 0
	fmt.Printf("%-18s %-18s %14s %14s %8s %8s  %s\n", "workload", "metric", "run A", "run B", "diff", "limit", "")
	for i := range workloads {
		w := &workloads[i]
		a, b := runs[w.name][0], runs[w.name][1]
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			diff := math.Abs(va-vb) / math.Min(va, vb)
			verdict := "ok"
			if diff > d.bound/2 {
				verdict, status = "DIFFERS", 1
			}
			fmt.Printf("%-18s %-18s %14.6g %14.6g %7.2f%% %7.2f%%  %s\n",
				w.name, d.name, va, vb, 100*diff, 100*d.bound/2, verdict)
		}
		fmt.Printf("%-18s %-18s %14.6g %14.6g\n", w.name, "load.segment_spread_pct", a.spread, b.spread)
		if a.Failed+b.Failed > 0 {
			fmt.Printf("%-18s failed ops: %d of %d, %d of %d\n", w.name, a.Failed, a.Attempted, b.Failed, b.Attempted)
			status = 1
		}
	}
	return status
}

type selfcheckRun struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
	spread float64
}

// parseRun reads the result line (the last line of a run's output) and the
// segment spread from the table above it.
func parseRun(stdout []byte) (selfcheckRun, error) {
	var r selfcheckRun
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) > 1 && f[0] == "load.segment_spread_pct" {
			fmt.Sscan(f[1], &r.spread)
		}
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("last line is not a result: %w", err)
	}
	return r, nil
}
