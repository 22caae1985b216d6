// Command steady measures how steady the benchmark's end-to-end metrics
// are, and compares two builds of the benchmark by the claim rule.
//
// Steadiness: run one binary on each workload with N seeds and print,
// per metric, the median, the quartiles and their spread next to the
// metric's bound from BENCHMARK.json:
//
//	go run ./steady -bench ../.bench_build/perfbench -runs 10
//
// Comparison: alternate two binaries built at two commits (the parent
// first on even pairs, the change first on odd ones) and print, per
// metric, both medians, the parent's interquartile distance, and how many
// pairs the change won:
//
//	go run ./steady -bench parent/perfbench -against change/perfbench -runs 10
//
// A gain is claimed only when the change wins at least 9 in 10 pairs
// (ties count for neither) and the medians lie further apart than the
// parent's interquartile distance. Run it from the repository root so
// the binaries find their inputs; each run's output stays in memory.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"

	"repro/internal/cliutil"
)

func main() {
	cliutil.Main(run)
}

type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func run() error {
	bench := flag.String("bench", ".bench_build/perfbench", "benchmark binary (the parent's when -against is set)")
	against := flag.String("against", "", "second benchmark binary to compare with -bench")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark definition with the metric bounds")
	runs := flag.Int("runs", 10, "runs (or pairs) per workload")
	seed0 := flag.Int64("seed", 1, "first seed; run i uses seed+i")
	only := flag.String("workload", "", "run only this workload")
	seconds := flag.Int("seconds", 0, "run length (0 → run_seconds of the spec)")
	flag.Parse()
	if *runs < 1 {
		return cliutil.UsageErrorf("steady: -runs %d below 1", *runs)
	}
	b, err := os.ReadFile(*spec)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return fmt.Errorf("steady: %s: %w", *spec, err)
	}
	secs := *seconds
	if secs == 0 {
		secs = bf.RunSeconds
	}
	for _, w := range bf.Workloads {
		if *only != "" && w.Name != *only {
			continue
		}
		var a, c []resultLine
		for i := 0; i < *runs; i++ {
			seed := *seed0 + int64(i)
			order := []string{*bench, *against}
			if i%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			for _, bin := range order {
				if bin == "" {
					continue
				}
				r, err := runOnce(bin, w.Name, seed, secs)
				if err != nil {
					return err
				}
				if bin == *bench {
					a = append(a, r)
				} else {
					c = append(c, r)
				}
			}
		}
		report(w.Name, bf, a, c)
	}
	return nil
}

// runOnce runs the benchmark and returns its last output line.
func runOnce(bin, workload string, seed int64, seconds int) (resultLine, error) {
	cmd := exec.Command(bin, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return resultLine{}, fmt.Errorf("steady: %s %s seed %d: %w", bin, workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var r resultLine
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return resultLine{}, fmt.Errorf("steady: %s %s seed %d: last line: %w", bin, workload, seed, err)
	}
	return r, nil
}

// quartiles returns the first quartile, the median and the third
// quartile as Python's statistics.quantiles(values, n=4) gives them
// (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		m := p * float64(n+1)
		j := int(m)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func values(rs []resultLine, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

func report(workload string, bf benchmarkFile, a, c []resultLine) {
	failedShare := func(rs []resultLine) string {
		var att, fail int
		correct := true
		for _, r := range rs {
			att += r.Attempted
			fail += r.Failed
			correct = correct && r.Correct
		}
		return fmt.Sprintf("failed %d of %d, all correct %v", fail, att, correct)
	}
	fmt.Printf("%s: %d runs, %s\n", workload, len(a), failedShare(a))
	if c == nil {
		fmt.Printf("  %-12s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range bf.EndToEnd {
			q1, q2, q3 := quartiles(values(a, m.Name))
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			flag := ""
			if spread > m.Bound/3 && m.Name != "setup_s" {
				flag = "  above a third of the bound"
			}
			fmt.Printf("  %-12s %12.5g %12.5g %12.5g %8.4f %8.3f%s\n", m.Name, q1, q2, q3, spread, m.Bound, flag)
		}
		return
	}
	fmt.Printf("  change: %s\n", failedShare(c))
	fmt.Printf("  %-12s %12s %12s %12s %6s %s\n", "metric", "parent", "change", "parent IQR", "wins", "verdict")
	for _, m := range bf.EndToEnd {
		pa, ch := values(a, m.Name), values(c, m.Name)
		q1, pm, q3 := quartiles(pa)
		_, cm, _ := quartiles(ch)
		wins := 0
		for i := range pa {
			if i < len(ch) && better(m.Better, ch[i], pa[i]) {
				wins++
			}
		}
		verdict := "no claim"
		switch {
		case wins*10 >= 9*len(pa) && abs(cm-pm) > q3-q1 && better(m.Better, cm, pm):
			verdict = "gain"
		case worseBy(m.Better, cm, pm) > m.Bound:
			verdict = fmt.Sprintf("regression beyond the %.3g bound", m.Bound)
		}
		fmt.Printf("  %-12s %12.5g %12.5g %12.5g %3d/%-2d %s\n", m.Name, pm, cm, q3-q1, wins, len(pa), verdict)
	}
}

func better(dir string, x, y float64) bool {
	if dir == "higher" {
		return x > y
	}
	return x < y
}

// worseBy returns how much worse x is than the reference y, as a share
// of y (negative when better).
func worseBy(dir string, x, y float64) float64 {
	if y == 0 {
		return 0
	}
	if dir == "higher" {
		return (y - x) / y
	}
	return (x - y) / y
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
