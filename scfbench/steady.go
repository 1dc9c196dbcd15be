package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// benchmarkFile is the benchmark's declaration at the repository root.
const benchmarkFile = "BENCHMARK.json"

type boundedMetric struct {
	metricSpec
	Bound float64 `json:"bound"`
}

// loadBounds reads BENCHMARK.json and checks that it declares exactly the
// workloads and metrics this program reports.
func loadBounds() (map[string]float64, error) {
	b, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return nil, err
	}
	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []boundedMetric `json:"end_to_end"`
		PerLayer []metricSpec    `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		return nil, fmt.Errorf("%s declares workloads %s, the program runs %s", benchmarkFile, got, workloadNames())
	}
	bounds := map[string]float64{}
	var e2e []metricSpec
	for _, m := range decl.EndToEnd {
		e2e = append(e2e, m.metricSpec)
		bounds[m.Name] = m.Bound
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) || fmt.Sprint(decl.PerLayer) != fmt.Sprint(perLayer) {
		return nil, fmt.Errorf("%s and the program disagree on the metrics", benchmarkFile)
	}
	return bounds, nil
}

// steadyMain runs each workload n times under seeds 1..n and again under
// seeds n+1..2n, and prints each end-to-end metric's two medians and
// spreads (interquartile distance over median) against its bound. It
// fails when a spread other than setup_s exceeds its bound, or when the
// second median is worse than the first by more than the bound.
func steadyMain(n, secs int, only string) int {
	bounds, err := loadBounds()
	if err == nil && only != "" {
		if _, ok := lookupWorkload(only); !ok {
			err = fmt.Errorf("unknown workload %q", only)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scfbench:", err)
		return 2
	}
	fmt.Println(envStamp())
	ok := true
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < n; i++ {
				seed := int64(set*n + i + 1)
				ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
				r := measureRun(ctx, w, seed, time.Duration(secs)*time.Second)
				cancel()
				line := fmt.Sprintf("# %s seed %d failed %d/%d", w.name, seed, r.failed, r.attempted)
				for _, m := range endToEnd {
					sets[set][m.Name] = append(sets[set][m.Name], r.metrics[m.Name])
					line += fmt.Sprintf(" %s=%.6f", m.Name, r.metrics[m.Name])
				}
				fmt.Println(line)
				ok = ok && r.failed == 0
			}
		}
		fmt.Printf("%-14s %-12s %12s %8s %12s %8s %8s %7s  %s\n", "workload", "metric", "median1", "spread1", "median2", "spread2", "worse", "bound", "verdict")
		for _, m := range endToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			bound := bounds[m.Name]
			wide := max(spread(a), spread(b))
			verdict := "steady"
			switch {
			case m.Name == "setup_s" && worse <= bound:
				verdict = "ok (spread not bounded)"
			case worse > bound || (m.Name != "setup_s" && wide > bound):
				verdict = "OUT OF BOUND"
				ok = false
			case wide > bound/3:
				verdict = "within bound, spread above a third of it"
			}
			fmt.Printf("%-14s %-12s %12.6f %8.4f %12.6f %8.4f %8.4f %7.3f  %s\n",
				w.name, m.Name, ma, spread(a), mb, spread(b), worse, bound, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
