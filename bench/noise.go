package main

import (
	"fmt"
	"io"
)

// runRepeat runs each selected workload's timed pass n times in this
// process, from scratch each time and with seeds seed, seed+1, …, and
// prints per gated pair the median, the quartiles and the relative spread
// (interquartile range over median) — the statistic the acceptance driver
// computes — beside the pair's regression bound.
func runRepeat(out io.Writer, selected []workloadDef, seed uint64, seconds float64, n int) error {
	fmt.Fprintf(out, "| workload | metric | unit | median | q1 | q3 | spread | bound | runs |\n")
	fmt.Fprintf(out, "|---|---|---|---|---|---|---|---|---|\n")
	bound := map[string]metricDef{}
	for _, m := range endToEnd {
		bound[m.Name] = m
	}
	for _, w := range selected {
		samples := map[string][]float64{}
		for i := 0; i < n; i++ {
			r, err := runWorkload(&w, runConfig{Seed: seed + uint64(i), Seconds: seconds})
			if err != nil {
				return err
			}
			if r.Failed > 0 {
				return fmt.Errorf("%s run %d: %d of %d operations failed: %v", w.Name, i, r.Failed, r.Attempted, r.Failures)
			}
			for _, name := range w.gated() {
				samples[name] = append(samples[name], r.Values[name])
			}
		}
		for _, name := range w.gated() {
			s := summarize(samples[name])
			fmt.Fprintf(out, "| %s | %s | %s | %.5g | %.5g | %.5g | %.2f %% | %.0f %% | %d |\n",
				w.Name, name, bound[name].Unit, s.Med, s.Q1, s.Q3, s.spread()*100, bound[name].Bound*100, s.N)
		}
	}
	return nil
}
