package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// benchmarkFile mirrors the tables of BENCHMARK.json, the acceptance
// driver's view of this benchmark.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateCatalog checks the code's metric and workload tables against
// BENCHMARK.json: same names in the same order, same units, directions and
// bounds, every name and unit within the contract's character sets.
func validateCatalog(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(bf.Workloads) != len(workloads) {
		return fmt.Errorf("%s lists %d workloads, the code %d", path, len(bf.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		return nil
	}
	for i, w := range workloads {
		if err := unique(w.Name); err != nil {
			return err
		}
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			return fmt.Errorf("workload %d: %s has %q, the code %q", i, path, bf.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why-sentence has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, file, code []metricDef) error {
		if len(file) != len(code) {
			return fmt.Errorf("%s lists %d %s metrics, the code %d", path, len(file), kind, len(code))
		}
		for i, m := range code {
			if err := unique(m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("metric %s: unit %q is outside [A-Za-z0-9_/%%.-]{1,16}", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %s: better is %q", m.Name, m.Better)
			}
			if file[i] != m {
				return fmt.Errorf("%s metric %d: %s has %+v, the code %+v", kind, i, path, file[i], m)
			}
		}
		return nil
	}
	if err := same("end_to_end", bf.EndToEnd, endToEnd); err != nil {
		return err
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	return same("per_layer", bf.PerLayer, perLayer)
}

// runQuick is the validate-only mode: the metric tables against
// BENCHMARK.json, then a sliver of each workload's traced pass, which
// checks that the span forests are single-rooted and orphan-free, that
// the ledgers close (trainer.coverage >= 0.90, serve.coverage >=
// coverageFloor), and that every output check passes. No number a quick
// run prints is a measurement.
func runQuick(selected []workloadDef, seed uint64, benchmarkJSON string, coverageFloor float64) error {
	if err := validateCatalog(benchmarkJSON); err != nil {
		return err
	}
	for _, w := range selected {
		r, err := runWorkload(&w, runConfig{Seed: seed, Seconds: 1, Trace: true, Quick: true, CoverageFloor: coverageFloor})
		if err != nil {
			return err
		}
		if r.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed: %v", w.Name, r.Failed, r.Attempted, r.Failures)
		}
		fmt.Printf("%-14s ok: %d operations, coverage trainer %.3f serve %.3f\n",
			w.Name, r.Attempted, r.Values["trainer.coverage"], r.Values["serve.coverage"])
	}
	return nil
}
