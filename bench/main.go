// Command bench is the repository's one benchmark: five workloads, five
// end-to-end metrics, and a per-layer ledger measured from outside each
// layer. It drives the stack only through public functions of
// internal/*, generates every input from -seed, checks every output, and
// prints each metric by name and unit. See README.md beside this file.
//
//	go run ./bench -workload train_dist -seed 7 -seconds 15 -trace 0
//	go run ./bench -quick            # validate-only, under 10 s
//	go run ./bench -repeat 5         # noise report over 5 invocations
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is what one invocation of one workload is given.
type runConfig struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	// Quick shrinks every count to the minimum that still exercises each
	// code path and check; timings from a quick run mean nothing.
	Quick bool
	// OutDir receives <workload>.trace.jsonl and <workload>.json.
	OutDir string
	// CoverageFloor is what serve.coverage must reach in a traced run.
	CoverageFloor float64
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the contract's result line.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report accumulates one run: operation counts, metric values, and the
// human-readable detail (quartiles, sample counts) printed before the
// result line.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Env       envStamp           `json:"env"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"values"`
	Detail    []string           `json:"detail"`
	Failures  []string           `json:"failures,omitempty"`
}

func newReport(workload string, seed uint64) *report {
	return &report{Workload: workload, Seed: seed, Env: stampEnv(), Values: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.Values[name] = v }

// ops records n attempted operations.
func (r *report) ops(n int) { r.Attempted += n }

// fail records one failed operation; the first few reasons are kept.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// failN records n failed operations, giving the i-th the i-th reason
// while they last and fallback after.
func (r *report) failN(n int, reasons []string, fallback string) {
	for i := 0; i < n; i++ {
		if i < len(reasons) {
			r.fail("%s", reasons[i])
		} else {
			r.fail("%s", fallback)
		}
	}
}

// abort records a pass that could not run as one failed operation.
func (r *report) abort(err error) {
	r.ops(1)
	r.fail("%v", err)
}

// check counts a failure unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

func (r *report) detailf(format string, args ...any) {
	r.Detail = append(r.Detail, fmt.Sprintf(format, args...))
}

// timing records a summarized sample in the detail block: median with
// quartiles beside it and the sample count.
func (r *report) timing(label string, unit string, s summary) {
	r.detailf("%-28s median %.4g %s  (q1 %.4g, q3 %.4g, p90 %.4g, n=%d)", label, s.Med, unit, s.Q1, s.Q3, s.P90, s.N)
}

// envStamp pins a result to the code and machine that produced it.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func stampEnv() envStamp {
	return envStamp{
		Commit:     headCommit("."),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// headCommit reads the checked-out commit from .git without spawning
// git (the benchmark starts no child processes); "unknown" outside a
// repository, which is where the acceptance driver runs.
func headCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == name {
				return f[0]
			}
		}
	}
	return "unknown"
}

// clients is the number of closed-loop load generators: one per CPU the
// process may use, never more (run.sh gives it one).
func clients() int { return max(1, runtime.NumCPU()) }

// setupReps is how many times a timed run sets its workload up: setup_s
// is their fast quartile (fastTime). One set-up is one sample of a few
// seconds, and the first in a process also pays for fresh pages from the
// host, which made set-up the least repeatable number of the first two
// attempts at this benchmark; the instance of the last repetition runs
// the pass.
const setupReps = 3

// runWorkload sets a workload up (timed as setup_s), runs the pass the
// config selects, and returns the filled report.
func runWorkload(w *workloadDef, cfg runConfig) (*report, error) {
	r := newReport(w.Name, cfg.Seed)
	reps := setupReps
	if cfg.Trace {
		reps = 1
	}
	var inst instance
	var setups []float64
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.Close()
			inst = nil
			runtime.GC() // the next set-up starts from the same live heap as the first
		}
		began := time.Now()
		var err error
		if inst, err = w.setup(cfg); err != nil {
			return r, fmt.Errorf("%s: setup: %w", w.Name, err)
		}
		setups = append(setups, time.Since(began).Seconds())
	}
	defer inst.Close()
	r.detailf("%-28s %.4f s", "set-ups", setups)
	if cfg.Trace {
		tr := newTracer()
		inst.Traced(r, tr)
		if err := tr.validate(); err != nil {
			r.fail("span forest: %v", err)
		}
		if cfg.OutDir != "" {
			if err := tr.writeJSONL(filepath.Join(cfg.OutDir, w.Name+".trace.jsonl")); err != nil {
				return r, err
			}
		}
		w.closeLedger(r)
	} else {
		opsPerSec, opMedianMs := inst.Timed(r)
		r.set("setup_s", fastTime(setups))
		fillOffDomain(r, w, opsPerSec, opMedianMs)
	}
	if r.Attempted == 0 {
		r.abort(fmt.Errorf("no operation attempted"))
	}
	return r, nil
}

// outcomeOf projects a report onto the contract's result line: every
// end-to-end metric for a timed run, every per-layer metric for a traced
// one.
func outcomeOf(r *report, traced bool) outcome {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	o := outcome{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, m := range defs {
		o.Metrics[m.Name] = value{Value: r.Values[m.Name], Unit: m.Unit}
	}
	return o
}

// printReport writes the human-readable block for one run to w.
func printReport(w *os.File, r *report, traced bool) {
	pass := "timed"
	if traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s (%s pass)  seed=%d commit=%s %s num_cpu=%d gomaxprocs=%d\n",
		r.Workload, pass, r.Seed, r.Env.Commit, r.Env.GoVersion, r.Env.NumCPU, r.Env.GOMAXPROCS)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, m := range defs {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", m.Name, r.Values[m.Name], m.Unit)
	}
	for _, d := range r.Detail {
		fmt.Fprintf(w, "  %s\n", d)
	}
	fmt.Fprintf(w, "  operations attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (default: all)")
		seed     = flag.Uint64("seed", 1, "seed for every generator (dataset, buffers, Zipf stream, Poisson schedule)")
		seconds  = flag.Float64("seconds", 15, "target length of the measured pass; operation counts scale with it")
		trace    = flag.Int("trace", -1, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics (default: both)")
		quick    = flag.Bool("quick", false, "validate only: metric tables against BENCHMARK.json, span forests, ledger coverage (under 10 s)")
		repeat   = flag.Int("repeat", 0, "run the timed pass N times (seeds seed..seed+N-1) and print the noise report")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for trace and report files")
	)
	flag.Parse()

	selected := workloads
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		selected = []workloadDef{*w}
	}

	switch {
	case *quick:
		if err := runQuick(selected, *seed, "BENCHMARK.json", serveCoverageFloor); err != nil {
			fmt.Fprintln(os.Stderr, "bench: quick validation failed:", err)
			os.Exit(1)
		}
		fmt.Println("quick validation ok")
		return
	case *repeat > 0:
		if err := runRepeat(os.Stdout, selected, *seed, *seconds, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	passes := []bool{false, true}
	if *trace == 0 || *trace == 1 {
		passes = []bool{*trace == 1}
	}
	multi := len(selected)*len(passes) > 1
	failed := false
	for _, w := range selected {
		for _, traced := range passes {
			cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: traced, OutDir: *outDir, CoverageFloor: serveCoverageFloor}
			r, err := runWorkload(&w, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			printReport(os.Stdout, r, traced)
			suffix := ".json"
			if traced {
				suffix = ".traced.json"
			}
			if err := writeJSON(filepath.Join(*outDir, w.Name+suffix), r); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			o := outcomeOf(r, traced)
			failed = failed || !o.Correct
			line, err := json.Marshal(o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			// One workload, one pass: the bare result line the acceptance
			// driver reads. Several: each line led by its workload's name.
			if multi {
				fmt.Printf("%s ", w.Name)
			}
			fmt.Println(string(line))
		}
	}
	if failed {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	sort.Strings(names)
	return names
}
