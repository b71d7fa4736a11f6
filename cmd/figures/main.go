// Command figures regenerates the paper's evaluation artifacts — Figs. 1,
// 9, 10, 11, 12, 13, 14 and Table I — printing measured values next to the
// published ones.
//
// Usage:
//
//	figures            # everything, paper-sized runs
//	figures -quick     # reduced runs for a fast look
//	figures -fig 13    # one figure
//	figures -table 1   # Table I only
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/collective"
	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced steps/scales")
	fig := flag.Int("fig", 0, "regenerate a single figure (1, 6-7, 9-14)")
	table := flag.Int("table", 0, "regenerate a single table (1)")
	ablations := flag.Bool("ablations", false, "also run the tunable-parameter ablation sweeps")
	extras := flag.Bool("extras", false, "also run the tuning-limit and model-sensitivity studies")
	flag.Parse()

	opt := experiments.Full()
	if *quick {
		opt = experiments.Quick()
	}

	runFig := func(n int) {
		switch n {
		case 1:
			fmt.Println(experiments.RunFig1().Format())
		case 6, 7:
			fmt.Println(experiments.FormatFig6(experiments.RunFig6(0)))
		case 9:
			fmt.Println(experiments.FormatFig9(experiments.RunFig9()))
		case 10:
			fmt.Println(experiments.RunFig10(opt).Format())
		case 11:
			fmt.Println(experiments.RunFig11(opt).Format())
		case 12:
			fmt.Println(experiments.RunFig12(opt).Format())
		case 13:
			fmt.Println(experiments.RunFig13(opt).Format())
		case 14:
			fmt.Println(experiments.RunFig14(opt).Format())
		default:
			fmt.Fprintf(os.Stderr, "no figure %d (have 1, 6-7, 9-14)\n", n)
			os.Exit(2)
		}
	}

	switch {
	case *fig != 0:
		runFig(*fig)
	case *table != 0:
		if *table != 1 {
			fmt.Fprintf(os.Stderr, "no table %d (have 1)\n", *table)
			os.Exit(2)
		}
		fmt.Println(experiments.RunTableI(opt).Format())
	default:
		for _, n := range []int{1, 6, 9, 10, 11, 12, 13, 14} {
			runFig(n)
		}
		fmt.Println(experiments.RunTableI(opt).Format())
	}
	if *ablations {
		steps := opt.Steps
		fmt.Println(experiments.RunFusionAblation(collective.BackendMPIOpt, 8, steps).Format())
		fmt.Println(experiments.RunCycleAblation(collective.BackendMPIOpt, 8, steps).Format())
		fmt.Println(experiments.RunJitterAblation(collective.BackendMPIOpt, 32, steps).Format())
	}
	if *extras {
		fmt.Println(experiments.RunTuningLimit(16, opt.Steps).Format())
		fmt.Println(experiments.FormatModelSensitivity(experiments.RunModelSensitivity(16, opt.Steps)))
		nodes := []int{1, 4, 16, 64, 128}
		fmt.Println(experiments.FormatStrongScaling([]experiments.StrongScalingResult{
			experiments.RunStrongScaling(collective.BackendMPI, 512, opt.Steps, nodes),
			experiments.RunStrongScaling(collective.BackendMPIOpt, 512, opt.Steps, nodes),
		}))
	}
}
