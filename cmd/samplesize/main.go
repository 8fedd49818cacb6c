// Command samplesize plans how many nodes must be measured to estimate a
// supercomputer's power with a given confidence and accuracy, using the
// paper's Equation 5 (with finite population correction).
//
// Usage:
//
//	samplesize -nodes 18688 -cv 0.02 -accuracy 0.01
//	samplesize -table            # reproduce the paper's Table 5
//	samplesize -nodes 210 -rules # compare old and revised list rules
package main

import (
	"flag"
	"fmt"
	"os"

	"nodevar/internal/cli"
	"nodevar/internal/report"
	"nodevar/internal/sampling"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		nodes      = flag.Int("nodes", 10000, "total nodes N (0 = infinite population)")
		cv         = flag.Float64("cv", 0.025, "anticipated sigma/mu of per-node power")
		accuracy   = flag.Float64("accuracy", 0.01, "target relative accuracy lambda")
		confidence = flag.Float64("confidence", 0.95, "confidence level")
		table      = flag.Bool("table", false, "print the paper's Table 5 grid")
		rules      = flag.Bool("rules", false, "compare the 1/64 rule with the revised max(16, 10%) rule")
		obsFlags   = cli.RegisterObsFlags()
		execFlags  = cli.RegisterExecFlags()
	)
	flag.Parse()

	run, err := obsFlags.Start("samplesize")
	if err != nil {
		cli.Fatal(err)
	}
	_, stop := run.Context(execFlags)
	defer stop()
	run.SetConfig("nodes", *nodes)
	run.SetConfig("cv", *cv)
	run.SetConfig("accuracy", *accuracy)
	run.SetConfig("confidence", *confidence)

	if *table {
		grid := sampling.PaperTable5()
		t := report.NewTable("Recommended sample sizes (N = 10000, 95% confidence)",
			"accuracy", "cv=2%", "cv=3%", "cv=5%")
		for i, lam := range grid.Accuracies {
			t.AddRow(fmt.Sprintf("%.1f%%", lam*100),
				fmt.Sprint(grid.N[i][0]), fmt.Sprint(grid.N[i][1]), fmt.Sprint(grid.N[i][2]))
		}
		return run.Close(t.WriteText(os.Stdout))
	}

	if *rules {
		if *nodes <= 0 {
			return run.Close(fmt.Errorf("-rules needs -nodes > 0"))
		}
		old, revised := sampling.Level1Nodes(*nodes), sampling.RevisedRuleNodes(*nodes)
		fmt.Printf("system of %d nodes:\n", *nodes)
		fmt.Printf("  old 1/64 rule:            %d nodes\n", old)
		fmt.Printf("  revised max(16,10%%) rule: %d nodes\n", revised)
		return run.Close(nil)
	}

	plan := sampling.Plan{
		Confidence: *confidence,
		Accuracy:   *accuracy,
		CV:         *cv,
		Population: *nodes,
	}
	n, err := plan.RequiredSampleSize()
	if err != nil {
		return run.Close(err)
	}
	acc, err := plan.ExpectedAccuracy(n)
	if err != nil {
		return run.Close(err)
	}
	fmt.Printf("measure %d nodes\n", n)
	fmt.Printf("  confidence:         %.0f%%\n", *confidence*100)
	fmt.Printf("  target accuracy:    \u00b1%.2f%%\n", *accuracy*100)
	fmt.Printf("  achieved accuracy:  \u00b1%.2f%% (exact t quantile)\n", acc*100)
	fmt.Printf("  assumed sigma/mu:   %.2f%%\n", *cv*100)
	return run.Close(nil)
}
