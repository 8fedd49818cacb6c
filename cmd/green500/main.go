// Command green500 builds and validates a miniature Green500/Top500 list.
//
// Usage:
//
//	green500                       # rank the built-in Nov 2014 top 10
//	green500 -in subs.json         # rank submissions from a JSON file
//	green500 -validate revised     # check every entry against the new rules
//	green500 -top500               # rank by performance instead
package main

import (
	"flag"
	"fmt"
	"os"

	"nodevar/internal/cli"
	"nodevar/internal/green500"
	"nodevar/internal/methodology"
	"nodevar/internal/report"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		in        = flag.String("in", "", "JSON file of submissions (default: built-in Nov 2014 top 10)")
		validate  = flag.String("validate", "", "validate entries against: level1, level2, level3, revised")
		top500    = flag.Bool("top500", false, "rank by Rmax (Top500 style) instead of efficiency")
		csvOut    = flag.String("csv", "", "write the ranked list as CSV to this path")
		trend     = flag.Bool("trend", false, "print the Green500 #1 efficiency trend 2007-2014")
		obsFlags  = cli.RegisterObsFlags()
		execFlags = cli.RegisterExecFlags()
	)
	flag.Parse()

	run, err := obsFlags.Start("green500")
	if err != nil {
		cli.Fatal(err)
	}
	_, stop := run.Context(execFlags)
	defer stop()
	run.SetConfig("in", *in)
	run.SetConfig("validate", *validate)
	run.SetConfig("top500", *top500)

	if *trend {
		t := report.NewTable("Green500 #1 efficiency by edition", "Edition", "MFLOPS/W")
		for _, p := range green500.EfficiencyTrend() {
			t.AddRow(p.Edition, fmt.Sprintf("%.1f", p.BestMFlopsPerWatt))
		}
		if err := t.WriteText(os.Stdout); err != nil {
			return run.Close(err)
		}
		if rate, err := green500.TrendGrowthRate(green500.EfficiencyTrend()); err == nil {
			fmt.Printf("fitted annual growth: %.2fx\n", rate)
		}
		return run.Close(nil)
	}

	subs := green500.Nov2014Top10()
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return run.Close(err)
		}
		subs, err = green500.ReadSubmissions(f)
		f.Close()
		if err != nil {
			return run.Close(err)
		}
	}
	list, err := green500.NewList(subs)
	if err != nil {
		return run.Close(err)
	}

	entries := list.Entries
	title := "Green500 ranking (GFLOPS/W)"
	if *top500 {
		entries = list.RankByPerformance()
		title = "Top500 ranking (Rmax)"
	}
	t := report.NewTable(title, "Rank", "System", "Site", "Rmax (TFLOPS)", "Power (kW)", "MFLOPS/W")
	for _, e := range entries {
		t.AddRow(fmt.Sprint(e.Rank), e.System, e.Site,
			fmt.Sprintf("%.1f", e.RmaxGFlops/1000),
			fmt.Sprintf("%.1f", e.PowerWatts/1000),
			fmt.Sprintf("%.1f", e.MFlopsPerWatt()))
	}
	if err := t.WriteText(os.Stdout); err != nil {
		return run.Close(err)
	}

	if margin, err := list.Margin(1, 3); err == nil {
		fmt.Printf("\n#1 efficiency advantage over #3: %.1f%% (measurement variability can exceed 20%%)\n", margin*100)
	}
	c := list.Compose()
	fmt.Printf("provenance: %d entries, %d derived, %d Level 1, %d Level 2+\n",
		c.Total, c.Derived, c.Level1, c.Level2Up)

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			return run.Close(err)
		}
		if err := list.WriteCSV(f); err != nil {
			f.Close()
			return run.Close(err)
		}
		if err := f.Close(); err != nil {
			return run.Close(err)
		}
		fmt.Printf("list written to %s\n", *csvOut)
	}

	if *validate != "" {
		spec, err := specFor(*validate)
		if err != nil {
			return run.Close(err)
		}
		fmt.Printf("\nvalidation against %s:\n", *validate)
		clean := true
		for _, e := range list.Entries {
			for _, verr := range green500.ValidateAgainst(e.Submission, spec) {
				fmt.Printf("  %s\n", verr)
				clean = false
			}
		}
		if clean {
			fmt.Println("  all entries compliant")
		}
	}
	return run.Close(nil)
}

func specFor(name string) (methodology.Spec, error) {
	switch name {
	case "level1":
		return methodology.LevelSpec(methodology.Level1)
	case "level2":
		return methodology.LevelSpec(methodology.Level2)
	case "level3":
		return methodology.LevelSpec(methodology.Level3)
	case "revised":
		return methodology.RevisedLevel1(), nil
	default:
		return methodology.Spec{}, fmt.Errorf("unknown spec %q", name)
	}
}
