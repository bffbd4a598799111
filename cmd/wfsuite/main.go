// Command wfsuite regenerates the paper's evaluation: every table and
// figure, rendered as text tables and ASCII bar charts, each followed
// by a paper-vs-measured claim check.
//
// Usage:
//
//	wfsuite                 # run every experiment
//	wfsuite -only fig4,tab2 # run a subset
//	wfsuite -list           # list experiment IDs
//	wfsuite -stack nvstream # run on NVStream instead of NOVA
//	wfsuite -parallel 8     # size of the run engine's worker pool
//	wfsuite -stats          # print run-engine cache stats to stderr
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pmemsched"
	"pmemsched/internal/cli"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	stackName := flag.String("stack", "nova", "storage stack: nova or nvstream")
	format := flag.String("format", "text", "output format: text, csv or json")
	parallel := flag.Int("parallel", 0, "run-engine worker pool size (0 = GOMAXPROCS)")
	stats := flag.Bool("stats", false, "print run-engine cache statistics to stderr")
	flag.Parse()

	if *list {
		for _, e := range pmemsched.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	env, err := cli.StackEnv(*stackName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfsuite:", err)
		os.Exit(2)
	}

	var selected []pmemsched.Experiment
	if *only == "" {
		selected = pmemsched.Experiments()
	} else {
		for _, id := range strings.Split(*only, ",") {
			e, err := pmemsched.ExperimentByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, "wfsuite:", err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	// One engine for the whole suite: experiments share a worker pool
	// and a result cache, so e.g. fig4-10, tab2 and gen2 reuse each
	// other's suite runs instead of recomputing them.
	rt := pmemsched.NewRunner(env, *parallel)

	okTotal, checkTotal := 0, 0
	for _, e := range selected {
		rep, err := e.Run(rt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wfsuite: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		var rerr error
		switch *format {
		case "text":
			rerr = rep.Render(os.Stdout)
		case "csv":
			rerr = rep.WriteCSV(os.Stdout)
		case "json":
			rerr = rep.WriteJSON(os.Stdout)
		default:
			rerr = fmt.Errorf("unknown format %q", *format)
		}
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "wfsuite:", rerr)
			os.Exit(1)
		}
		ok, total := rep.Matched()
		okTotal += ok
		checkTotal += total
	}
	fmt.Printf("== summary: %d/%d paper claims matched ==\n", okTotal, checkTotal)
	// Two known deviations are documented in EXPERIMENTS.md (the
	// miniAMR+MatrixMult placement rows); the pinned outcomes are
	// enforced by the calibration acceptance tests instead of an exit
	// code here.
	if *stats {
		s := rt.Stats()
		fmt.Fprintf(os.Stderr, "wfsuite: run engine: %d runs (%d cache hits, %d misses, %d in-flight joins, %.1f%% hit rate), %d cached entries, %d workers\n",
			s.Runs(), s.Hits, s.Misses, s.Inflight, s.HitRate()*100, s.Entries, rt.Workers())
	}
}
