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
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error (bad flags or
// flag values, rejected before any experiment runs).
package main

import (
	"flag"
	"io"
	"os"
	"strings"

	"pmemsched"
	"pmemsched/internal/cli"
)

// writers maps each -format value to the report writer it selects.
var writers = map[string]func(*pmemsched.ExperimentReport, io.Writer) error{
	"text": (*pmemsched.ExperimentReport).Render,
	"csv":  (*pmemsched.ExperimentReport).WriteCSV,
	"json": (*pmemsched.ExperimentReport).WriteJSON,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wfsuite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated experiment IDs (default: all)")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	stackName := fs.String("stack", "nova", "storage stack: nova or nvstream")
	format := fs.String("format", "text", "output format: text, csv or json")
	parallel := fs.Int("parallel", 0, "run-engine worker pool size (0 = GOMAXPROCS)")
	stats := fs.Bool("stats", false, "print run-engine cache statistics to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		cli.Sayf(stderr, "wfsuite: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	write, ok := writers[*format]
	if !ok {
		cli.Sayf(stderr, "wfsuite: unknown format %q (want text, csv or json)\n", *format)
		return 2
	}

	if *list {
		for _, e := range pmemsched.Experiments() {
			cli.Sayf(stdout, "%-10s %s\n", e.ID, e.Title)
		}
		return 0
	}

	env, err := cli.StackEnv(*stackName)
	if err != nil {
		cli.Sayln(stderr, "wfsuite:", err)
		return 2
	}

	var selected []pmemsched.Experiment
	if *only == "" {
		selected = pmemsched.Experiments()
	} else {
		for _, id := range strings.Split(*only, ",") {
			e, err := pmemsched.ExperimentByID(strings.TrimSpace(id))
			if err != nil {
				cli.Sayln(stderr, "wfsuite:", err)
				return 2
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
			cli.Sayf(stderr, "wfsuite: %s: %v\n", e.ID, err)
			return 1
		}
		if err := write(rep, stdout); err != nil {
			cli.Sayln(stderr, "wfsuite:", err)
			return 1
		}
		ok, total := rep.Matched()
		okTotal += ok
		checkTotal += total
	}
	cli.Sayf(stdout, "== summary: %d/%d paper claims matched ==\n", okTotal, checkTotal)
	// Two known deviations are documented in EXPERIMENTS.md (the
	// miniAMR+MatrixMult placement rows); the pinned outcomes are
	// enforced by the calibration acceptance tests instead of an exit
	// code here.
	if *stats {
		s := rt.Stats()
		cli.Sayf(stderr, "wfsuite: run engine: %d runs (%d cache hits, %d misses, %d in-flight joins, %.1f%% hit rate), %d cached entries, %d workers\n",
			s.Runs(), s.Hits, s.Misses, s.Inflight, s.HitRate()*100, s.Entries, rt.Workers())
	}
	return 0
}
