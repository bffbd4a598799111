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
//	wfsuite -format json    # one JSON document: {"reports": [...], "matched": n, "total": m}
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error (bad flags or
// flag values, rejected before any experiment runs).
package main

import (
	"bytes"
	"encoding/json"
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

// suiteDoc is the -format json document: every selected report in
// suite order, then the paper-claim tally the text formats print as
// their summary line.
type suiteDoc struct {
	Reports []json.RawMessage `json:"reports"`
	Matched int               `json:"matched"`
	Total   int               `json:"total"`
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

	// JSON reports are collected into one document; the text formats
	// stream each report and end with a summary line.
	asJSON := *format == "json"
	var doc suiteDoc
	for _, e := range selected {
		rep, err := e.Run(rt)
		if err != nil {
			cli.Sayf(stderr, "wfsuite: %s: %v\n", e.ID, err)
			return 1
		}
		var buf bytes.Buffer
		out := stdout
		if asJSON {
			out = &buf
		}
		if err := write(rep, out); err != nil {
			cli.Sayln(stderr, "wfsuite:", err)
			return 1
		}
		if asJSON {
			doc.Reports = append(doc.Reports, buf.Bytes())
		}
		ok, total := rep.Matched()
		doc.Matched += ok
		doc.Total += total
	}
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			cli.Sayln(stderr, "wfsuite:", err)
			return 1
		}
	} else {
		cli.Sayf(stdout, "== summary: %d/%d paper claims matched ==\n", doc.Matched, doc.Total)
	}
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
