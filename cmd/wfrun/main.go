// Command wfrun executes one suite workflow under one (or every)
// scheduling configuration and prints the measured runtime with the
// split writer/reader breakdown the paper plots.
//
// Usage:
//
//	wfrun -workflow gtc+readonly -ranks 16                 # all configs
//	wfrun -workflow micro-2k -ranks 24 -config S-LocR      # one config
//	wfrun -list                                            # list workflows
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error (bad flags or
// flag combinations, rejected before any simulation runs).
package main

import (
	"flag"
	"io"
	"os"
	"sort"

	"pmemsched"
	"pmemsched/internal/cli"
	"pmemsched/internal/units"
)

var factories = map[string]func(int) pmemsched.Workflow{
	"micro-64mb": func(r int) pmemsched.Workflow {
		return pmemsched.MicroWorkflow(pmemsched.MicroObjectLarge, r)
	},
	"micro-2k": func(r int) pmemsched.Workflow {
		return pmemsched.MicroWorkflow(pmemsched.MicroObjectSmall, r)
	},
	"gtc+readonly":       pmemsched.GTCReadOnly,
	"gtc+matrixmult":     pmemsched.GTCMatrixMult,
	"miniamr+readonly":   pmemsched.MiniAMRReadOnly,
	"miniamr+matrixmult": pmemsched.MiniAMRMatrixMult,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wfrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workflow", "", "workflow name (see -list)")
	specPath := fs.String("spec", "", "JSON workflow spec file (alternative to -workflow)")
	ranks := fs.Int("ranks", 16, "ranks per component (8, 16 or 24 in the paper)")
	config := fs.String("config", "", "configuration label (default: all four)")
	list := fs.Bool("list", false, "list workflow names and exit")
	tracePath := fs.String("trace", "", "write a Chrome trace-viewer timeline of the (single-config) run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		cli.Sayf(stderr, "wfrun: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	if *list {
		names := make([]string, 0, len(factories))
		for n := range factories {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			cli.Sayln(stdout, n)
		}
		return 0
	}
	if *name != "" && *specPath != "" {
		cli.Sayln(stderr, "wfrun: -workflow and -spec are alternatives; pick one")
		return 2
	}
	if *specPath != "" && flagSet(fs, "ranks") {
		cli.Sayln(stderr, "wfrun: -ranks applies to -workflow only; a -spec file sets its own ranks")
		return 2
	}
	var wf pmemsched.Workflow
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			cli.Sayln(stderr, "wfrun:", err)
			return 2
		}
		wf, err = pmemsched.ReadWorkflow(f)
		//pmemlint:ignore errflow read-only file; decode errors are checked, a close error cannot lose data
		f.Close()
		if err != nil {
			cli.Sayln(stderr, "wfrun:", err)
			return 2
		}
	} else {
		mk, ok := factories[*name]
		if !ok {
			cli.Sayf(stderr, "wfrun: unknown workflow %q (use -list or -spec)\n", *name)
			return 2
		}
		wf = mk(*ranks)
	}
	env := pmemsched.DefaultEnv()

	var configs []pmemsched.Config
	if *config == "" {
		configs = pmemsched.Configs
	} else {
		c, err := pmemsched.ParseConfig(*config)
		if err != nil {
			cli.Sayln(stderr, "wfrun:", err)
			return 2
		}
		configs = []pmemsched.Config{c}
	}

	if *tracePath != "" && len(configs) != 1 {
		cli.Sayln(stderr, "wfrun: -trace requires a single -config")
		return 2
	}
	cli.Sayf(stdout, "workflow %s (%s total through PMEM)\n", wf, units.FormatBytes(wf.TotalBytes()))
	var results []pmemsched.Result
	for _, cfg := range configs {
		res, tracer, err := pmemsched.RunWithTrace(wf, cfg, env, *tracePath != "")
		if err != nil {
			cli.Sayln(stderr, "wfrun:", err)
			return 1
		}
		if tracer != nil {
			if err := writeTrace(*tracePath, tracer); err != nil {
				cli.Sayln(stderr, "wfrun:", err)
				return 1
			}
			cli.Sayf(stdout, "timeline written to %s (%d events)\n", *tracePath, len(tracer.Events))
		}
		results = append(results, res)
		if cfg.Mode == pmemsched.Serial {
			cli.Sayf(stdout, "  %-7s total %9s  (writer %s + reader %s)\n",
				cfg.Label(), units.FormatSeconds(res.TotalSeconds),
				units.FormatSeconds(res.WriterSplit), units.FormatSeconds(res.ReaderSplit))
		} else {
			cli.Sayf(stdout, "  %-7s total %9s  (writers end %s)\n",
				cfg.Label(), units.FormatSeconds(res.TotalSeconds),
				units.FormatSeconds(res.WriterEnd))
		}
		cli.Sayf(stdout, "          writer: compute %s, software %s, device %s\n",
			units.FormatSeconds(res.Writer.Compute), units.FormatSeconds(res.Writer.SW),
			units.FormatSeconds(res.Writer.IO))
		cli.Sayf(stdout, "          reader: compute %s, software %s, device %s, waiting %s\n",
			units.FormatSeconds(res.Reader.Compute), units.FormatSeconds(res.Reader.SW),
			units.FormatSeconds(res.Reader.IO), units.FormatSeconds(res.Reader.Wait+res.Reader.Gate))
	}
	if len(results) > 1 {
		best := pmemsched.Best(results)
		cli.Sayf(stdout, "best: %s (%s)\n", best.Config.Label(), units.FormatSeconds(best.TotalSeconds))
	}
	return 0
}

// flagSet reports whether the named flag was given on the command line
// (as opposed to holding its default).
func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// writeTrace writes the run's timeline to path in the Chrome
// trace-viewer format.
func writeTrace(path string, tracer *pmemsched.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tracer.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
