package main

import (
	"bytes"
	"fmt"
	"time"

	"pmemsched/internal/core"
	"pmemsched/internal/experiments"
)

// suiteRun is one regeneration of the paper's evaluation: each
// experiment's rendered report, its wall time, and the claim tally
// line wfsuite prints last.
type suiteRun struct {
	ids     []string
	reports [][]byte
	lat     []float64 // ms per experiment
	tally   string
	wall    float64
}

// text is the whole report as wfsuite prints it.
func (s *suiteRun) text() []byte {
	var b bytes.Buffer
	for _, r := range s.reports {
		b.Write(r)
	}
	b.WriteString(s.tally)
	return b.Bytes()
}

// runSuite regenerates the experiments on rt in order, keeping the
// rendered text in memory. With rec non-nil each experiment is a root
// span named after its ID.
func runSuite(rt *core.Runner, exps []experiments.Experiment, rec *Recorder) (*suiteRun, error) {
	out := &suiteRun{}
	ok, total := 0, 0
	start := time.Now()
	for i, e := range exps {
		id := rec.Begin("experiments."+e.ID, uint64(i+1), 0)
		t := time.Now()
		rep, err := e.Run(rt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		var b bytes.Buffer
		if err := rep.Render(&b); err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		out.lat = append(out.lat, float64(time.Since(t).Nanoseconds())/1e6)
		rec.End(id)
		m, n := rep.Matched()
		ok += m
		total += n
		out.ids = append(out.ids, e.ID)
		out.reports = append(out.reports, b.Bytes())
	}
	out.tally = fmt.Sprintf("== summary: %d/%d paper claims matched ==\n", ok, total)
	out.wall = since(start)
	return out, nil
}

// check compares each experiment's report and the tally with the
// references, returning the number of checked items and mismatches.
func (s *suiteRun) check(refs *references) (attempted, failed int, problems []string) {
	for i, id := range s.ids {
		attempted++
		if digestOf(s.reports[i]) != refs.Suite[id] {
			failed++
			problems = append(problems, fmt.Sprintf("experiment %s report differs from the reference", id))
		}
	}
	attempted++
	if s.tally != refs.SuiteTally {
		failed++
		problems = append(problems, fmt.Sprintf("tally %q, want %q", s.tally, refs.SuiteTally))
	}
	return attempted, failed, problems
}
