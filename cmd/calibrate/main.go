// Command calibrate searches the device-model and workload calibration
// space for constants that reproduce the paper's qualitative results:
// the winning configuration for each of the 18 suite workloads
// (Table II) and the effect-size bands the paper states in §VI
// ("S-LocW ... up to 2.5x better", "S-LocR provides 11.5% faster
// runtime than parallel", and so on).
//
// The optimizer is a simple multi-start coordinate descent: the score
// counts correctly predicted winners first and penalizes margin-band
// violations second. The winning constants are meant to be transcribed
// into pmem.Gen1Optane, nova.DefaultCosts and the workloads package;
// the calibration acceptance tests then pin the outcome.
//
// Usage:
//
//	calibrate [-iters N] [-seed S] [-quick]
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pmemsched/internal/cli"
	"pmemsched/internal/core"
	"pmemsched/internal/numa"
	"pmemsched/internal/platform"
	"pmemsched/internal/pmem"
	"pmemsched/internal/stack"
	"pmemsched/internal/stack/nova"
	"pmemsched/internal/units"
	"pmemsched/internal/workflow"
	"pmemsched/internal/workloads"
)

// param describes one searchable dimension.
type param struct {
	name    string
	lo, hi  float64
	integer bool
}

var params = []param{
	{"novaWriteSW", 3e-6, 1.2e-5, false},      // 0: total per-op write software cost
	{"novaReadSW", 4e-7, 4.0e-6, false},       // 1: total per-op read software cost
	{"rwSlopeBase", 0, 0.03, false},           // 2
	{"rwSlopePressure", 0.02, 0.30, false},    // 3
	{"dragBase", 0, 0.06, false},              // 4
	{"dragPressure", 0, 0.35, false},          // 5
	{"mixPenalty", 0.15, 0.65, false},         // 6
	{"smallMixBoost", 0, 0.30, false},         // 7
	{"mixPressureFloor", 0.05, 1, false},      // 8
	{"mixOnsetOps", 4, 24, true},              // 9
	{"mixRampSpan", 4, 40, true},              // 10
	{"dimmSlope", 0, 0.025, false},            // 11
	{"xpThrashSlope", 0, 0.04, false},         // 12
	{"pressureTau", 0.5, 6, false},            // 13
	{"gtcCompute", 0.8, 4.2, false},           // 14
	{"mmGTCPerObject", 0.1, 1.2, false},       // 15
	{"miniamrCompute", 0.01, 0.15, false},     // 16
	{"mmMiniAMRPerObject", 5e-7, 8e-6, false}, // 17
	{"remoteReadSpan", 0.05, 0.8, false},      // 18: max penalty - base
	{"remoteReadBase", 0, 0.2, false},         // 19: base - 1
	{"writeDecay", 0, 0.03, false},            // 20
	{"xpThrashOps", 12, 48, true},             // 21
	{"remoteFreeOps", 0.5, 4, false},          // 22
	{"rwQuadBase", 0, 0.004, false},           // 23
	{"rwQuadPressure", 0, 0.012, false},       // 24
	{"remoteReadRampOps", 3, 24, false},       // 25
	{"rwPressureKnee", 0.08, 0.6, false},      // 26
	{"rwPressureWidth", 0.02, 0.2, false},     // 27
	{"rwSatSlope", 0, 0.35, false},            // 28
	{"rwSatOps", 0.3, 8, false},               // 29
	{"rrLatQueue", 0, 1.2e-7, false},          // 30
}

// point is one candidate parameter vector.
type point []float64

func (p point) clone() point { return append(point(nil), p...) }

// settings materializes a candidate into model/cost/workload constants.
type settings struct {
	model     pmem.Model
	novaCosts nova.Costs

	gtcCompute float64
	mmGTC      float64
	maCompute  float64
	mmMA       float64
}

func materialize(p point) settings {
	m := pmem.Gen1Optane()
	m.RemoteWriteSlopeBase = p[2]
	m.RemoteWriteSlopePressure = p[3]
	m.RemoteReadDragBase = p[4]
	m.RemoteReadDragPressure = p[5]
	m.MixPenalty = p[6]
	m.SmallMixBoost = p[7]
	m.MixPressureFloor = p[8]
	m.MixOnsetOps = int(math.Round(p[9]))
	m.MixFullOps = m.MixOnsetOps + int(math.Round(p[10]))
	m.DimmSlope = p[11]
	m.XPThrashSlope = p[12]
	m.PressureTau = p[13]
	m.RemoteReadBase = 1 + p[19]
	m.RemoteReadMaxPenalty = m.RemoteReadBase + p[18]
	m.WriteDecay = p[20]
	m.XPThrashOps = int(math.Round(p[21]))
	m.RemoteFreeOps = p[22]
	m.RemoteWriteQuadBase = p[23]
	m.RemoteWriteQuadPressure = p[24]
	m.RemoteReadRampOps = p[25]
	m.RemoteWritePressureKnee = p[26]
	m.RemoteWritePressureWidth = p[27]
	m.RemoteWriteSatSlope = p[28]
	m.RemoteWriteSatOps = p[29]
	m.RemoteReadLatQueue = p[30]

	costs := nova.DefaultCosts()
	costs.WriteLog = p[0] - costs.SyscallCross
	costs.ReadLookup = p[1] - costs.SyscallCross
	if costs.ReadLookup < 50*units.Nanosecond {
		costs.ReadLookup = 50 * units.Nanosecond
	}
	if costs.WriteLog < 100*units.Nanosecond {
		costs.WriteLog = 100 * units.Nanosecond
	}
	return settings{
		model:      m,
		novaCosts:  costs,
		gtcCompute: p[14],
		mmGTC:      p[15],
		maCompute:  p[16],
		mmMA:       p[17],
	}
}

func (s settings) env() core.Env {
	return core.Env{
		NewMachine: func() *platform.Machine {
			return platform.New(numa.TestbedConfig(), s.model)
		},
		NewStack: func() stack.Instance { return nova.New(s.novaCosts) },
	}
}

// suite builds the 18 workloads with the candidate's workload constants.
func (s settings) suite() []workflow.Spec {
	gtc := workloads.GTC()
	gtc.ComputePerIteration = s.gtcCompute
	mmGTC := workloads.MatrixMultGTC()
	mmGTC.ComputePerObject = s.mmGTC
	mmMA := workloads.MatrixMultMiniAMR()
	mmMA.ComputePerObject = s.mmMA

	var out []workflow.Spec
	for _, r := range []int{8, 16, 24} {
		out = append(out, workloads.MicroWorkflow(workloads.MicroObjectLarge, r))
	}
	for _, r := range []int{8, 16, 24} {
		out = append(out, workloads.MicroWorkflow(workloads.MicroObjectSmall, r))
	}
	for _, r := range []int{8, 16, 24} {
		out = append(out, workflow.Couple(fmt.Sprintf("gtc+readonly/%dr", r), gtc, workloads.ReadOnlyApp(), r, workloads.Iterations))
	}
	for _, r := range []int{8, 16, 24} {
		out = append(out, workflow.Couple(fmt.Sprintf("gtc+matrixmult/%dr", r), gtc, mmGTC, r, workloads.Iterations))
	}
	for _, r := range []int{8, 16, 24} {
		ma := workloads.MiniAMR(r)
		ma.ComputePerIteration = s.maCompute
		out = append(out, workflow.Couple(fmt.Sprintf("miniamr+readonly/%dr", r), ma, workloads.ReadOnlyApp(), r, workloads.Iterations))
	}
	for _, r := range []int{8, 16, 24} {
		ma := workloads.MiniAMR(r)
		ma.ComputePerIteration = s.maCompute
		out = append(out, workflow.Couple(fmt.Sprintf("miniamr+matrixmult/%dr", r), ma, mmMA, r, workloads.Iterations))
	}
	return out
}

// band is a ratio constraint between two configurations' runtimes.
type band struct {
	num, den core.Config
	lo, hi   float64
	label    string
}

// target encodes one suite row's expected outcome.
type target struct {
	index int // into suite()
	name  string
	want  core.Config
	bands []band
}

// specialBest markers for bands comparing against the best of a mode.
var (
	bestParallel = core.Config{Mode: core.Parallel, Placement: 99}
	bestSerial   = core.Config{Mode: core.Serial, Placement: 99}
)

func targets() []target {
	sw, sr, pw, pr := core.SLocW, core.SLocR, core.PLocW, core.PLocR
	return []target{
		{0, "micro-64MB/8", sw, nil},
		{1, "micro-64MB/16", sw, []band{{sr, sw, 1.3, 3.6, "S-LocR vs S-LocW"}}},
		{2, "micro-64MB/24", sw, []band{{sr, sw, 1.6, 3.4, "2.5x claim"}}},
		{3, "micro-2K/8", pr, []band{{sr, pr, 1.03, 1.40, "10-14% over S-LocR"}}},
		{4, "micro-2K/16", pr, []band{{sr, pr, 1.03, 1.40, "10-14% over S-LocR"}}},
		{5, "micro-2K/24", sr, []band{{bestParallel, sr, 1.03, 1.45, "11.5% over parallel"}}},
		{6, "gtc+ro/8", pr, []band{{bestSerial, pr, 1.01, 1.30, "3-9% over serial"}}},
		{7, "gtc+ro/16", sr, []band{{bestParallel, sr, 1.01, 1.30, "6-7% over parallel"}}},
		{8, "gtc+ro/24", sw, []band{{sr, sw, 1.02, 1.40, "6% over S-LocR"}}},
		{9, "gtc+mm/8", pr, []band{{bestSerial, pr, 1.01, 1.35, "3-9% over serial"}}},
		{10, "gtc+mm/16", pr, nil},
		{11, "gtc+mm/24", sw, nil},
		{12, "miniamr+ro/8", pr, nil},
		{13, "miniamr+ro/16", sr, []band{{pr, sr, 1.01, 1.35, "6% over P-LocR"}}},
		{14, "miniamr+ro/24", sw, []band{{sr, sw, 1.08, 1.90, "25% over S-LocR"}}},
		{15, "miniamr+mm/8", pw, []band{{pr, pw, 1.01, 1.30, "7% over P-LocR"}}},
		{16, "miniamr+mm/16", sw, nil},
		{17, "miniamr+mm/24", sw, nil},
	}
}

// evaluation result for one candidate.
type evalResult struct {
	score    float64
	correct  int
	detail   []string
	runtimes [][]float64 // [row][configIdx]
}

func configIdx(c core.Config) int {
	for i, cc := range core.Configs {
		if cc == c {
			return i
		}
	}
	return -1
}

func evaluate(p point) evalResult {
	s := materialize(p)
	if err := s.model.Validate(); err != nil {
		return evalResult{score: -1e9, detail: []string{err.Error()}}
	}
	suite := s.suite()
	env := s.env()

	runtimes := make([][]float64, len(suite))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, 16)
	for i := range suite {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := core.RunAll(suite[i], env)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			row := make([]float64, len(res))
			for j, r := range res {
				row[j] = r.TotalSeconds
			}
			runtimes[i] = row
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return evalResult{score: -1e9, detail: []string{firstErr.Error()}}
	}

	// Feature labels: the measured I/O indexes must bucket into the
	// qualitative labels Table II assigns each workload family.
	labelPenalty := func(i int) float64 {
		f, err := core.Classify(suite[i], env)
		if err != nil {
			return 2
		}
		bad := 0.0
		inSet := func(v workflow.IOLevel, set ...workflow.IOLevel) bool {
			for _, s := range set {
				if v == s {
					return true
				}
			}
			return false
		}
		switch {
		case i < 6: // microbenchmarks
			if f.SimCompute != workflow.LevelNil || f.SimWrite != workflow.LevelHigh ||
				f.AnaCompute != workflow.LevelNil || f.AnaRead != workflow.LevelHigh {
				bad++
			}
		case i < 9: // gtc+readonly
			if f.SimCompute != workflow.LevelHigh || f.SimWrite != workflow.LevelLow ||
				!inSet(f.AnaCompute, workflow.LevelNil, workflow.LevelLow) || f.AnaRead != workflow.LevelHigh {
				bad++
			}
		case i < 12: // gtc+matrixmult
			if f.SimCompute != workflow.LevelHigh || f.SimWrite != workflow.LevelLow ||
				!inSet(f.AnaCompute, workflow.LevelMedium, workflow.LevelHigh) {
				bad++
			}
		case i < 15: // miniamr+readonly
			if f.SimCompute != workflow.LevelLow || f.SimWrite != workflow.LevelHigh ||
				f.AnaCompute != workflow.LevelLow || f.AnaRead != workflow.LevelHigh {
				bad++
			}
		default: // miniamr+matrixmult
			if f.SimCompute != workflow.LevelLow || f.SimWrite != workflow.LevelHigh ||
				!inSet(f.AnaCompute, workflow.LevelMedium, workflow.LevelHigh) ||
				!inSet(f.AnaRead, workflow.LevelLow, workflow.LevelMedium) {
				bad++
			}
		}
		return bad
	}
	labels := make([]float64, len(suite))
	var lwg sync.WaitGroup
	for i := range suite {
		lwg.Add(1)
		go func(i int) {
			defer lwg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			labels[i] = labelPenalty(i)
		}(i)
	}
	lwg.Wait()

	// Classification/recommendation agreement: the Table II rule engine
	// (driven by the candidate's measured I/O indexes) must pick each
	// workload's oracle-best configuration, or tab2 fails.
	recs := make([]core.Config, len(suite))
	recErr := make([]error, len(suite))
	var rwg sync.WaitGroup
	for i := range suite {
		rwg.Add(1)
		go func(i int) {
			defer rwg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rec, err := core.RecommendWorkflow(suite[i], env)
			if err != nil {
				recErr[i] = err
				return
			}
			recs[i] = rec.Config
		}(i)
	}
	rwg.Wait()

	er := evalResult{runtimes: runtimes}
	for _, t := range targets() {
		row := runtimes[t.index]
		bestIdx := 0
		for j := range row {
			if row[j] < row[bestIdx] {
				bestIdx = j
			}
		}
		wantIdx := configIdx(t.want)
		if bestIdx == wantIdx {
			er.correct++
			er.score += 100
			// Reward a non-knife-edge win: second best at least 0.5% away.
			second := math.Inf(1)
			for j := range row {
				if j != wantIdx && row[j] < second {
					second = row[j]
				}
			}
			margin := second/row[wantIdx] - 1
			if margin < 0.005 {
				er.score -= 20 * (0.005 - margin) / 0.005
			}
		} else {
			// Partial credit for being close.
			gap := row[wantIdx]/row[bestIdx] - 1
			er.score -= 40 * math.Min(1, gap/0.25)
			er.detail = append(er.detail, fmt.Sprintf("%s: want %s got %s (gap %.1f%%)",
				t.name, t.want.Label(), core.Configs[bestIdx].Label(), gap*100))
		}
		if labels[t.index] > 0 {
			er.score -= 25 * labels[t.index]
			er.detail = append(er.detail, fmt.Sprintf("%s: feature labels off Table II", t.name))
		}
		if recErr[t.index] != nil {
			er.score -= 50
			er.detail = append(er.detail, fmt.Sprintf("%s: recommend error: %v", t.name, recErr[t.index]))
		} else if recs[t.index] != core.Configs[bestIdx] {
			er.score -= 35
			er.detail = append(er.detail, fmt.Sprintf("%s: rules pick %s, oracle %s",
				t.name, recs[t.index].Label(), core.Configs[bestIdx].Label()))
		}
		for _, b := range t.bands {
			num := bandValue(row, b.num)
			den := bandValue(row, b.den)
			ratio := num / den
			var viol float64
			if ratio < b.lo {
				viol = math.Log(b.lo / ratio)
			} else if ratio > b.hi {
				viol = math.Log(ratio / b.hi)
			}
			if viol > 0 {
				er.score -= 30 * viol
				er.detail = append(er.detail, fmt.Sprintf("%s: band %s ratio %.3f outside [%.2f,%.2f]",
					t.name, b.label, ratio, b.lo, b.hi))
			}
		}
	}
	return er
}

func bandValue(row []float64, c core.Config) float64 {
	if c.Placement == 99 {
		best := math.Inf(1)
		for j, cc := range core.Configs {
			if cc.Mode == c.Mode && row[j] < best {
				best = row[j]
			}
		}
		return best
	}
	return row[configIdx(c)]
}

func defaultPoint() point {
	m := pmem.Gen1Optane()
	costs := nova.DefaultCosts()
	return point{
		costs.SyscallCross + costs.WriteLog,
		costs.SyscallCross + costs.ReadLookup,
		m.RemoteWriteSlopeBase,
		m.RemoteWriteSlopePressure,
		m.RemoteReadDragBase,
		m.RemoteReadDragPressure,
		m.MixPenalty,
		m.SmallMixBoost,
		m.MixPressureFloor,
		float64(m.MixOnsetOps),
		float64(m.MixFullOps - m.MixOnsetOps),
		m.DimmSlope,
		m.XPThrashSlope,
		m.PressureTau,
		workloads.GTC().ComputePerIteration,
		workloads.MatrixMultGTC().ComputePerObject,
		workloads.MiniAMR(8).ComputePerIteration,
		workloads.MatrixMultMiniAMR().ComputePerObject,
		m.RemoteReadMaxPenalty - m.RemoteReadBase,
		m.RemoteReadBase - 1,
		m.WriteDecay,
		float64(m.XPThrashOps),
		m.RemoteFreeOps,
		m.RemoteWriteQuadBase,
		m.RemoteWriteQuadPressure,
		m.RemoteReadRampOps,
		m.RemoteWritePressureKnee,
		m.RemoteWritePressureWidth,
		m.RemoteWriteSatSlope,
		m.RemoteWriteSatOps,
		m.RemoteReadLatQueue,
	}
}

func clampPoint(p point) {
	for i := range p {
		if p[i] < params[i].lo {
			p[i] = params[i].lo
		}
		if p[i] > params[i].hi {
			p[i] = params[i].hi
		}
		if params[i].integer {
			p[i] = math.Round(p[i])
		}
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses args, runs the requested evaluation or search, prints
// its progress and report to stdout (errors go to stderr), and returns
// the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	iters := fs.Int("iters", 6, "coordinate-descent sweeps")
	focus := fs.String("focus", "", "comma-separated parameter indices to randomize around the defaults (random search instead of coordinate descent)")
	samples := fs.Int("samples", 400, "random samples in -focus mode")
	seed := fs.Int64("seed", 1, "random seed for restarts")
	restarts := fs.Int("restarts", 2, "random restarts")
	quick := fs.Bool("quick", false, "evaluate the current defaults and exit")
	pointArg := fs.String("point", "", "evaluate a comma-separated parameter vector and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *pointArg != "" {
		parts := strings.Split(*pointArg, ",")
		if len(parts) != len(params) {
			fmt.Fprintf(os.Stderr, "calibrate: point has %d values, want %d\n", len(parts), len(params))
			return 2
		}
		p := make(point, len(parts))
		for i, s := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				fmt.Fprintln(os.Stderr, "calibrate:", err)
				return 2
			}
			p[i] = v
		}
		clampPoint(p)
		return report(stdout, p)
	}
	if *quick {
		return report(stdout, defaultPoint())
	}

	rng := rand.New(rand.NewSource(*seed))
	best := defaultPoint()
	bestEval := evaluate(best)
	cli.Sayf(stdout, "start: score %.1f correct %d/18\n", bestEval.score, bestEval.correct)

	if *focus != "" {
		var idx []int
		for _, s := range strings.Split(*focus, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 0 || v >= len(params) {
				fmt.Fprintf(os.Stderr, "calibrate: bad focus index %q\n", s)
				return 2
			}
			idx = append(idx, v)
		}
		for s := 0; s < *samples; s++ {
			cand := best.clone()
			for _, i := range idx {
				span := params[i].hi - params[i].lo
				cand[i] += (rng.Float64() - 0.5) * 0.5 * span
			}
			clampPoint(cand)
			ce := evaluate(cand)
			if ce.score > bestEval.score {
				best, bestEval = cand, ce
				cli.Sayf(stdout, "sample %d: score %.1f correct %d/18\n  new best: %v\n", s, ce.score, ce.correct, []float64(best))
			}
		}
		cli.Sayln(stdout, "\n=== best ===")
		return report(stdout, best)
	}

	for restart := 0; restart <= *restarts; restart++ {
		var cur point
		if restart == 0 {
			cur = best.clone()
		} else {
			cur = best.clone()
			for i := range cur {
				span := params[i].hi - params[i].lo
				cur[i] += (rng.Float64() - 0.5) * 0.3 * span
			}
			clampPoint(cur)
		}
		curEval := evaluate(cur)
		for sweep := 0; sweep < *iters; sweep++ {
			improved := false
			for i := range params {
				span := params[i].hi - params[i].lo
				steps := []float64{-0.18 * span, -0.06 * span, -0.02 * span, -0.007 * span,
					0.007 * span, 0.02 * span, 0.06 * span, 0.18 * span}
				for _, d := range steps {
					cand := cur.clone()
					cand[i] += d
					clampPoint(cand)
					if cand[i] == cur[i] {
						continue
					}
					ce := evaluate(cand)
					if ce.score > curEval.score {
						cur, curEval = cand, ce
						improved = true
					}
				}
			}
			cli.Sayf(stdout, "restart %d sweep %d: score %.1f correct %d/18\n", restart, sweep, curEval.score, curEval.correct)
			if curEval.score > bestEval.score {
				best, bestEval = cur.clone(), curEval
				cli.Sayf(stdout, "  new best: %v\n", []float64(best))
			}
			if !improved {
				break
			}
		}
		if curEval.score > bestEval.score {
			best, bestEval = cur, curEval
		}
	}

	cli.Sayln(stdout, "\n=== best ===")
	return report(stdout, best)
}

// report evaluates p, prints the score, the parameter vector, every
// band violation and the per-workload winners, and returns the exit
// code: 1 when the point is infeasible.
func report(stdout io.Writer, p point) int {
	er := evaluate(p)
	cli.Sayf(stdout, "score %.1f, correct %d/18\n", er.score, er.correct)
	for i, prm := range params {
		cli.Sayf(stdout, "  %-22s %.6g\n", prm.name, p[i])
	}
	sort.Strings(er.detail)
	for _, d := range er.detail {
		cli.Sayln(stdout, "  !", d)
	}
	s := materialize(p)
	suite := s.suite()
	tg := targets()
	for _, t := range tg {
		row := er.runtimes[t.index]
		if row == nil {
			continue
		}
		bestIdx := 0
		for j := range row {
			if row[j] < row[bestIdx] {
				bestIdx = j
			}
		}
		mark := " "
		if core.Configs[bestIdx] == t.want {
			mark = "*"
		}
		cli.Sayf(stdout, "%s %-22s want %-6s got %-6s  [%7.2f %7.2f %7.2f %7.2f]\n",
			mark, suite[t.index].Name, t.want.Label(), core.Configs[bestIdx].Label(),
			row[0], row[1], row[2], row[3])
	}
	if er.score <= -1e8 {
		return 1
	}
	return 0
}
