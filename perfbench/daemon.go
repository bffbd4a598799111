package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"pmemsched/internal/cluster"
	"pmemsched/internal/core"
	"pmemsched/internal/schedd"
)

const (
	// placementNodes is the daemon's pre-registered fleet.
	placementNodes = 4
	// placementInterarrival is client B's mean virtual time between
	// submissions, in seconds.
	placementInterarrival = 8.0
	// stateEvery is how many rounds client B runs between GET /v1/state.
	stateEvery = 10
	// stateCheckRound is the round whose state digest is pinned in the
	// references for recorded seeds.
	stateCheckRound = 100
	// roundsPerSecond sizes client B's script: the rounds a run makes per
	// second of --seconds.
	roundsPerSecond = 1500
	// pairsPerSecond sizes client A's script: the warm+cold pairs a run
	// sends per second of --seconds, about what A completes while B runs
	// its rounds on a 2-vCPU machine, so the two clients overlap.
	pairsPerSecond = 80
	// missesPerCold is how many run-engine misses one unseen spec costs
	// a recommend: its classification and its run under the chosen
	// configuration.
	missesPerCold = 2
)

// Request classes, named in the X-Bench-Class header and in metrics.
const (
	classWarm  = "warm"
	classCold  = "cold"
	classPlace = "place"
	classState = "state"
)

// daemon is one in-process schedd.Server on a loopback listener.
type daemon struct {
	rt     *core.Runner
	srv    *schedd.Server
	http   *http.Server
	served chan error
	base   string
	client *http.Client
	tr     *http.Transport
}

// newDaemon builds a server over a fresh run engine on env, registers
// the fleet and warms every catalog decision. With rec non-nil the
// policy and handler are wrapped to record spans.
func newDaemon(env core.Env, rec *Recorder) (*daemon, error) {
	rt := core.NewRunner(env, workers)
	var policy cluster.Policy = cluster.PMEMAware()
	if rec != nil {
		policy = scheddPolicyWrap{inner: policy, rec: rec}
	}
	srv, err := schedd.New(schedd.Config{Runner: rt, Policy: policy})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if rec != nil {
		h = timedHandler(h, rec)
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2}
	d := &daemon{
		rt: rt, srv: srv, http: &http.Server{Handler: h}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), client: &http.Client{Transport: tr}, tr: tr,
	}
	go func() { d.served <- d.http.Serve(ln) }()
	srv.AddNodes(placementNodes)
	for _, body := range catalogBodies() {
		st, _, _, err := d.do(classWarm, 0, "POST", "/v1/recommend", body)
		if err == nil && st != http.StatusOK {
			err = fmt.Errorf("warming %s: status %d", body, st)
		}
		if err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// close shuts the listener down, waits for the serve goroutine and the
// batch collectors to end, and drops idle client connections.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	d.srv.Close()
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	d.tr.CloseIdleConnections()
	return err
}

// do sends one request and returns its status, body and client-side
// latency in milliseconds.
func (d *daemon) do(class string, seq uint64, method, path, body string) (int, []byte, float64, error) {
	req, err := http.NewRequest(method, d.base+path, strings.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(headerClass, class)
	req.Header.Set(headerSeq, strconv.FormatUint(seq, 10))
	t := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, data, float64(time.Since(t).Nanoseconds()) / 1e6, err
}

// daemonMetrics is the part of GET /metrics the traced run reads.
type daemonMetrics struct {
	Batch struct {
		Batches  uint64 `json:"batches"`
		Requests uint64 `json:"requests"`
	} `json:"batch"`
	Admission struct {
		Shed uint64 `json:"shed"`
	} `json:"admission"`
}

func (d *daemon) metrics() (daemonMetrics, error) {
	var m daemonMetrics
	st, body, _, err := d.do("metrics", 0, "GET", "/metrics", "")
	if err != nil {
		return m, err
	}
	if st != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: status %d", st)
	}
	return m, json.Unmarshal(body, &m)
}

// placeOp is one client-B request and what it returned, kept for the
// sequential replay that checks it.
type placeOp struct {
	method, path, body string
	status             int
	digest             string
}

func digestOf(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// mixResult is what one closed-loop phase measured and checked.
type mixResult struct {
	lat       map[string][]float64 // client latency by class, ms
	wall      float64
	attempted int
	failed    int
	cold      int
	rounds    int
	ops       []placeOp
	problems  []string
}

func (m *mixResult) fail(format string, args ...any) {
	m.failed++
	if len(m.problems) < 5 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// runMix drives the daemon with two closed-loop clients. Client A sends
// the given number of warm+cold pairs and client B runs the given number
// of placement rounds, so the operation mix, the run engine's cache and
// the store end the same whatever the machine's speed.
func runMix(d *daemon, seed int64, pairs, rounds int, refs *references) *mixResult {
	warm := catalogBodies()
	var a, b mixResult
	a.lat = map[string][]float64{}
	b.lat = map[string][]float64{}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // client A: warm catalog recommends alternating with unseen specs
		defer wg.Done()
		corpus := newColdCorpus(seed)
		seq := uint64(1 << 40)
		for i := 0; i < pairs; i++ {
			seq++
			st, body, lat, err := d.do(classWarm, seq, "POST", "/v1/recommend", warm[i%len(warm)])
			a.attempted++
			a.lat[classWarm] = append(a.lat[classWarm], lat)
			switch {
			case err != nil:
				a.fail("warm request: %v", err)
			case st != http.StatusOK:
				a.fail("warm request %s: status %d", warm[i%len(warm)], st)
			case digestOf(body) != refs.Warm[i%len(warm)]:
				a.fail("warm response for %s differs from the reference", warm[i%len(warm)])
			}
			wf, spec, err := corpus.next()
			if err != nil {
				a.fail("cold corpus: %v", err)
				return
			}
			seq++
			st, body, lat, err = d.do(classCold, seq, "POST", "/v1/recommend", `{"workflow":`+string(spec)+`}`)
			a.attempted++
			a.cold++
			a.lat[classCold] = append(a.lat[classCold], lat)
			var resp struct {
				Workflow string `json:"workflow"`
				Ranks    int    `json:"ranks"`
			}
			switch {
			case err != nil:
				a.fail("cold request: %v", err)
			case st != http.StatusOK:
				a.fail("cold request %s: status %d: %s", wf.Name, st, body)
			case json.Unmarshal(body, &resp) != nil || resp.Workflow != wf.Name || resp.Ranks != wf.Ranks:
				a.fail("cold response for %s names another workflow: %s", wf.Name, body)
			}
		}
	}()
	go func() { // client B: the only client that changes placement state
		defer wg.Done()
		for i, op := range scriptOps(seed, rounds) {
			class := classPlace
			if op.path == "/v1/state" {
				class = classState
			}
			st, resp, lat, err := d.do(class, uint64(i+1), op.method, op.path, op.body)
			b.attempted++
			b.lat[class] = append(b.lat[class], lat)
			if err != nil {
				b.fail("%s %s: %v", op.method, op.path, err)
				return
			}
			if st != http.StatusOK {
				b.fail("%s %s: status %d: %s", op.method, op.path, st, resp)
			}
			op.status, op.digest = st, digestOf(resp)
			b.ops = append(b.ops, op)
		}
		b.rounds = rounds
	}()
	wg.Wait()
	out := &mixResult{
		lat: a.lat, wall: since(start), attempted: a.attempted + b.attempted,
		failed: a.failed + b.failed, cold: a.cold, rounds: b.rounds, ops: b.ops,
		problems: append(a.problems, b.problems...),
	}
	for class, v := range b.lat {
		out.lat[class] = v
	}
	return out
}

// replayPlacement re-sends client B's requests in order to a fresh
// daemon, in-process and without the network, the recorder or client
// A's traffic, and returns the responses.
func replayPlacement(ops []placeOp) ([]placeOp, error) {
	srv, err := schedd.New(schedd.Config{Runner: core.NewRunner(core.DefaultEnv(), workers), Policy: cluster.PMEMAware()})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	srv.AddNodes(placementNodes)
	h := srv.Handler()
	out := make([]placeOp, len(ops))
	for i, op := range ops {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(op.method, op.path, strings.NewReader(op.body))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)
		out[i] = placeOp{method: op.method, path: op.path, body: op.body, status: rec.Code, digest: digestOf(rec.Body.Bytes())}
	}
	return out, nil
}

// stateCheckpoint returns the digest of the state body client B reads
// after round stateCheckRound, or "" when the ops stop before it.
func stateCheckpoint(ops []placeOp) string {
	reads := 0
	for _, op := range ops {
		if op.path == "/v1/state" {
			reads++
			if reads*stateEvery == stateCheckRound {
				return op.digest
			}
		}
	}
	return ""
}

// checkColdMisses checks that each unseen spec cost the run engine
// exactly its own misses, which shows no spec of the corpus repeated.
func checkColdMisses(out *outcome, before, after core.RunnerStats, cold int) {
	got := after.Misses - before.Misses
	out.check(got == uint64(missesPerCold*cold), "run-engine misses %d for %d unseen specs, want %d each", got, cold, missesPerCold)
}

// checkPlacement compares client B's responses with the replay and,
// for a recorded seed, the pinned state digest.
func checkPlacement(m *mixResult, seed int64, refs *references) {
	replay, err := replayPlacement(m.ops)
	m.attempted++
	if err != nil {
		m.fail("placement replay: %v", err)
		return
	}
	for i, op := range m.ops {
		if op.status != replay[i].status || op.digest != replay[i].digest {
			m.fail("placement response %d (%s %s) differs from the sequential replay", i, op.method, op.path)
			break
		}
	}
	if want, ok := refs.Schedd[strconv.FormatInt(seed, 10)]; ok {
		m.attempted++
		if got := stateCheckpoint(m.ops); got != want {
			m.fail("state after round %d differs from the reference (ran %d rounds)", stateCheckRound, m.rounds)
		}
	}
}
