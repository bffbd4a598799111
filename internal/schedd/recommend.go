package schedd

import (
	"bytes"
	"context"
	"net/http"

	"pmemsched/internal/core"
	"pmemsched/internal/workflow"
)

// The recommend handlers call the shared run engine directly: it
// already memoizes every step by content, coalesces identical
// in-flight work (the inflight_joins counter) and bounds concurrent
// executions with its worker pool. What the handlers add is admission
// and the deadline.

// serveDecision admits the request, runs fn detached from it and
// answers with the result: 200, 500 on an engine error, or 504 once
// the request deadline passes first. A decision past its deadline keeps
// computing and warms the cache for the retry. It keeps its admission
// slot until it finishes, so requests that give up cannot pile up
// unbounded work behind the gate; Server.Close waits for it.
func serveDecision[T any](s *Server, w http.ResponseWriter, r *http.Request, fn func() (T, error)) {
	if !s.admit(w) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	type outcome struct {
		v   T
		err error
	}
	done := make(chan outcome, 1) // buffered: a detached decision never blocks on delivery
	s.decisions.Add(1)
	go func() {
		defer s.decisions.Done()
		v, err := fn()
		s.gate.release() // before delivery, so the answered client finds the slot free
		done <- outcome{v, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			s.replyError(w, http.StatusInternalServerError, "%v", o.err)
			return
		}
		s.reply(w, http.StatusOK, o.v)
	case <-ctx.Done():
		s.replyError(w, http.StatusGatewayTimeout, "deadline exceeded while the decision was computing; retry to hit the warmed cache")
	}
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req recommendRequest
	if status, err := decodeJSON(w, r, &req); err != nil {
		s.replyError(w, status, "%v", err)
		return
	}
	if len(req.DAG) > 0 {
		s.handleRecommendDAG(w, r, req)
		return
	}
	wf, err := req.resolve(s.cores)
	if err != nil {
		s.replyError(w, http.StatusBadRequest, "%v", err)
		return
	}
	serveDecision(s, w, r, func() (recommendResponse, error) {
		return s.recommend(wf, req.IncludeRuntimes)
	})
}

// recommend is the plain decision: classify the workflow, apply
// Table II, and run it under the chosen configuration — or under all
// four when the request asked for every runtime.
func (s *Server) recommend(wf workflow.Spec, includeAll bool) (recommendResponse, error) {
	rec, err := s.rt.RecommendWorkflow(wf)
	if err != nil {
		return recommendResponse{}, err
	}
	resp := recommendResponse{
		Workflow:     wf.Name,
		Ranks:        wf.Ranks,
		Config:       rec.Config.Label(),
		Rule:         rec.Row.ID,
		Illustrative: rec.Row.Illustrative,
		Features:     featuresWire(rec.Features),
	}
	if wf.Tier.Enabled() {
		resp.Tier = wf.Tier.Label()
	}
	if !includeAll {
		chosen, err := s.rt.Run(wf, rec.Config)
		if err != nil {
			return recommendResponse{}, err
		}
		resp.RuntimeSeconds = chosen.TotalSeconds
		return resp, nil
	}
	all, err := s.rt.RunAll(wf)
	if err != nil {
		return recommendResponse{}, err
	}
	for _, res := range all {
		if res.Config == rec.Config {
			resp.RuntimeSeconds = res.TotalSeconds
		}
		resp.Runtimes = append(resp.Runtimes, configRuntime{
			Config:         res.Config.Label(),
			RuntimeSeconds: res.TotalSeconds,
		})
	}
	return resp, nil
}

// handleRecommendDAG is the DAG decision path: a per-stage tuned
// configuration (core.TuneDAG over the shared engine) instead of a
// Table II cell, under the same deadline as the plain path. Its many
// per-edge kernel runs coalesce in the runner's singleflight cache,
// which is where concurrent identical DAG requests meet.
func (s *Server) handleRecommendDAG(w http.ResponseWriter, r *http.Request, req recommendRequest) {
	if req.Name != "" || len(req.Workflow) > 0 {
		s.replyError(w, http.StatusBadRequest, "schedd: request sets dag next to name or workflow; pick one")
		return
	}
	if len(req.Tier) > 0 {
		s.replyError(w, http.StatusBadRequest, "schedd: tier applies to plain workflows, not dag requests; declare per-stage tiers in the dag spec")
		return
	}
	d, err := workflow.ReadDAGSpec(bytes.NewReader(req.DAG))
	if err == nil {
		err = checkWidth(d.Name, d.MaxRanks(), s.cores)
	}
	if err != nil {
		s.replyError(w, http.StatusBadRequest, "%v", err)
		return
	}
	serveDecision(s, w, r, func() (dagRecommendResponse, error) {
		return s.recommendDAG(d)
	})
}

// recommendDAG tunes the DAG's per-stage configurations.
func (s *Server) recommendDAG(d workflow.DAGSpec) (dagRecommendResponse, error) {
	tuned, err := core.TuneDAG(s.rt, d, core.DAGOptions{})
	if err != nil {
		return dagRecommendResponse{}, err
	}
	resp := dagRecommendResponse{
		Workflow:               d.Name,
		Stages:                 []dagStageConfigJSON{},
		MakespanSeconds:        tuned.Prediction.MakespanSeconds,
		CostCoreSeconds:        tuned.Prediction.CostCoreSeconds,
		UniformConfig:          core.Config{Mode: tuned.Uniform.Mode, Placement: tuned.Uniform.Place}.Label(),
		UniformMakespanSeconds: tuned.UniformPrediction.MakespanSeconds,
		UniformCostCoreSeconds: tuned.UniformPrediction.CostCoreSeconds,
		Evaluations:            tuned.Evaluations,
	}
	for i, st := range d.Stages {
		sc := tuned.Assignment.Stages[i]
		ranks := st.Ranks
		if sc.Ranks > 0 {
			ranks = sc.Ranks
		}
		resp.Stages = append(resp.Stages, dagStageConfigJSON{
			Stage:  st.Name,
			Ranks:  ranks,
			Config: core.Config{Mode: sc.Mode, Placement: sc.Place}.Label(),
			Stack:  sc.Stack,
		})
	}
	return resp, nil
}
