package schedd

import (
	"errors"
	"net/http"
	"strconv"

	"pmemsched/internal/cluster"
)

// The placement handlers: a mutex-serialized cluster.State. One store
// mutation at a time is not a bottleneck — a pass is microseconds of
// index work once the estimator cache is warm — and it is what keeps
// the decision log reproducible: replaying the same request sequence
// rebuilds the same schedule byte for byte.

// maxNodesPerRequest bounds one registration call; register a large
// fleet in pages.
const maxNodesPerRequest = 1024

// AddNodes registers n nodes directly, for startup provisioning
// (wfschedd -nodes) and the load generator's self-hosted daemon; HTTP
// clients use POST /v1/nodes.
func (s *Server) AddNodes(n int) []int {
	ids := make([]int, 0, n)
	s.storeMu.Lock()
	for i := 0; i < n; i++ {
		ids = append(ids, s.store.AddNode())
	}
	s.storeMu.Unlock()
	return ids
}

func (s *Server) handleAddNodes(w http.ResponseWriter, r *http.Request) {
	var req addNodesRequest
	if status, err := decodeJSON(w, r, &req); err != nil {
		s.replyError(w, status, "%v", err)
		return
	}
	if len(req.Names) > 0 && req.Count != 0 {
		s.replyError(w, http.StatusBadRequest, "schedd: set count or names, not both")
		return
	}
	count := req.Count
	if len(req.Names) > 0 {
		count = len(req.Names)
	}
	if count < 1 || count > maxNodesPerRequest {
		s.replyError(w, http.StatusBadRequest, "schedd: count must be in [1, %d], got %d", maxNodesPerRequest, count)
		return
	}
	resp := addNodesResponse{Nodes: make([]int, 0, count)}
	s.storeMu.Lock()
	// Validate the whole batch before registering anything: a duplicate
	// (against the store or within the request) must not leave a prefix
	// of the batch registered.
	for i, name := range req.Names {
		if name == "" {
			s.storeMu.Unlock()
			s.replyError(w, http.StatusBadRequest, "schedd: node name %d is empty", i)
			return
		}
		if id, ok := s.nodeNames[name]; ok {
			s.storeMu.Unlock()
			s.replyError(w, http.StatusBadRequest, "schedd: duplicate node name %q (already node %d)", name, id)
			return
		}
		for j := 0; j < i; j++ {
			if req.Names[j] == name {
				s.storeMu.Unlock()
				s.replyError(w, http.StatusBadRequest, "schedd: node name %q repeated in request", name)
				return
			}
		}
	}
	for i := 0; i < count; i++ {
		id := s.store.AddNode()
		if len(req.Names) > 0 {
			s.nodeNames[req.Names[i]] = id
		}
		resp.Nodes = append(resp.Nodes, id)
	}
	s.storeMu.Unlock()
	// Node IDs are dense, so the highest ID names the fleet size.
	resp.Total = resp.Nodes[len(resp.Nodes)-1] + 1
	s.reply(w, http.StatusOK, resp)
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req submitJobRequest
	if status, err := decodeJSON(w, r, &req); err != nil {
		s.replyError(w, status, "%v", err)
		return
	}
	wf, err := req.resolve(s.cores)
	if err != nil {
		s.replyError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.storeMu.Lock()
	if req.Key != "" {
		if id, ok := s.jobKeys[req.Key]; ok {
			s.storeMu.Unlock()
			s.replyError(w, http.StatusBadRequest, "schedd: duplicate job key %q (already job %d)", req.Key, id)
			return
		}
	}
	id, err := s.store.Submit(wf, req.ArrivalSeconds)
	if err != nil {
		s.storeMu.Unlock()
		s.replyError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Key != "" {
		s.jobKeys[req.Key] = id
	}
	js, _ := s.store.Job(id)
	s.storeMu.Unlock()
	s.reply(w, http.StatusOK, jobStatusWire(js))
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		s.replyError(w, http.StatusBadRequest, "schedd: job ID must be an integer, got %q", r.PathValue("id"))
		return
	}
	s.storeMu.Lock()
	js, ok := s.store.Job(id)
	s.storeMu.Unlock()
	if !ok {
		s.replyError(w, http.StatusNotFound, "schedd: no job %d", id)
		return
	}
	s.reply(w, http.StatusOK, jobStatusWire(js))
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	s.storeMu.Lock()
	step, err := s.store.Schedule()
	now := s.store.Now()
	s.storeMu.Unlock()
	if err != nil {
		s.replyError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.reply(w, http.StatusOK, stepWire(now, step))
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req advanceRequest
	if status, err := decodeJSON(w, r, &req); err != nil {
		s.replyError(w, status, "%v", err)
		return
	}
	s.storeMu.Lock()
	step, err := s.store.AdvanceTo(req.ToSeconds)
	now := s.store.Now()
	s.storeMu.Unlock()
	if err != nil {
		// An invalid target (backwards, NaN, ±Inf) is the client's
		// fault; anything else is a store failure.
		status := http.StatusInternalServerError
		if errors.Is(err, cluster.ErrInvalidAdvance) {
			status = http.StatusBadRequest
		}
		s.replyError(w, status, "%v", err)
		return
	}
	s.reply(w, http.StatusOK, stepWire(now, step))
}

func (s *Server) handleState(w http.ResponseWriter, _ *http.Request) {
	s.storeMu.Lock()
	snap := s.store.Snapshot()
	s.storeMu.Unlock()
	s.reply(w, http.StatusOK, snapshotWire(snap))
}
