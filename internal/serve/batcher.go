package serve

import (
	"context"
	"time"

	"traj2hash"
)

// searchReq is one search waiting in the batcher queue. It carries the
// request's deadline as a time.Time rather than its context (a context
// stored in a struct outlives the frame that owns cancellation; see the
// ctxfirst contract) — the batch rebuilds a context from the earliest
// member deadline at flush time.
type searchReq struct {
	traj     traj2hash.Trajectory
	k        int
	enqueued time.Time // when the handler queued it; batch wait is measured from here
	deadline time.Time // zero = no deadline
	resp     chan searchResult
}

// searchResult is the batcher's answer to one searchReq.
type searchResult struct {
	results []traj2hash.Result
	status  traj2hash.Status
	batched int // size of the coalesced batch this query rode in
}

// dispatch is the batcher loop: collect a batch from s.in, flush it,
// repeat until quit. It runs in a wg-accounted goroutine started by Run
// and exits when s.quit closes — which Run does only after HTTP
// Shutdown has returned, so a drain never strands an accepted search.
func (s *Server) dispatch() {
	for {
		select {
		case first := <-s.in:
			s.flush(s.collect(first))
		case <-s.quit:
			s.discardQueue()
			return
		}
	}
}

// maxBatch caps the coalesced batch size.
const maxBatch = 64

// collect gathers a batch starting from first, flush-when-idle: it takes
// whatever is already queued without blocking and, if no flush is in
// flight, returns at once — a request that meets an idle server never
// waits. Only while a flight is in the air is the batch held open, and
// then until that flight lands (flightsLanded), maxBatch fills, or
// BatchWindow has passed: arrivals that overlap a flight are exactly the
// ones that can share the next one, so the batch size follows the load
// by itself and the window is the maximum hold, not the hold. A negative
// window disables coalescing. On quit the partial batch is returned
// as-is — flush still answers its members.
func (s *Server) collect(first *searchReq) []*searchReq {
	batch := []*searchReq{first}
	if s.cfg.BatchWindow < 0 {
		return batch
	}
	var window <-chan time.Time // armed only once the batch actually has to wait
	for len(batch) < maxBatch {
		select {
		case sr := <-s.in:
			batch = append(batch, sr)
			continue
		default:
		}
		if s.flights.Load() == 0 {
			return batch
		}
		if window == nil {
			timer := time.NewTimer(s.cfg.BatchWindow)
			defer timer.Stop()
			window = timer.C
		}
		select {
		case sr := <-s.in:
			batch = append(batch, sr)
		case <-s.flightsLanded:
			// Possibly a token left by an earlier landing nobody waited
			// for: the loop re-reads the count before it trusts it.
		case <-window:
			return batch
		case <-s.quit:
			return batch
		}
	}
	return batch
}

// flush answers a batch. Members are grouped by k (SearchBatchCtx takes
// one k per call) preserving arrival order, and each group runs in its
// own wg-accounted goroutine — a flight, counted in s.flights until it
// lands — so a slow flush never blocks the dispatch loop from
// collecting the next batch.
func (s *Server) flush(batch []*searchReq) {
	if len(batch) == 0 {
		return
	}
	groups := make(map[int][]*searchReq)
	var order []int
	for _, sr := range batch {
		if _, ok := groups[sr.k]; !ok {
			order = append(order, sr.k)
		}
		groups[sr.k] = append(groups[sr.k], sr)
	}
	for _, k := range order {
		g := groups[k]
		s.wg.Add(1)
		s.flights.Add(1)
		go func(k int, g []*searchReq) {
			defer s.wg.Done()
			defer s.landFlight()
			s.flushGroup(k, g)
		}(k, g)
	}
}

// landFlight retires one flight. The one that brings the count to zero
// tells collect the server is idle again, so a batch held behind it
// leaves now rather than when its window expires. The send never
// blocks, and a token already in the channel serves just as well: the
// dispatcher re-reads the count after every wake-up.
func (s *Server) landFlight() {
	if s.flights.Add(-1) == 0 {
		select {
		case s.flightsLanded <- struct{}{}:
		default:
		}
	}
}

// flushGroup runs one coalesced engine invocation. The batch context
// carries the earliest member deadline: the engine's fan-out salvages
// per-shard partial results at that deadline, and members with later
// deadlines still get the batch's (possibly partial) answer rather
// than waiting alone past their neighbor's budget — the price of
// riding a shared batch.
func (s *Server) flushGroup(k int, g []*searchReq) {
	ctx := context.Background()
	var earliest time.Time
	for _, sr := range g {
		if sr.deadline.IsZero() {
			continue
		}
		if earliest.IsZero() || sr.deadline.Before(earliest) {
			earliest = sr.deadline
		}
	}
	if !earliest.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, earliest)
		defer cancel()
	}

	s.met.batches.Inc()
	s.met.batchQueries.Add(int64(len(g)))
	s.met.batchSize.Observe(float64(len(g)))
	flushStart := time.Now()
	for _, sr := range g {
		s.met.batchWait.Observe(flushStart.Sub(sr.enqueued).Seconds())
	}
	qs := make([]traj2hash.Trajectory, len(g))
	for i, sr := range g {
		qs[i] = sr.traj
	}
	results, statuses := s.cfg.Index.SearchBatchCtx(ctx, qs, k)
	for i, sr := range g {
		res := searchResult{batched: len(g)}
		if i < len(results) {
			res.results = results[i]
		}
		if i < len(statuses) {
			res.status = statuses[i]
		}
		sr.resp <- res // buffered(1): never blocks, even if the handler timed out
	}
}

// discardQueue empties whatever is left in s.in after shutdown. Safe to
// drop: Run closes quit only after http.Shutdown returned, so any
// request still queued here belongs to a handler that already gave up
// (DrainTimeout) and answered 504 — it is counted, not silently lost.
func (s *Server) discardQueue() {
	for {
		select {
		case <-s.in:
			s.met.drainDiscarded.Inc()
		default:
			return
		}
	}
}
