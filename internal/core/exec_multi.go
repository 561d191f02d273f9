package core

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/mquery"
	"repro/internal/query"
)

// executeMulti runs a multi-anchor query (PatternMatch / BoundedReach) as
// waves of per-anchor subtasks. Each wave is routed through the strategy's
// multi-anchor hook, billed one routing decision per subtask; subtasks on
// the same processor run serially, different processors proceed in
// parallel (their storage batches contend on the shared timeline), and the
// wave completes when its slowest processor does — the same fork/join
// shape the networked router executes with real goroutines.
func (ses *Session) executeMulti(q query.Query) (query.Result, time.Duration, error) {
	sys := ses.sys
	if q.Type == query.KNearest {
		// Fail before any subtask is issued: ranking needs the embedding,
		// and a degraded provider should cost nothing downstream.
		if err := sys.tab.KNNReady(sys.cfg.Policy.String()); err != nil {
			return query.Result{}, 0, err
		}
	}

	pl, err := mquery.NewPlan(q, sys.g.LabelID)
	if err != nil {
		return query.Result{}, 0, err
	}
	m := mquery.NewMerger(pl)

	start := ses.now
	now := ses.now
	wave := pl.Subtasks
	for len(wave) > 0 && !m.Found() {
		ses.multiWaves++
		anchors := make([]graph.NodeID, len(wave))
		for i, st := range wave {
			anchors[i] = st.Anchor
		}
		picks := ses.rt.RouteAnchors(q, anchors)
		decisionCost := ses.decisionCost()
		for range picks {
			ses.routing.Observe(int64(decisionCost))
		}
		// The router makes the wave's decisions back to back before any
		// subtask departs (it is one sequential component).
		now += time.Duration(len(picks)) * decisionCost

		// Fork: per-processor serial chains starting at the wave's fork
		// point (every processor is free by then); join at the slowest
		// chain.
		waveEnd := now
		var werr error
		for i, st := range wave {
			p := picks[i]
			part, err := ses.runSubtask(p, st, max(now, ses.next[p]))
			waveEnd = max(waveEnd, ses.next[p])
			if err != nil {
				werr = err
				break
			}
			ses.multiSubtasks++
			if err := m.Absorb(part); err != nil {
				werr = fmt.Errorf("core: %w", err)
				break
			}
			if m.Found() {
				// Early success: later subtasks of this wave are never
				// issued (the session knows the answer at the join point).
				break
			}
		}
		// The wave has ended: every pick is acked, issued or not.
		for _, p := range picks {
			ses.rt.Done(p, 1)
		}
		if werr != nil {
			// Virtual time burned before the failure is spent — failed
			// subtasks cost real capacity.
			ses.now = waveEnd
			return query.Result{}, waveEnd - start, werr
		}
		now = waveEnd
		wave = m.NextWave()
	}
	ses.now = now
	if _, maxV := m.Stats(); pl.Kind == mquery.KindReach && maxV > ses.multiMaxVisited {
		ses.multiMaxVisited = maxV
	}
	ses.queryDone()
	res := m.Result()
	if pl.Kind == mquery.KindKNN {
		// Exact re-rank at the coordinator: the processors only generated
		// the hop-bounded candidate ball; the embedding lives here.
		res = query.KNNResult(sys.tab.Embedding, q, m.Candidates())
	}
	return res, now - start, nil
}

// runSubtask executes one subtask on processor p starting at virtual time
// start: every record batch goes through the ordinary cached fetch path
// (cache charges, storage contention on the timeline, affinity penalties),
// and the traversal work is billed at ComputePerNode per unit. p's
// availability advances and the data movement is booked whether or not the
// subtask succeeds.
func (ses *Session) runSubtask(p int, st mquery.Subtask, start time.Duration) (mquery.Partial, error) {
	f := ses.fetcher(p, start)
	part, units, err := mquery.Run(st, mquery.FetchOver(f))
	if err == nil {
		f.Expanded(units)
	}
	ses.next[p] = f.now
	ses.stats.add(f.st)
	return part, err
}

// MultiStats reports the session's multi-anchor execution counters: total
// subtasks issued, total waves, and the largest BoundedReach per-subtask
// visit count seen (never above the budget — the merger enforces it).
func (ses *Session) MultiStats() (subtasks, waves int64, maxVisited int) {
	return ses.multiSubtasks, ses.multiWaves, ses.multiMaxVisited
}
