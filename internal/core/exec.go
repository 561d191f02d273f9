package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/kvstore"
	"repro/internal/placement"
	"repro/internal/query"
	"repro/internal/simnet"
	"repro/internal/traverse"
)

// cached is a processor-cache entry: the decoded record plus its encoded
// size (the capacity charge).
type cached struct {
	rec   gstore.Record
	bytes int
}

// proc is one query processor's runtime state.
type proc struct {
	id       int
	useCache bool
	cache    *cache.LRU[cached]
	sc       scratch          // fetchRecords' result and miss buffers
	kernel   traverse.Scratch // the traversal's visited sets and frontiers
	fx       fetcher
	// near is the processor's affinity storage slot (System.nearStorageSlot
	// at provisioning time; -1 when none) — the slot whose fetches escape
	// the StorageAffinity penalty.
	near int
	// heat, when non-nil, accumulates per-record storage-read counts for
	// the owning session's placement planner. Cache hits never reach it.
	heat *placement.Heat
}

// scratch is one processor's reusable fetchRecords buffers. Everything
// here is overwritten per fetch, so records that must outlive a level
// (cache entries) are copied out by value, never referenced.
type scratch struct {
	fetch   []gstore.FetchResult
	missBuf []gstore.FetchResult
	missIDs []graph.NodeID
	missPos []int32
}

// resized returns *buf at length n, reallocating only when it has to.
func resized(buf *[]gstore.FetchResult, n int) []gstore.FetchResult {
	if cap(*buf) < n {
		*buf = make([]gstore.FetchResult, n)
	}
	return (*buf)[:n]
}

// execStats accounts one query's data movement, following Eq 8/9: hits is
// |N^c_h(q)| (records found in this processor's cache) and misses the
// records pulled from the storage tier.
type execStats struct {
	hits, misses int64
	fetchedBytes int64
}

func (a *execStats) add(b execStats) {
	a.hits += b.hits
	a.misses += b.misses
	a.fetchedBytes += b.fetchedBytes
}

// farFactor returns the StorageAffinity cost multiplier for a batch served
// by server on behalf of processor p (1 when the locality model is off or
// the batch is served by p's near slot).
func (s *System) farFactor(p *proc, server int) float64 {
	f := s.cfg.StorageAffinity
	if f <= 1 || p.near < 0 || server == p.near {
		return 1
	}
	return f
}

// recordHeat attributes one storage read of each key to p, feeding the
// owning session's placement planner. A no-op for workload-run processors
// (no heat sink) and for cache hits (which never get here).
func recordHeat(p *proc, keys []uint64) {
	if p.heat == nil {
		return
	}
	for _, k := range keys {
		p.heat.Record(k, p.id, 1)
	}
}

// fetchRecords obtains the records of ids for processor p starting at
// virtual time now: cache first, then one batched multi-read per owning
// storage server (charged on the contention timeline, halves of the RTT on
// each side). It returns the results positionally aligned with ids (OK is
// false for dangling ids), the elapsed virtual time, and the hit/miss
// accounting. The returned slice is p's scratch buffer: it is valid only
// until the next fetchRecords call on the same processor.
func (s *System) fetchRecords(p *proc, ids []graph.NodeID, now time.Duration, tl *simnet.Timeline) ([]gstore.FetchResult, time.Duration, execStats, error) {
	prof := s.cfg.Network
	var cost time.Duration
	var st execStats
	sc := &p.sc
	recs := resized(&sc.fetch, len(ids))
	sc.missIDs = sc.missIDs[:0]
	sc.missPos = sc.missPos[:0]
	var missIDs []graph.NodeID
	var missDst []gstore.FetchResult
	if p.useCache {
		for i, id := range ids {
			if c, ok := p.cache.Get(uint64(id)); ok {
				recs[i] = gstore.FetchResult{Record: c.rec, Bytes: c.bytes, OK: true}
				st.hits++
				cost += prof.CacheHit
			} else {
				recs[i] = gstore.FetchResult{}
				sc.missIDs = append(sc.missIDs, id)
				sc.missPos = append(sc.missPos, int32(i))
				cost += prof.CacheLookupMiss
			}
		}
		missIDs = sc.missIDs
		missDst = resized(&sc.missBuf, len(missIDs))
	} else {
		missIDs = ids
		missDst = recs // no scatter needed: FetchBatchInto fills every slot
	}
	if len(missIDs) == 0 {
		return recs, cost, st, nil
	}

	st.misses += int64(len(missIDs))
	var err error
	if s.cfg.NoBatching {
		// Ablation: one full round trip per key, strictly sequential.
		clock := now + cost
		for j := range missIDs {
			err = s.tier.FetchBatchInto(missIDs[j:j+1], missDst[j:j+1], func(b kvstore.Batch, bytes int64) {
				if bytes < 0 {
					// Failed attempt: a round trip burned discovering the
					// replica is gone, no data moved.
					clock += prof.RTT
					return
				}
				work := time.Duration(len(b.Keys))*prof.PerKeyService + prof.TransferCost(bytes)
				rtt := prof.RTT
				if f := s.farFactor(p, b.Server); f > 1 {
					rtt = time.Duration(float64(rtt) * f)
				}
				finish := tl.Serve(b.Server, clock+rtt/2, work)
				clock = finish + rtt/2
				st.fetchedBytes += bytes
				recordHeat(p, b.Keys)
			})
			if err != nil {
				break
			}
		}
		cost = clock - now
	} else {
		depart := now + cost + prof.RTT/2
		arrival := depart
		err = s.tier.FetchBatchInto(missIDs, missDst, func(b kvstore.Batch, bytes int64) {
			if bytes < 0 {
				// Failed attempt: the processor pays the round trip that
				// found the replica dead. The hook cannot tell a retried
				// batch from a same-round sibling, so depart is left alone:
				// siblings (modelled as issued concurrently) must not be
				// charged for the failure, and the retry's missing extra
				// departure delay is bounded by the RTT already folded into
				// arrival here.
				if a := depart + prof.RTT; a > arrival {
					arrival = a
				}
				return
			}
			work := time.Duration(len(b.Keys))*prof.PerKeyService + prof.TransferCost(bytes)
			ret := prof.RTT / 2
			if f := s.farFactor(p, b.Server); f > 1 {
				// A far batch occupies the shard no longer than a near one —
				// the penalty is the longer network path, so it lands on the
				// round trip: the return leg stretches by f (depart is shared
				// across the round's batches, so the whole penalty is here).
				// Latency is a max() term — one far batch drags the entire
				// round — which is why the planner moves whole neighbourhoods,
				// not single records.
				ret = time.Duration(float64(ret) * f)
			}
			finish := tl.Serve(b.Server, depart, work)
			if a := finish + ret; a > arrival {
				arrival = a
			}
			st.fetchedBytes += bytes
			recordHeat(p, b.Keys)
		})
		cost = arrival - now
	}
	if err != nil {
		if errors.Is(err, kvstore.ErrNoLiveReplica) {
			err = fmt.Errorf("%w: storage fetch: %v", query.ErrUnavailable, err)
		} else {
			err = fmt.Errorf("core: storage fetch: %w", err)
		}
		return nil, cost, st, err
	}
	if p.useCache {
		for j := range missIDs {
			fr := missDst[j]
			if !fr.OK {
				continue // dangling id: nothing stored, nothing cached
			}
			recs[sc.missPos[j]] = fr
			p.cache.Put(uint64(missIDs[j]), cached{rec: fr.Record, bytes: fr.Bytes}, int64(fr.Bytes))
			cost += prof.CacheInsert
		}
	}
	return recs, cost, st, nil
}

// fetcher is a processor's traverse.Fetcher for one execution: every batch
// goes through fetchRecords, and the virtual clock and the data-movement
// stats accumulate here. It lives in the proc so an execution allocates
// nothing.
type fetcher struct {
	s   *System
	p   *proc
	tl  *simnet.Timeline
	now time.Duration
	st  execStats
}

// fetcher arms p's fetcher for an execution starting at virtual time start.
func (s *System) fetcher(p *proc, start time.Duration, tl *simnet.Timeline) *fetcher {
	p.fx = fetcher{s: s, p: p, tl: tl, now: start}
	return &p.fx
}

// Fetch bills the batch whether or not it succeeds: a failed fetch still
// burned the round trips that discovered the failure.
func (f *fetcher) Fetch(ids []graph.NodeID) ([]gstore.FetchResult, error) {
	recs, dt, st, err := f.s.fetchRecords(f.p, ids, f.now, f.tl)
	f.now += dt
	f.st.add(st)
	return recs, err
}

// Expanded bills n units of traversal compute.
func (f *fetcher) Expanded(n int) {
	f.now += time.Duration(n) * f.s.cfg.Network.ComputePerNode
}

// execute runs one point query on processor p starting at virtual time
// start and returns the result, the service time, and the data-movement
// stats.
func (s *System) execute(p *proc, q query.Query, start time.Duration, tl *simnet.Timeline) (query.Result, time.Duration, execStats, error) {
	var lf traverse.LabelFilter
	if q.CountLabel != "" {
		lf.On = true
		lf.Label, lf.Known = s.g.LabelID(q.CountLabel)
	}
	f := s.fetcher(p, start, tl)
	res, err := p.kernel.Run(f, q, lf)
	return res, f.now - start, f.st, err
}
