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

// proc is one query processor's runtime state.
type proc struct {
	id     int
	cache  *cache.Processor // nil under PolicyNoCache
	sc     cache.Scratch    // the cache step's buffers and edge arena
	kernel traverse.Scratch // the traversal's visited sets and frontiers
	fx     fetcher
	// near is the processor's affinity storage slot (System.nearStorageSlot
	// at provisioning time; -1 when none) — the slot whose fetches escape
	// the StorageAffinity penalty.
	near int
	// heat, when non-nil, accumulates per-record storage-read counts for
	// the owning session's placement planner. Cache hits never reach it.
	heat *placement.Heat
}

// execStats accounts one query's data movement, following Eq 8/9: hits is
// |N^c_h(q)| (records found in this processor's cache) and misses the
// records pulled from the storage tier.
type execStats struct {
	hits, misses int64
}

func (a *execStats) add(b execStats) {
	a.hits += b.hits
	a.misses += b.misses
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

// fetcher is a processor's traverse.Fetcher for one execution: every batch
// goes through the processor cache's Step, with the fetcher as its storage
// backend, and the virtual clock and the data-movement stats accumulate
// here. It lives in the proc so an execution allocates nothing.
type fetcher struct {
	s   *System
	p   *proc
	tl  *simnet.Timeline
	now time.Duration
	st  execStats
}

// fetcher arms processor p's fetcher for an execution — one point query or
// one subtask — starting at virtual time start, freeing the edge arena the
// previous execution's records were decoded into.
func (ses *Session) fetcher(p int, start time.Duration) *fetcher {
	pr := ses.procs[p]
	pr.sc.Reset()
	pr.fx = fetcher{s: ses.sys, p: pr, tl: ses.tl, now: start}
	return &pr.fx
}

// Fetch runs one cache step and bills it whether or not it succeeds: a
// failed fetch still burned the round trips that discovered the failure.
// The returned slice is p's scratch buffer, valid until the next Fetch; the
// records' edges stay valid until the execution ends.
func (f *fetcher) Fetch(ids []graph.NodeID, dir graph.Direction) ([]gstore.FetchResult, error) {
	recs, n, err := f.p.cache.Step(&f.p.sc, f, ids, dir)
	if n.Misses == 0 {
		f.now += f.probeCost(n) // Read bills it otherwise, before departing
	}
	f.now += time.Duration(n.Inserts) * f.s.cfg.Network.CacheInsert
	f.st.hits += int64(n.Hits)
	f.st.misses += int64(n.Misses)
	return recs, err
}

// probeCost is what the cache lookups of a step cost; nothing without a
// cache.
func (f *fetcher) probeCost(n cache.Counts) time.Duration {
	if f.p.cache == nil {
		return 0
	}
	prof := f.s.cfg.Network
	return time.Duration(n.Hits)*prof.CacheHit + time.Duration(n.Misses)*prof.CacheLookupMiss
}

// Read is the step's storage backend: after the probe, one batched raw
// multi-read per owning storage server, charged on the contention timeline
// with halves of the RTT on each side and the bytes it shipped — out-prefixes
// under graph.Out.
func (f *fetcher) Read(ids []graph.NodeID, dir graph.Direction, dst [][]byte, probed cache.Counts) error {
	s, p, prof := f.s, f.p, f.s.cfg.Network
	f.now += f.probeCost(probed)
	var err error
	if s.cfg.NoBatching {
		// Ablation: one full round trip per key, strictly sequential.
		for j := range ids {
			err = s.tier.ReadBatchInto(ids[j:j+1], dir, dst[j:j+1], func(b kvstore.Batch, bytes int64) {
				if bytes < 0 {
					// A failed batch costs the round trip that found no
					// live replica; no data moved.
					f.now += prof.RTT
					return
				}
				work := time.Duration(len(b.Keys))*prof.PerKeyService + prof.TransferCost(bytes)
				rtt := prof.RTT
				if ff := s.farFactor(p, b.Server); ff > 1 {
					rtt = time.Duration(float64(rtt) * ff)
				}
				f.now = f.tl.Serve(b.Server, f.now+rtt/2, work) + rtt/2
			})
			if err != nil {
				break
			}
		}
	} else {
		depart := f.now + prof.RTT/2
		arrival := depart
		err = s.tier.ReadBatchInto(ids, dir, dst, func(b kvstore.Batch, bytes int64) {
			if bytes < 0 {
				// A failed batch costs the round trip that found no live
				// replica.
				if a := depart + prof.RTT; a > arrival {
					arrival = a
				}
				return
			}
			work := time.Duration(len(b.Keys))*prof.PerKeyService + prof.TransferCost(bytes)
			ret := prof.RTT / 2
			if ff := s.farFactor(p, b.Server); ff > 1 {
				// A far batch occupies the shard no longer than a near one —
				// the penalty is the longer network path, so it lands on the
				// round trip: the return leg stretches by ff (depart is shared
				// across the round's batches, so the whole penalty is here).
				// Latency is a max() term — one far batch drags the entire
				// round — which is why the planner moves whole neighbourhoods,
				// not single records.
				ret = time.Duration(float64(ret) * ff)
			}
			finish := f.tl.Serve(b.Server, depart, work)
			if a := finish + ret; a > arrival {
				arrival = a
			}
		})
		f.now = arrival
	}
	if err == nil {
		return nil
	}
	return storageErr("storage fetch", err)
}

// storageErr classifies a failed read of the storage tier: a key no live
// replica holds is the typed query.ErrUnavailable, anything else an internal
// error; what names the read.
func storageErr(what string, err error) error {
	if errors.Is(err, kvstore.ErrNoLiveReplica) {
		return fmt.Errorf("%w: %s: %v", query.ErrUnavailable, what, err)
	}
	return fmt.Errorf("core: %s: %w", what, err)
}

// Heat attributes one storage read of each record the step read to p,
// feeding the owning session's placement planner. A no-op without adaptive
// placement, which leaves the processors no heat sink.
func (f *fetcher) Heat(ids []graph.NodeID) {
	if h := f.p.heat; h != nil {
		for _, id := range ids {
			h.Record(uint64(id), f.p.id, 1)
		}
	}
}

// Expanded bills n units of traversal compute.
func (f *fetcher) Expanded(n int) {
	f.now += time.Duration(n) * f.s.cfg.Network.ComputePerNode
}
