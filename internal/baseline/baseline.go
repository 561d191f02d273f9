// Package baseline implements the two coupled distributed graph systems
// the paper compares against (Section 4.1-4.2):
//
//   - BSP: a SEDGE/Giraph-style vertex-centric bulk-synchronous engine on
//     an edge-cut partitioning (SEDGE's ParMETIS pipeline is approximated
//     by LDG + refinement). Each machine owns one fixed partition; the
//     routing table is fixed; every superstep pays a global barrier and
//     cross-partition message traffic over Ethernet.
//   - GAS: a PowerGraph-style asynchronous gather-apply-scatter engine on
//     a greedy vertex-cut. Activation rounds are cheaper than barriers and
//     replica synchronisation replaces per-edge messages, which is why it
//     outperforms BSP on power-law graphs — but it still couples storage
//     with compute and caches nothing across queries.
//
// Both engines answer queries exactly (traversals run over the real
// graph); their virtual-time cost models produce the throughput/latency
// numbers Figure 7 compares.
package baseline

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/query"
	"repro/internal/simnet"
	"repro/internal/xrand"
)

// Report summarises a baseline workload run with the same headline metrics
// as the decoupled engine's report.
type Report struct {
	System        string
	Machines      int
	Queries       int
	Makespan      time.Duration
	ThroughputQPS float64
	MeanResponse  time.Duration
	P95Response   time.Duration
	// Supersteps / Messages aggregate the BSP (or GAS round) activity.
	Supersteps int64
	Messages   int64
	// PartitionQuality carries the cut fraction (BSP) or replication
	// factor (GAS).
	PartitionQuality float64
	Results          []query.Result
}

// WaveSize is how many concurrent queries share one superstep wave. Both
// SEDGE and PowerGraph run many traversals inside a single vertex-centric
// job, so each global barrier (or activation round) is amortised over the
// queries in flight.
const WaveSize = 8

// runLoop drives a workload through a per-wave cost function: queries are
// grouped into waves of WaveSize, each wave's levels execute as shared
// supersteps, and every query in a wave completes when the wave does.
func runLoop(g *graph.Graph, qs []query.Query, name string, machines int,
	waveCost func(wave []query.Query) (time.Duration, int64, int64)) (*Report, error) {
	rep := &Report{System: name, Machines: machines, Queries: len(qs), Results: make([]query.Result, len(qs))}
	var lat metrics.Durations
	var clock time.Duration
	for start := 0; start < len(qs); start += WaveSize {
		end := start + WaveSize
		if end > len(qs) {
			end = len(qs)
		}
		wave := qs[start:end]
		for _, q := range wave {
			if q.ID < 0 || q.ID >= len(qs) {
				return nil, fmt.Errorf("baseline: query ID %d out of range", q.ID)
			}
		}
		d, steps, msgs := waveCost(wave)
		clock += d
		rep.Supersteps += steps
		rep.Messages += msgs
		for _, q := range wave {
			lat.Add(d) // a query's answer is ready when its wave completes
			rep.Results[q.ID] = query.Answer(g, q)
		}
	}
	rep.Makespan = clock
	if clock > 0 {
		rep.ThroughputQPS = float64(len(qs)) / clock.Seconds()
	}
	rep.MeanResponse = lat.Mean()
	rep.P95Response = lat.Percentile(0.95)
	return rep, nil
}

// waveLevels collects each query's per-level frontiers (with direction)
// and returns them aligned: levels[l] holds the frontier of every query
// still active at level l.
type levelFrontier struct {
	frontier []graph.NodeID
	dir      graph.Direction
}

func waveLevels(g *graph.Graph, wave []query.Query) [][]levelFrontier {
	var levels [][]levelFrontier
	for _, q := range wave {
		l := 0
		frontierLevels(g, q, func(frontier []graph.NodeID, dir graph.Direction) {
			for len(levels) <= l {
				levels = append(levels, nil)
			}
			fr := make([]graph.NodeID, len(frontier))
			copy(fr, frontier)
			levels[l] = append(levels[l], levelFrontier{frontier: fr, dir: dir})
			l++
		})
	}
	return levels
}

// frontierLevels walks the BFS levels a traversal query generates and
// hands each level's frontier to visit. It mirrors the engines' traversal
// shapes: NeighborAgg expands dir-edges for Hops levels; Reachability runs
// the bidirectional search (forward out, backward in); RandomWalk yields
// Hops single-node levels.
func frontierLevels(g *graph.Graph, q query.Query, visit func(frontier []graph.NodeID, dir graph.Direction)) {
	switch q.Type {
	case query.NeighborAgg:
		visited := map[graph.NodeID]struct{}{q.Node: {}}
		frontier := []graph.NodeID{q.Node}
		for level := 0; level < q.Hops && len(frontier) > 0; level++ {
			visit(frontier, q.Dir)
			var next []graph.NodeID
			for _, u := range frontier {
				expand(g, u, q.Dir, func(v graph.NodeID) {
					if _, ok := visited[v]; !ok {
						visited[v] = struct{}{}
						next = append(next, v)
					}
				})
			}
			frontier = next
		}
	case query.RandomWalk:
		rng := xrand.New(q.Seed)
		cur := q.Node
		for step := 0; step < q.Hops; step++ {
			if q.RestartProb > 0 && rng.Float64() < q.RestartProb {
				cur = q.Node
				continue
			}
			visit([]graph.NodeID{cur}, q.Dir)
			next, ok := query.WalkStep(graph.SortedEdges(g.OutEdges(cur)), graph.SortedEdges(g.InEdges(cur)), q.Dir, rng)
			if !ok {
				cur = q.Node
				continue
			}
			cur = next
		}
	case query.Reachability:
		if q.Node == q.Target || q.Hops <= 0 {
			return
		}
		fVis := map[graph.NodeID]struct{}{q.Node: {}}
		bVis := map[graph.NodeID]struct{}{q.Target: {}}
		fFront := []graph.NodeID{q.Node}
		bFront := []graph.NodeID{q.Target}
		met := false
		for levels := 0; levels < q.Hops && !met && len(fFront) > 0 && len(bFront) > 0; levels++ {
			forward := len(fFront) <= len(bFront)
			front, dir := fFront, graph.Out
			mine, other := fVis, bVis
			if !forward {
				front, dir = bFront, graph.In
				mine, other = bVis, fVis
			}
			visit(front, dir)
			var next []graph.NodeID
			for _, u := range front {
				expand(g, u, dir, func(v graph.NodeID) {
					if _, hit := other[v]; hit {
						met = true
					}
					if _, ok := mine[v]; !ok {
						mine[v] = struct{}{}
						next = append(next, v)
					}
				})
			}
			if forward {
				fFront = next
			} else {
				bFront = next
			}
		}
	}
}

func expand(g *graph.Graph, u graph.NodeID, dir graph.Direction, fn func(graph.NodeID)) {
	if dir == graph.Out || dir == graph.Both {
		for _, e := range g.OutEdges(u) {
			fn(e.To)
		}
	}
	if dir == graph.In || dir == graph.Both {
		for _, e := range g.InEdges(u) {
			fn(e.To)
		}
	}
}

// BSP is the SEDGE/Giraph-style engine.
type BSP struct {
	g       *graph.Graph
	part    *partition.EdgeCut
	prof    simnet.Profile
	name    string
	persist []time.Duration // scratch: per-machine superstep work
}

// NewBSP builds the coupled BSP system on machines partitions. The
// partitioning pipeline (LDG + refinement) stands in for SEDGE's ParMETIS
// runs and is itself timed by the experiments (the paper reports ~1 hour
// for re-partitioning WebGraph).
func NewBSP(g *graph.Graph, machines int, prof simnet.Profile) (*BSP, error) {
	if machines < 1 {
		return nil, fmt.Errorf("baseline: need >= 1 machine, got %d", machines)
	}
	p := partition.LDG(g, machines, 0.1)
	partition.Refine(g, p, 2, 0.1)
	return &BSP{g: g, part: p, prof: prof, name: "sedge-bsp", persist: make([]time.Duration, machines)}, nil
}

// waveCost prices one wave of concurrent queries: per shared superstep,
// every machine processes its share of all queries' frontiers,
// cross-partition neighbour notifications pay the per-message Ethernet
// cost, and the superstep ends with a global barrier at the pace of the
// slowest machine.
func (b *BSP) waveCost(wave []query.Query) (time.Duration, int64, int64) {
	var total time.Duration
	var steps, msgs int64
	for _, level := range waveLevels(b.g, wave) {
		for i := range b.persist {
			b.persist[i] = 0
		}
		var levelMsgs int64
		for _, lf := range level {
			for _, u := range lf.frontier {
				m := b.part.Of[u]
				work := b.prof.ComputePerNode
				expand(b.g, u, lf.dir, func(v graph.NodeID) {
					work += b.prof.ComputePerNode / 4 // per-edge scan
					if int(v) < len(b.part.Of) && b.part.Of[v] != m {
						work += b.prof.MsgCost
						levelMsgs++
					}
				})
				b.persist[m] += work
			}
		}
		slowest := time.Duration(0)
		for _, w := range b.persist {
			if w > slowest {
				slowest = w
			}
		}
		total += slowest + b.prof.BarrierOverhead
		steps++
		msgs += levelMsgs
	}
	if total == 0 {
		// Degenerate waves (self-reachability only) still pay a superstep.
		total = b.prof.BarrierOverhead
		steps = 1
	}
	return total, steps, msgs
}

// RunWorkload executes the workload and prices it with the BSP model.
func (b *BSP) RunWorkload(qs []query.Query) (*Report, error) {
	rep, err := runLoop(b.g, qs, b.name, b.part.K, b.waveCost)
	if err != nil {
		return nil, err
	}
	rep.PartitionQuality = b.part.CutFraction(b.g)
	return rep, nil
}

// GAS is the PowerGraph-style engine.
type GAS struct {
	g    *graph.Graph
	vc   *partition.VertexCut
	prof simnet.Profile
}

// NewGAS builds the coupled GAS system on machines partitions using the
// greedy vertex-cut.
func NewGAS(g *graph.Graph, machines int, prof simnet.Profile) (*GAS, error) {
	vc, err := partition.GreedyVertexCut(g, machines)
	if err != nil {
		return nil, err
	}
	return &GAS{g: g, vc: vc, prof: prof}, nil
}

// VertexCut exposes the underlying vertex-cut.
func (p *GAS) VertexCut() *partition.VertexCut { return p.vc }

// waveCost prices one wave under gather-apply-scatter: per activation
// round, active vertices sync their replicas (replicas-1 messages each)
// instead of messaging every cross-partition edge, and rounds pay the
// lighter async scheduling overhead instead of a full barrier. Round work
// spreads over the machines hosting the replicas.
func (p *GAS) waveCost(wave []query.Query) (time.Duration, int64, int64) {
	var total time.Duration
	var steps, msgs int64
	for _, level := range waveLevels(p.g, wave) {
		var work time.Duration
		var levelMsgs int64
		for _, lf := range level {
			for _, u := range lf.frontier {
				work += p.prof.ComputePerNode
				reps := p.vc.Replicas(u)
				if reps > 1 {
					work += time.Duration(reps-1) * p.prof.MsgCost
					levelMsgs += int64(reps - 1)
				}
				// Edge scans are spread over the replicas (that is the
				// point of the vertex cut): charge the per-edge work
				// divided by the replica count.
				deg := edgeCount(p.g, u, lf.dir)
				if reps < 1 {
					reps = 1
				}
				work += time.Duration(deg/reps) * (p.prof.ComputePerNode / 4)
			}
		}
		// Round work parallelises across machines under the balanced
		// vertex cut; charge the slowest machine's share as an even
		// spread with a 2.0 skew factor (replica sync serialises part of it).
		total += time.Duration(float64(work)/float64(p.vc.K)*2.0) + p.prof.RoundOverhead
		steps++
		msgs += levelMsgs
	}
	if total == 0 {
		total = p.prof.RoundOverhead
		steps = 1
	}
	return total, steps, msgs
}

func edgeCount(g *graph.Graph, u graph.NodeID, dir graph.Direction) int {
	n := 0
	if dir == graph.Out || dir == graph.Both {
		n += g.OutDegree(u)
	}
	if dir == graph.In || dir == graph.Both {
		n += g.InDegree(u)
	}
	return n
}

// RunWorkload executes the workload and prices it with the GAS model.
func (p *GAS) RunWorkload(qs []query.Query) (*Report, error) {
	rep, err := runLoop(p.g, qs, "powergraph-gas", p.vc.K, p.waveCost)
	if err != nil {
		return nil, err
	}
	rep.PartitionQuality = p.vc.ReplicationFactor()
	return rep, nil
}
