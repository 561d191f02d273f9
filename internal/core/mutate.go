package core

import (
	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/placement"
	"repro/internal/query"
	"repro/internal/topology"
)

// Mutate applies muts in order against the running system: the storage
// tier (versioned, WAL-logged when durability is on), the routing-side
// incremental indexes, and every session processor's cache (a resident copy
// updated in place with the write's edits, so the session reads its own
// writes). It stops at the first mutation that fails
// and returns how many were applied — the applied prefix stays applied,
// exactly as individually acked writes would. The graph given to NewSystem
// keeps its adjacency; only its label table grows, as labels intern into the
// table the stored records were encoded with.
//
// Each mutation runs gstore.Mutate, the algorithm the TCP router runs: it
// reads the pre-images of the records it touches from the tier (unbilled),
// edits them with gstore.Apply and writes back the ones that changed.
// Conflicts (removing an absent edge, adding an edge on a missing endpoint)
// return query.ErrConflict; malformed mutations and a label the full label
// table cannot take return query.ErrBadQuery; a pre-image no live replica
// holds returns query.ErrUnavailable and writes nothing. Virtual time
// advances by the write cost: one replicated round trip per rewritten
// record, served on the storage contention timeline.
func (ses *Session) Mutate(muts ...query.Mutation) (int, error) {
	ses.applyTopology()
	for i := range muts {
		m := &muts[i]
		ws, err := gstore.Mutate(sessionEnv{ses}, m)
		if err != nil {
			return i, err
		}
		// The routing-side indexes take a created node in, and refresh
		// around an edge that changed a record.
		switch {
		case m.Op == query.MutUpsertNode && ws[0].Pre == nil:
			ses.sys.incorporateNode(m.Node)
		case m.Op != query.MutUpsertNode && len(ws) > 0:
			ses.sys.refreshEdge(m.Node, m.To)
		}
		ses.mutations++
	}
	return len(muts), nil
}

// Mutations returns how many mutations the session has applied.
func (ses *Session) Mutations() int64 { return ses.mutations }

// chargeWrite advances the session clock by one write-all round trip for
// key: every replica in the current placement serves the write on the
// contention timeline, and the ack arrives when the slowest one finishes —
// the same accounting shape a cache step's storage read uses.
func (ses *Session) chargeWrite(key uint64, bytes int) {
	prof := ses.sys.cfg.Network
	var arr [topology.MaxReplicas]int
	depart := ses.now + prof.RTT/2
	arrival := depart + prof.RTT/2
	work := prof.PerKeyService + prof.TransferCost(int64(bytes))
	for _, slot := range ses.sys.store.ReplicasFor(key, arr[:0]) {
		finish := ses.tl.Serve(slot, depart, work)
		if a := finish + prof.RTT/2; a > arrival {
			arrival = a
		}
	}
	ses.now = arrival
}

// sessionEnv adapts the session's deployment to the placement planner's
// Env — placement truth comes from the store, locality from the same
// nearStorageSlot mapping the cost model bills with — and to gstore.Mutate's.
type sessionEnv struct{ ses *Session }

// Labels is the graph's label table, the one the records were loaded with.
func (e sessionEnv) Labels() (*graph.Labels, error) { return e.ses.sys.g.Labels(), nil }

// Read is the mutation's pre-image read, unbilled.
func (e sessionEnv) Read(ids []graph.NodeID, dst [][]byte) error {
	if err := e.ses.sys.tier.ReadBatchInto(ids, graph.Both, dst, nil); err != nil {
		return storageErr("pre-image read", err)
	}
	return nil
}

// Commit stores each record, charges the replicated write's virtual-time
// cost and updates every session processor's cached copy with the edits the
// TCP router ships (read-your-writes). With nothing to write it does
// nothing: the write that made the mutation a no-op updated the caches in
// the call that stored it, so none holds a record older than storage.
func (e sessionEnv) Commit(ws []gstore.Write, _ []graph.NodeID) error {
	ses := e.ses
	for _, w := range ws {
		ses.sys.store.Put(uint64(w.Node), w.Val)
		ses.chargeWrite(uint64(w.Node), len(w.Val))
		for _, p := range ses.procs {
			if p != nil {
				p.cache.Apply(uint64(w.Node), w.Edits)
			}
		}
	}
	return nil
}

func (e sessionEnv) Replicas(key uint64, dst []int) []int {
	return e.ses.sys.store.ReplicasFor(key, dst)
}

func (e sessionEnv) SizeOf(key uint64) int { return e.ses.sys.store.SizeOf(key) }

func (e sessionEnv) NearSlot(proc int) int {
	if proc >= 0 && proc < len(e.ses.procs) && e.ses.procs[proc] != nil {
		return e.ses.procs[proc].near
	}
	return e.ses.sys.nearStorageSlot(proc)
}

func (e sessionEnv) ReplicaTarget() int { return e.ses.sys.store.Replicas() }

// PlacementTick runs one adaptive-placement planning cycle: the planner
// proposes bounded migrations from the heat accumulated since the last
// tick, each is executed as a versioned copy-then-tombstone move, the
// migration traffic is charged to the storage contention timeline (it
// occupies shards, it does not stall the query stream), and the heat
// decays. Returns how many records moved; 0 (and no work) when the
// subsystem is off. Sessions with Config.PlacementEvery > 0 tick
// automatically; explicit calls compose with that.
func (ses *Session) PlacementTick() int {
	if ses.planner == nil {
		return 0
	}
	ses.applyTopology()
	moved := 0
	for _, m := range ses.planner.Plan(ses.heat, sessionEnv{ses}) {
		bytes, err := ses.sys.store.Move(m.Key, m.To)
		ok := err == nil
		ses.planner.Executed(m, ok)
		if !ok {
			continue
		}
		moved++
		ses.chargeMigration(m, bytes)
	}
	ses.heat.Decay()
	return moved
}

// chargeMigration books a move's copy traffic on the storage timeline:
// the source shard serves the read, each new destination absorbs the
// write. The session clock does not advance — migration is background
// work that contends with queries for shard service, which is exactly the
// budget's reason to exist.
func (ses *Session) chargeMigration(m placement.Move, bytes int64) {
	prof := ses.sys.cfg.Network
	work := prof.PerKeyService + prof.TransferCost(bytes)
	depart := ses.now + prof.RTT/2
	if m.From >= 0 {
		ses.tl.Serve(m.From, depart, work)
	}
	for _, slot := range m.To {
		if slot != m.From {
			ses.tl.Serve(slot, depart, work)
		}
	}
}
