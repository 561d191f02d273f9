package rpc

import (
	"context"
	"fmt"

	"repro/internal/query"
	"repro/internal/router"
	"repro/internal/topology"
)

// join admits a processor into the running deployment: the router dials
// back to the advertised address and verifies it answers before bumping
// the epoch, so a bad address never becomes a member. Joins are
// idempotent per address.
func (r *RouterServer) join(ctx context.Context, addr string) Response {
	if addr == "" {
		return errorResponse(fmt.Errorf("%w: join request carries no address", query.ErrBadQuery))
	}
	if slot := r.topo.Lookup(addr); slot >= 0 {
		return Response{OK: true, Proc: slot, Epoch: r.Epoch()}
	}
	p := NewPool(addr, 0)
	if err := p.Ping(ctx); err != nil {
		p.Close()
		return errorResponse(fmt.Errorf("join %s: %w", addr, err))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Re-check under the lock: a concurrent join of the same address wins.
	// Only an Active member counts — a Draining/Down slot at this address
	// is on its way out, and the (re)joining processor must get a fresh
	// slot rather than one about to become Left.
	for _, m := range r.rt.View().Members {
		if m.Addr == addr && m.Status == topology.Active {
			go p.Close()
			return Response{OK: true, Proc: m.Slot, Epoch: r.rt.Epoch()}
		}
	}
	slot, v := r.topo.Join(addr)
	r.applyViewLocked(v)
	r.pools[slot] = p
	return Response{OK: true, Proc: slot, Epoch: v.Epoch}
}

// logStorageLocked records a storage-tier transition in the bounded
// tier-tagged event log. Caller holds r.mu.
func (r *RouterServer) logStorageLocked(v topology.View) {
	r.storageEvents = router.AppendEpoch(r.storageEvents, topology.TierStorage, r.storageView, v, 0)
	r.storageView = v
}

// joinStorage admits a storage shard into the router's storage view after
// dialling back to verify it answers. Idempotent per address; a rejoin at
// a known address refreshes the shard's announced durable version (the
// rejoin-warm handshake — a shard that crashed and restarted over its
// local WAL re-announces how warm it came back).
func (r *RouterServer) joinStorage(ctx context.Context, addr string, version uint64) Response {
	if addr == "" {
		return errorResponse(fmt.Errorf("%w: storage join request carries no address", query.ErrBadQuery))
	}
	if slot := r.storageTopo.Lookup(addr); slot >= 0 {
		r.mu.Lock()
		r.setStorageJoinVerLocked(slot, version)
		epoch := r.storageView.Epoch
		r.mu.Unlock()
		return Response{OK: true, Proc: slot, Epoch: epoch}
	}
	p := NewPool(addr, 0)
	if err := p.Ping(ctx); err != nil {
		p.Close()
		return errorResponse(fmt.Errorf("storage join %s: %w", addr, err))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.storageView.Members {
		if m.Addr == addr && m.Status == topology.Active {
			go p.Close()
			r.setStorageJoinVerLocked(m.Slot, version)
			return Response{OK: true, Proc: m.Slot, Epoch: r.storageView.Epoch}
		}
	}
	slot, v := r.storageTopo.Join(addr)
	r.logStorageLocked(v)
	for len(r.storagePools) < v.Slots() {
		r.storagePools = append(r.storagePools, nil)
	}
	r.storagePools[slot] = p
	r.setStorageJoinVerLocked(slot, version)
	return Response{OK: true, Proc: slot, Epoch: v.Epoch}
}

// setStorageJoinVerLocked records the durable version a storage shard
// announced when joining slot. Caller holds r.mu.
func (r *RouterServer) setStorageJoinVerLocked(slot int, version uint64) {
	for len(r.storageJoinVer) <= slot {
		r.storageJoinVer = append(r.storageJoinVer, 0)
	}
	r.storageJoinVer[slot] = version
}

// drainStorage removes a storage shard from the view (membership only —
// over TCP the shard's replicas are not copied off; reads fail over to
// the keys' surviving replicas).
func (r *RouterServer) drainStorage(req *Request) Response {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot := req.Proc
	if req.Addr != "" {
		if slot = memberAt(r.storageView, req.Addr); slot < 0 {
			return errorResponse(fmt.Errorf("%w: no storage member at %s", query.ErrBadQuery, req.Addr))
		}
	}
	v, err := r.storageTopo.Leave(slot)
	if err != nil {
		return errorResponse(fmt.Errorf("%w: %v", query.ErrBadQuery, err))
	}
	r.logStorageLocked(v)
	if slot < len(r.storagePools) && r.storagePools[slot] != nil {
		go r.storagePools[slot].Close()
		r.storagePools[slot] = nil
	}
	return Response{OK: true, Proc: slot, Epoch: v.Epoch}
}

// drain begins a member's clean departure: Active→Draining immediately
// (no new work), then Draining→Left once its outstanding work settles —
// right away when it is already idle, otherwise from settle().
func (r *RouterServer) drain(req *Request) Response {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot := req.Proc
	if req.Addr != "" {
		if slot = memberAt(r.rt.View(), req.Addr); slot < 0 {
			return errorResponse(fmt.Errorf("%w: no member at %s", query.ErrBadQuery, req.Addr))
		}
	}
	v, err := r.topo.Drain(slot)
	if err != nil {
		return errorResponse(fmt.Errorf("%w: %v", query.ErrBadQuery, err))
	}
	r.applyViewLocked(v)
	if r.rt.Load(slot) == 0 {
		if v2, err := r.topo.Leave(slot); err == nil {
			r.applyViewLocked(v2)
		}
	}
	return Response{OK: true, Proc: slot, Epoch: r.rt.Epoch()}
}

// memberAt resolves the slot of v's member at addr, -1 when there is none.
// The Active member wins: an old Draining/Down slot may share the address
// while on its way out.
func memberAt(v topology.View, addr string) int {
	slot := -1
	for _, m := range v.Members {
		if m.Addr != addr || m.Status == topology.Left {
			continue
		}
		if slot < 0 || m.Status == topology.Active {
			slot = m.Slot
		}
	}
	return slot
}
