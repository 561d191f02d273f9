package rpc

import (
	"context"
	"sync"
)

// registration is a daemon's membership with a running router, embedded by
// ProcessorServer and StorageServer: both tiers join and leave through the
// same two RPCs, differing only in the tier they name and in the durable
// version a storage shard announces.
type registration struct {
	tier    string        // Request.Tier announced ("" = the processing tier)
	listen  string        // the daemon's listen address, the default advertise
	version func() uint64 // durable version announced on join (nil = none)

	regMu      sync.Mutex // guards the fields below
	routerAddr string     // router this daemon registered with ("" = none)
	advertise  string     // address announced to the router
}

// Register announces this daemon to a running router (OpJoin): the router
// dials back to verify it, admits it into its tier's topology at a new
// epoch and — for a processor — starts routing to it immediately:
// scale-out without restarting anything. advertise is the address
// announced to the router ("" uses the listen address, right whenever
// router and daemon share a network). The returned slot is the daemon's
// stable id; Deregister uses the remembered registration for the
// clean-leave path.
func (reg *registration) Register(ctx context.Context, routerAddr, advertise string) (int, error) {
	if advertise == "" {
		advertise = reg.listen
	}
	cn, err := DialContext(ctx, routerAddr)
	if err != nil {
		return 0, err
	}
	defer cn.Close()
	req := &Request{Op: OpJoin, Addr: advertise, Tier: reg.tier}
	if reg.version != nil {
		req.Version = reg.version()
	}
	resp, err := cn.Call(ctx, req)
	if err != nil {
		return 0, err
	}
	reg.regMu.Lock()
	reg.routerAddr, reg.advertise = routerAddr, advertise
	reg.regMu.Unlock()
	return resp.Proc, nil
}

// Deregister leaves the router cleanly (OpDrain): for a processor the
// router stops sending new work and removes the member once its in-flight
// queries finish, so shutting it down afterwards is invisible to clients.
// No-op when the daemon never registered.
func (reg *registration) Deregister(ctx context.Context) error {
	reg.regMu.Lock()
	routerAddr, advertise := reg.routerAddr, reg.advertise
	reg.regMu.Unlock()
	if routerAddr == "" {
		return nil
	}
	cn, err := DialContext(ctx, routerAddr)
	if err != nil {
		return err
	}
	defer cn.Close()
	if _, err := cn.Call(ctx, &Request{Op: OpDrain, Addr: advertise, Tier: reg.tier}); err != nil {
		// Keep the registration: the drain did not land, so a retry must
		// still know who to deregister from.
		return err
	}
	reg.regMu.Lock()
	if reg.routerAddr == routerAddr {
		reg.routerAddr = ""
	}
	reg.regMu.Unlock()
	return nil
}
