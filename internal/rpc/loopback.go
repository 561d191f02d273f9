package rpc

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
)

// ErrUnsupported is wrapped by Loopback's refusal of a core.Config field the
// sockets cannot honour. The list in refuse is the written form of how a
// loopback deployment differs from the virtual-time system NewSystem builds
// from the same Config.
var ErrUnsupported = errors.New("rpc: a loopback deployment cannot honour")

// refuse names every field of cfg that a deployment of real daemons cannot
// honour, wrapped around ErrUnsupported; nil when there is none.
// DisableStealing is not among them: the TCP router never steals, whatever
// its value (ROADMAP item 13). PreprocessFraction is honoured: the router's
// tables come from the same router.Prepare call. The Placement* fields are
// not listed: core.Config reads them only under AdaptivePlacement.
func refuse(cfg core.Config) error {
	var fields []string
	for _, f := range []struct {
		set  bool
		name string
	}{
		{cfg.Network.Name != "", "Network (the sockets are the network, not a cost profile)"},
		{cfg.NoBatching, "NoBatching (a processor reads each level in one MultiGet)"},
		{cfg.StorageAffinity > 1, "StorageAffinity (a virtual-time cost, not a placement)"},
		{cfg.Placer != nil, "Placer (every StorageClient places by kvstore.Place's default)"},
		{cfg.AdaptivePlacement, "AdaptivePlacement (records move in virtual time only)"},
		{len(cfg.FailedProcessors) > 0, "FailedProcessors (every processor starts active)"},
	} {
		if f.set {
			fields = append(fields, f.name)
		}
	}
	if len(fields) == 0 {
		return nil
	}
	return fmt.Errorf("%w %s", ErrUnsupported, strings.Join(fields, ", "))
}

// Deployment is one core.Config run as real daemons on loopback sockets in
// this process: storage shards loaded with the graph, processors reading
// them, and a router in front. It keeps no reference to the graph once
// Loopback returns.
type Deployment struct {
	cfg          core.Config      // resolved: every default filled in
	storage      []*StorageServer // slot-indexed; nil while a shard is killed
	storageAddrs []string
	procs        []*ProcessorServer
	router       *RouterServer
}

// Loopback starts the deployment cfg describes over g, the networked
// counterpart of core.NewSystem(g, cfg):
//   - StorageServers shards, each durable under StorageDir/<slot> when
//     StorageDir is set, loaded with g at StorageReplicas;
//   - Processors processors with CacheBytes of cache each (a cache that
//     stores nothing under PolicyNoCache), reading at StorageReplicas;
//   - a router whose tables follow cfg's Landmarks, MinSeparation,
//     Dimensions, Seed, PreprocessFraction and EmbedProvider, which routes
//     at cfg's LoadFactor and Alpha, writes through the shards and holds
//     g's label table.
//
// A field the sockets cannot honour is refused with an error wrapping
// ErrUnsupported. Close stops every daemon.
func Loopback(ctx context.Context, g *graph.Graph, cfg core.Config) (*Deployment, error) {
	if err := refuse(cfg); err != nil {
		return nil, err
	}
	cfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	d := &Deployment{cfg: cfg}
	if err := d.start(ctx, g); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// start brings the shards up and loads them, then the processors, then a
// router over both whose strategy is built from d.cfg itself, so that its
// tables, LoadFactor and Alpha are the Config's.
func (d *Deployment) start(ctx context.Context, g *graph.Graph) error {
	for slot := range d.cfg.StorageServers {
		ss, err := d.serveShard(slot, "127.0.0.1:0")
		if err != nil {
			return err
		}
		d.storage = append(d.storage, ss)
		d.storageAddrs = append(d.storageAddrs, ss.Addr())
	}
	loader, err := DialStorageReplicated(d.storageAddrs, d.cfg.StorageReplicas)
	if err != nil {
		return err
	}
	err = loader.LoadGraph(ctx, g)
	loader.Close()
	if err != nil {
		return err
	}
	rc := RouterConfig{
		Policy:          d.cfg.Policy,
		Graph:           g,
		Storage:         d.storageAddrs,
		StorageReplicas: d.cfg.StorageReplicas,
	}
	for range d.cfg.Processors {
		ps, err := d.serveProcessor()
		if err != nil {
			return err
		}
		rc.Processors = append(rc.Processors, ps.Addr())
	}
	strat, coords, err := configStrategy(g, d.cfg)
	if err != nil {
		return err
	}
	d.router, err = newRouterServer("127.0.0.1:0", rc, strat, coords)
	return err
}

// serveShard starts storage slot's shard on addr: over its directory when
// the deployment is durable, so a restart on the same slot comes back warm.
func (d *Deployment) serveShard(slot int, addr string) (*StorageServer, error) {
	if d.cfg.StorageDir == "" {
		return NewStorageServer(addr)
	}
	return NewStorageServerDurable(addr, filepath.Join(d.cfg.StorageDir, strconv.Itoa(slot)), false)
}

// serveProcessor starts one more processor over the shards.
func (d *Deployment) serveProcessor() (*ProcessorServer, error) {
	cacheBytes := d.cfg.CacheBytes
	if d.cfg.Policy == core.PolicyNoCache {
		cacheBytes = 0
	}
	ps, err := NewProcessorServerWith("127.0.0.1:0", ProcessorConfig{
		Storage: d.storageAddrs, StorageReplicas: d.cfg.StorageReplicas, CacheBytes: cacheBytes,
	})
	if err != nil {
		return nil, err
	}
	d.procs = append(d.procs, ps)
	return ps, nil
}

// Addr is the router's address, the one a client dials.
func (d *Deployment) Addr() string { return d.router.Addr() }

// StorageAddrs lists the shards' addresses in slot order.
func (d *Deployment) StorageAddrs() []string { return slices.Clone(d.storageAddrs) }

// JoinProcessor starts one more processor, configured like the first ones,
// and registers it with the router, which admits it at a new epoch. It
// returns the processor (for Deregister) and its slot.
func (d *Deployment) JoinProcessor(ctx context.Context) (*ProcessorServer, int, error) {
	ps, err := d.serveProcessor()
	if err != nil {
		return nil, 0, err
	}
	slot, err := ps.Register(ctx, d.router.Addr(), "")
	return ps, slot, err
}

// KillStorage stops storage slot's shard the way a killed process stops:
// its listener and every live connection close at once, and a durable
// shard's files stay for RestartStorage.
func (d *Deployment) KillStorage(slot int) error {
	if d.storage[slot] == nil {
		return fmt.Errorf("rpc: storage slot %d is already down", slot)
	}
	err := d.storage[slot].Close()
	d.storage[slot] = nil
	return err
}

// RestartStorage brings a killed shard back on its address — warm from its
// files when the deployment is durable, empty otherwise — and re-registers
// it with the router, announcing the durable version it recovered.
func (d *Deployment) RestartStorage(ctx context.Context, slot int) error {
	if d.storage[slot] != nil {
		return fmt.Errorf("rpc: storage slot %d is not down", slot)
	}
	ss, err := d.serveShard(slot, d.storageAddrs[slot])
	if err != nil {
		return err
	}
	d.storage[slot] = ss
	_, err = ss.Register(ctx, d.router.Addr(), "")
	return err
}

// Close stops the router, the processors and the shards. A durable
// deployment's files stay under StorageDir.
func (d *Deployment) Close() {
	if d.router != nil {
		d.router.Close()
		d.router = nil
	}
	for _, ps := range d.procs {
		ps.Close()
	}
	d.procs = nil
	for slot, ss := range d.storage {
		if ss != nil {
			ss.Close()
			d.storage[slot] = nil
		}
	}
}
