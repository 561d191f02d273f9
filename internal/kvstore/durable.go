package kvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/topology"
)

// Durability configures WAL persistence for a store's shards. Each shard
// gets its own log under Dir (shard-<slot>.wal) so shards recover
// independently, exactly like separate storage processes would.
type Durability struct {
	// Dir holds the per-shard logs (created if absent).
	Dir string
	// Fsync forces an fsync per append: durable against machine crashes,
	// not just process death, at a large throughput cost.
	Fsync bool
}

// openLogLocked recovers slot's durable state under cfg.Dir into its shard
// and returns the highest version replayed. Caller holds s.mu (write).
func (s *Store) openLogLocked(cfg Durability, slot int) (uint64, error) {
	return s.servers[slot].open(filepath.Join(cfg.Dir, fmt.Sprintf("shard-%d.wal", slot)), cfg.Fsync)
}

// raiseVersion lifts the store's version counter to at least ver: new
// writes must version above everything replayed, or they would lose the
// version compare against recovered entries.
func (s *Store) raiseVersion(ver uint64) {
	for {
		cur := s.version.Load()
		if cur >= ver || s.version.CompareAndSwap(cur, ver) {
			return
		}
	}
}

// EnableDurability attaches a WAL to every shard,
// recovering any durable state already under cfg.Dir. Call it before bulk
// loading on a fresh store, or on a fresh store pointed at a previous
// run's directory to restart the whole tier warm. Replayed writes keep
// their original versions and the store's version counter resumes above
// them, so recovery composes with the versioned repair machinery.
func (s *Store) EnableDurability(cfg Durability) error {
	if cfg.Dir == "" {
		return errors.New("kvstore: durability needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("kvstore: durability dir: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur != nil {
		return errors.New("kvstore: durability already enabled")
	}
	var maxVer uint64
	for slot := range s.servers {
		if s.view.Status(slot) == topology.Left {
			continue
		}
		ver, err := s.openLogLocked(cfg, slot)
		if err != nil {
			for _, prev := range s.servers[:slot] {
				if prev.log != nil {
					prev.log.wal.Close()
					prev.log = nil
				}
			}
			return err
		}
		maxVer = max(maxVer, ver)
	}
	s.dur = &cfg
	s.raiseVersion(maxVer)
	s.repairLocked()
	return nil
}

// CrashServer kills a shard with process-death semantics: its in-memory
// data vanishes, its WAL file descriptor is abandoned without a sync
// (whatever Append already handed the OS survives — nothing else), and
// the tier repairs around it. The shard can come back with RestartServer.
// Refused for the last active shard, like FailServer.
func (s *Store) CrashServer(slot int) (topology.View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, err := s.topo.Fail(slot)
	if err != nil {
		return topology.View{}, err
	}
	s.installViewLocked(v)
	sv := s.servers[slot]
	sv.Abandon()
	sv.mu.Lock()
	sv.reset()
	sv.mu.Unlock()
	s.repairLocked()
	return s.viewCopyLocked(), nil
}

// RestartServer brings a Down shard back the way a restarted process
// would: replay its WAL locally (warm start, when durability
// is on), rejoin the tier, and let repair top up only the writes newer
// than its durable version. Without durability the shard rejoins empty
// and repair re-copies everything — the contrast the WAL exists to avoid.
func (s *Store) RestartServer(slot int) (topology.View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot < 0 || slot >= len(s.servers) {
		return topology.View{}, fmt.Errorf("kvstore: slot %d out of range [0,%d)", slot, len(s.servers))
	}
	if st := s.view.Status(slot); st != topology.Down {
		return topology.View{}, fmt.Errorf("kvstore: slot %d is %s, not down", slot, st)
	}
	if s.dur != nil {
		s.servers[slot].reset()
		ver, err := s.openLogLocked(*s.dur, slot)
		if err != nil {
			return topology.View{}, err
		}
		// Replayed versions are already below the store counter unless the
		// whole store restarted too; keep the invariant either way.
		s.raiseVersion(ver)
	}
	v, err := s.topo.Revive(slot)
	if err != nil {
		return topology.View{}, err
	}
	s.installViewLocked(v)
	s.repairLocked()
	return s.viewCopyLocked(), nil
}

// PartitionServer cuts slot off from the tier: a netsplit, not a crash.
// The shard keeps its data and its placement, but reads route around it,
// writes skip it, and repair neither sources from nor copies to it until
// HealServer reconnects it.
func (s *Store) PartitionServer(slot int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot < 0 || slot >= len(s.parted) {
		return fmt.Errorf("kvstore: slot %d out of range [0,%d)", slot, len(s.parted))
	}
	s.parted[slot] = true
	return nil
}

// HealServer reconnects a partitioned slot and runs a repair pass so it
// catches up on the writes it missed (and the tier garbage-collects any
// stand-in copies).
func (s *Store) HealServer(slot int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot < 0 || slot >= len(s.parted) {
		return fmt.Errorf("kvstore: slot %d out of range [0,%d)", slot, len(s.parted))
	}
	s.parted[slot] = false
	s.repairLocked()
	return nil
}
