package kvstore

import "repro/internal/topology"

// ServerFor returns the shard index a read of key is directed to: its
// highest-scored reachable replica.
func (s *Store) ServerFor(key uint64) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.readSlotLocked(key)
}

// TotalBytes returns the bytes stored across all shards (each replica
// counts — this is resident memory, not logical data size).
func (s *Store) TotalBytes() int64 {
	var total int64
	for i, n := 0, s.NumServers(); i < n; i++ {
		total += s.Stats(i).Bytes
	}
	return total
}

// TotalKeys returns the number of live entries across all shards (each
// replica counts).
func (s *Store) TotalKeys() int {
	total := 0
	for i, n := 0, s.NumServers(); i < n; i++ {
		total += s.Stats(i).Keys
	}
	return total
}

// OverrideFor returns key's pinned slot set (nil when unpinned). The
// returned slice is a copy.
func (s *Store) OverrideFor(key uint64) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pin, ok := s.overrides[key]
	if !ok {
		return nil
	}
	return append([]int(nil), pin...)
}

// UnderReplicated returns how many keys currently have fewer live copies
// than their target (min(R, active shards)) — the re-replication backlog.
// It is zero after every membership mutator returns unless some keys'
// every copy is trapped on down shards.
func (s *Store) UnderReplicated() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	target := min(s.replicas, s.view.NumActive())
	copies := make(map[uint64]int)
	// Writers mutate the shard maps under s.mu's *read* side plus the
	// per-shard lock, so this scan must take each sv.mu too.
	for _, m := range s.view.Members {
		if m.Status != topology.Active {
			continue
		}
		sv := s.servers[m.Slot]
		sv.mu.RLock()
		sv.each(func(k uint64, e entry) {
			if !e.dead {
				copies[k]++
			}
		})
		sv.mu.RUnlock()
	}
	// Keys visible only on down shards count as under-replicated too.
	for _, m := range s.view.Members {
		if m.Status != topology.Down {
			continue
		}
		sv := s.servers[m.Slot]
		sv.mu.RLock()
		sv.each(func(k uint64, e entry) {
			if !e.dead {
				if _, ok := copies[k]; !ok {
					copies[k] = 0
				}
			}
		})
		sv.mu.RUnlock()
	}
	under := 0
	for _, c := range copies {
		if c < target {
			under++
		}
	}
	return under
}

// Parted reports whether slot is currently cut off by a partition.
func (s *Store) Parted(slot int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.partedLocked(slot)
}

// Delete removes key and reports whether it was present. Deletions write
// tombstones so a stale replica cannot resurrect the key during repair.
func (s *Store) Delete(key uint64) bool {
	ver := s.version.Add(1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	present := false
	s.writeLocked(key, func(sh *Shard) {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		sh.stats.Deletes++
		if old, ok := sh.lookup(key); ok && !old.dead {
			present = true
		}
		sh.put(key, entry{ver: ver, dead: true}, 0)
	})
	return present
}
