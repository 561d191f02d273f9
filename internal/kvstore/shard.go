package kvstore

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// ServerStats counts the operations served by one storage server.
type ServerStats struct {
	Gets, Puts, Deletes uint64
	Misses              uint64
	// Failovers counts reads that had to be served elsewhere (or failed)
	// because this server was unreachable when it was the preferred
	// replica — the per-replica health signal.
	Failovers uint64
	Keys      int
	Bytes     int64
	// RepairBytes counts the value bytes copied onto this shard by
	// re-replication passes — the network cost a membership transition
	// would incur on a real deployment. A warm (WAL-recovered) restart
	// shows a small delta here; a cold restart shows a full shard copy.
	RepairBytes int64
}

// Shard is one storage shard: a versioned key→value store, its counters
// and — once opened over a WAL — the durability protocol (replay,
// durable-version watermark, compaction, persisted tombstones and drops). A
// Store drives a slot-indexed set of shards in-package through the
// lock-held put/drop; an owner outside the package (rpc.StorageServer, one
// shard behind a listener) uses the exported methods, each of which takes
// the shard lock itself.
//
// The records live in a log, recs: append-only segments behind an index, an
// open-addressing table of refs to each key's newest record. Every write
// appends — a put, a tombstone, a replayed record, a repair or migration
// copy — and only marks the record it replaces dead; once the dead bytes
// reach the live ones and amount to a segment, the shard copies its live
// records into fresh segments under its write lock, and a durable shard's
// WAL follows: once the group that set the cleaning off is logged, the file
// is rewritten as the live records. Memory and file keep one compaction rule, so each holds about
// twice its live bytes plus a segment at most. The shard copies every value
// it is given.
//
// A value Get, GetInto or a Store read hands out aliases a segment. Nothing
// is ever written over bytes already in a segment, and cleaning allocates
// new segments instead of reusing old ones, so the slice keeps its bytes
// after the lock is released — a reply encoded later still carries what was
// read — and must never be written to.
type Shard struct {
	mu sync.RWMutex
	// recs holds every key's newest record, a tombstone included.
	recs segLog
	// stats holds the write-side counters and the live-key accounting,
	// guarded by mu. The read counters are atomics so no read path ever
	// takes the write lock; Stats folds them in.
	stats                   ServerStats
	gets, misses, failovers atomic.Uint64
	// log is the shard's WAL, nil while in-memory only. Its fields are
	// guarded by the same regime as the records: sh.mu, or the owning
	// store's write lock during membership transitions.
	log *shardLog
}

// shardLog is one shard's durable state: its WAL and the recovery
// bookkeeping the observability surface reports.
type shardLog struct {
	wal         *WAL
	walPath     string
	compactions uint64

	replayedRecords int64
	replayedBytes   int64
	recoverNanos    int64
	crashed         bool  // Abandon ran: killed, not yet reopened
	err             error // first append/compaction failure, surfaced in stats
}

// DurabilityStats reports one shard's durable state.
type DurabilityStats struct {
	// Enabled is false when the shard has no durability layer (every
	// other field is then zero).
	Enabled bool
	// State is "fresh" (log open, nothing replayed), "warm" (recovered at
	// least one record from its WAL) or "crashed" (killed, not yet
	// restarted); empty when disabled.
	State string
	// WALBytes and WALRecords measure the log file.
	WALBytes   int64
	WALRecords int64
	// Snapshots counts the log's compactions since the shard was opened.
	Snapshots uint64
	// DurableVersion is the highest write version this shard has made
	// durable — what the rejoin-warm handshake advertises.
	DurableVersion uint64
	// ReplayedRecords / ReplayedBytes / RecoverNanos describe the most
	// recent local recovery (open or restart).
	ReplayedRecords int64
	ReplayedBytes   int64
	RecoverNanos    int64
	// Err carries the first durability failure, if any ("" when healthy).
	Err string
}

// NewShard returns an empty in-memory shard.
func NewShard() *Shard { return &Shard{} }

// OpenShard returns a durable shard recovered from the log at walPath (a
// fresh shard when absent). Every later mutation is appended to the log
// before it returns, and the log compacts whenever the shard's records are
// cleaned; fsync forces an fsync per append.
func OpenShard(walPath string, fsync bool) (*Shard, error) {
	sh := NewShard()
	if _, err := sh.open(walPath, fsync); err != nil {
		return nil, err
	}
	return sh, nil
}

// open recovers the log at walPath into sh, attaches it and returns the
// highest version it holds. A parent-format directory — a .snap beside a log
// no compaction has rewritten — replays the snapshot first, then compacts at
// once and unlinks it; a .snap beside a compacted log is stale and only
// unlinked. A replay that cleaned the shard's records compacts the log before
// the shard serves, so a shard that keeps crashing still compacts. Caller
// holds the store-wide write lock (or owns sh exclusively).
func (sh *Shard) open(walPath string, fsync bool) (uint64, error) {
	l := &shardLog{walPath: walPath}
	start := time.Now()
	apply := func(op WALOp, key, ver uint64, val []byte) {
		sh.applyReplay(op, key, ver, val)
		l.replayedRecords++
	}
	snap := strings.TrimSuffix(walPath, ".wal") + ".snap"
	migrate := parentFormat(walPath, snap)
	var snapVer uint64
	if migrate {
		var err error
		if snapVer, l.replayedBytes, err = loadSnapshot(snap, apply); err != nil {
			return 0, err
		}
	}
	wal, err := OpenWAL(walPath, fsync, apply)
	if err != nil {
		return 0, err
	}
	wal.durVer = max(wal.durVer, snapVer) // not shared yet: no lock
	walBytes, _, _ := wal.Stats()
	l.replayedBytes += walBytes
	l.wal = wal
	sh.log = l
	if migrate || sh.recs.cleaned {
		err = sh.compact()
	}
	if err == nil {
		if err = os.Remove(snap); os.IsNotExist(err) {
			err = nil
		}
	}
	if err != nil {
		wal.Close()
		sh.log = nil
		return 0, err
	}
	l.recoverNanos = time.Since(start).Nanoseconds()
	return wal.durVer, nil
}

// put flags.
const (
	// putRepair marks a re-replication copy: the install counts toward
	// RepairBytes, the transition-cost signal the chaos invariants bound.
	putRepair = 1 << iota
	// putReplay marks a replay install: it must not be appended back to the
	// log it came from.
	putReplay
)

// lookup decodes key's newest record, a tombstone included. Caller holds
// sh.mu (either side) or the store-wide lock.
func (sh *Shard) lookup(key uint64) (entry, bool) {
	_, e, _, ok := sh.recs.lookup(key)
	return e, ok
}

// each calls fn with every key's newest record, tombstones included, in no
// particular order; fn must not write to the shard. Caller holds sh.mu
// (either side) or the store-wide lock.
func (sh *Shard) each(fn func(key uint64, e entry)) { sh.recs.each(fn) }

// install appends e under key to the log if it is newer than what the shard
// holds, maintaining the live-key accounting, and reports whether it did: an
// entry that is not newer is refused and must not be logged either, and so
// is one the log has no room for (ErrShardFull). Caller holds sh.mu (or the
// store-wide write lock, which excludes every shard reader).
func (sh *Shard) install(key uint64, e entry, flags int) (bool, error) {
	slot, old, oldSize, ok := sh.recs.lookup(key)
	if ok && old.ver >= e.ver {
		return false, nil
	}
	ref, err := sh.recs.append(key, e)
	if err != nil {
		return false, err
	}
	sh.recs.set(slot, ok, key, ref)
	if ok && !old.dead {
		sh.stats.Keys--
		sh.stats.Bytes -= int64(len(old.val))
	}
	if !e.dead {
		sh.stats.Keys++
		sh.stats.Bytes += int64(len(e.val))
	}
	if flags&putRepair != 0 {
		sh.stats.RepairBytes += int64(len(e.val))
	}
	if ok {
		sh.recs.release(oldSize)
	}
	return true, nil
}

// put installs e under key and, unless it was refused or is a replay,
// appends it to the shard's WAL. The error is the install's (ErrShardFull:
// nothing changed) or the WAL's (the entry is installed in memory
// regardless). Caller holds sh.mu or the store-wide write lock.
func (sh *Shard) put(key uint64, e entry, flags int) error {
	if ok, err := sh.install(key, e, flags); !ok || flags&putReplay != 0 {
		return err
	}
	op := WALPut
	if e.dead {
		op = WALTomb
	}
	return sh.logMutation(op, key, e.ver, e.val)
}

// drop removes key entirely (garbage collection off a shard that is no
// longer in the key's placement set) and reports whether a live value
// went. Only a key that was present is logged. Caller holds sh.mu (or the
// store-wide write lock).
func (sh *Shard) drop(key uint64, flags int) (bool, error) {
	slot, old, size, ok := sh.recs.lookup(key)
	if !ok {
		return false, nil
	}
	if !old.dead {
		sh.stats.Keys--
		sh.stats.Bytes -= int64(len(old.val))
	}
	sh.recs.remove(slot)
	sh.recs.release(size)
	var err error
	if flags&putReplay == 0 {
		err = sh.logMutation(WALDrop, key, old.ver, nil)
	}
	return !old.dead, err
}

// reset empties the shard's memory the way process death (or leaving the
// tier) does; the counters and the log are the caller's business. Caller
// holds sh.mu or the store-wide write lock.
func (sh *Shard) reset() {
	sh.recs = segLog{}
	sh.stats.Keys, sh.stats.Bytes = 0, 0
}

// applyReplay installs one replayed record. Replay order is append order,
// and put's version compare makes it idempotent, so replaying a parent
// snapshot then the WAL (which may overlap) converges on the durable state.
func (sh *Shard) applyReplay(op WALOp, key, ver uint64, val []byte) {
	switch op {
	case WALPut:
		sh.put(key, entry{val: val, ver: ver}, putReplay)
	case WALTomb:
		sh.put(key, entry{ver: ver, dead: true}, putReplay)
	case WALDrop:
		sh.drop(key, putReplay)
	}
}

// logMutation appends one record to the shard's WAL, when it has one.
// Caller holds sh.mu or the store-wide write lock.
func (sh *Shard) logMutation(op WALOp, key, ver uint64, val []byte) error {
	if sh.log == nil {
		return nil
	}
	return sh.logged(sh.log.wal.Append(op, key, ver, val))
}

// logged closes out a WAL append that returned err: when the shard's records
// have been cleaned since the log last compacted, the log compacts now —
// after the whole group, never inside one. A failure is returned — a
// networked owner fails the write unacked — and the first one is kept for
// Durability().Err. Caller holds sh.mu or the store-wide write lock — the
// same exclusion put relies on, which also keeps the index still for the
// compaction.
func (sh *Shard) logged(err error) error {
	if err == nil && sh.recs.cleaned {
		err = sh.compact()
	}
	if err != nil && sh.log.err == nil {
		sh.log.err = err
	}
	return err
}

// compact rewrites the WAL as the shard's index under a mark carrying the
// durable-version watermark: the file's half of the cleaning its records
// went through. A failed compaction waits for the next cleaning rather than
// rewriting the shard on every write after it. Caller holds sh.mu or the
// store-wide write lock.
func (sh *Shard) compact() error {
	sh.recs.cleaned = false
	if err := sh.log.wal.compact(sh.emitIndex); err != nil {
		return err
	}
	sh.log.compactions++
	return nil
}

// emitIndex emits every key's newest record as a WAL record. Tombstones
// persist: a restart must not resurrect a deletion off a stale replica.
// Caller holds sh.mu or the store-wide write lock.
func (sh *Shard) emitIndex(emit func(op WALOp, key, ver uint64, val []byte)) {
	sh.each(func(k uint64, e entry) {
		if e.dead {
			emit(WALTomb, k, e.ver, nil)
		} else {
			emit(WALPut, k, e.ver, e.val)
		}
	})
}

// discard closes the log and removes its file — the shard has left the
// tier for good. Caller holds sh.mu or the store-wide write lock.
func (l *shardLog) discard() {
	l.wal.Close()
	os.Remove(l.walPath)
}

// peek reads key's live value without touching the read counters; a
// tombstone reads as absent.
func (sh *Shard) peek(key uint64) ([]byte, bool) {
	sh.mu.RLock()
	e, ok := sh.lookup(key)
	sh.mu.RUnlock()
	return e.val, ok && !e.dead
}

// Get returns the live value stored under key and counts one read. The
// slice aliases the shard's log and must not be modified.
func (sh *Shard) Get(key uint64) ([]byte, bool) {
	sh.gets.Add(1)
	return sh.peek(key)
}

// GetInto reads keys positionally into the caller-owned vals/oks
// (len(keys) each), counts them as reads and returns the value bytes read
// and how many keys were absent. The values alias the shard's log and must
// not be modified.
func (sh *Shard) GetInto(keys []uint64, vals [][]byte, oks []bool) (bytes int64, misses int) {
	sh.mu.RLock()
	for i, k := range keys {
		if e, ok := sh.lookup(k); ok && !e.dead {
			vals[i], oks[i] = e.val, true
			bytes += int64(len(e.val))
		} else {
			vals[i], oks[i] = nil, false
			misses++
		}
	}
	sh.mu.RUnlock()
	sh.gets.Add(uint64(len(keys)))
	return bytes, misses
}

// Put installs val under key at version ver: PutBatch of one record.
func (sh *Shard) Put(key uint64, val []byte, ver uint64) error {
	return sh.PutBatch([]uint64{key}, [][]byte{val}, ver)
}

// PutBatch installs vals[i] under keys[i] at version firstVer+i, all under
// one acquisition of the shard lock — newest version wins per key, so an
// owner that hands out a monotonic counter always installs, and a key named
// twice ends at its last value — and logs the installed records as one group
// before returning: one WAL write for the batch, and a record the compare
// refused is not in it. The shard copies every value into its log, so the
// caller keeps its buffers. A non-nil error means the batch is in memory but
// none of it is durable — except ErrShardFull, which stops the batch at the
// record the log has no room for: the records before it are installed and
// logged, that one and the rest are not.
func (sh *Shard) PutBatch(keys []uint64, vals [][]byte, firstVer uint64) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.stats.Puts += uint64(len(keys))
	if sh.log == nil {
		for i, key := range keys {
			if _, err := sh.install(key, entry{val: vals[i], ver: firstVer + uint64(i)}, 0); err != nil {
				return err
			}
		}
		return nil
	}
	bp := walBufPool.Get().(*[]byte)
	frames := (*bp)[:0]
	n, maxVer := 0, uint64(0)
	var err error
	for i, key := range keys {
		ver := firstVer + uint64(i)
		var ok bool
		if ok, err = sh.install(key, entry{val: vals[i], ver: ver}, 0); err != nil {
			break
		}
		if ok {
			frames = appendRecord(frames, WALPut, key, ver, vals[i])
			n, maxVer = n+1, ver
		}
	}
	if n > 0 {
		if lerr := sh.logged(sh.log.wal.appendFrames(frames, n, maxVer)); err == nil {
			err = lerr
		}
	}
	*bp = frames[:0]
	walBufPool.Put(bp)
	return err
}

// Drop removes key — the drop half of a copy-then-drop migration, logged
// so a restart cannot resurrect the migrated-away copy — and reports
// whether a live value was there.
func (sh *Shard) Drop(key uint64) (bool, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.drop(key, 0)
}

// Stats returns a snapshot of the shard's counters.
func (sh *Shard) Stats() ServerStats {
	sh.mu.RLock()
	st := sh.stats
	sh.mu.RUnlock()
	st.Gets, st.Misses, st.Failovers = sh.gets.Load(), sh.misses.Load(), sh.failovers.Load()
	return st
}

// Durability returns the shard's durable-state snapshot (the zero value
// for an in-memory shard).
func (sh *Shard) Durability() DurabilityStats {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	l := sh.log
	if l == nil {
		return DurabilityStats{}
	}
	walBytes, walRecords, walVer := l.wal.Stats()
	ds := DurabilityStats{
		Enabled:         true,
		State:           "fresh",
		WALBytes:        walBytes,
		WALRecords:      walRecords,
		Snapshots:       l.compactions,
		DurableVersion:  walVer,
		ReplayedRecords: l.replayedRecords,
		ReplayedBytes:   l.replayedBytes,
		RecoverNanos:    l.recoverNanos,
	}
	if l.crashed {
		ds.State = "crashed"
	} else if l.replayedRecords > 0 {
		ds.State = "warm"
	}
	if l.err != nil {
		ds.Err = l.err.Error()
	}
	return ds
}

// Counters is the shard's row of a stats snapshot, the one mapping of shard
// state onto metrics.StorageCounters on either transport: resident keys and
// bytes, the read, miss, failover and repair counters and, when the shard
// has a log, its durable state. The owner fills Slot, Status and Addr.
func (sh *Shard) Counters() metrics.StorageCounters {
	st, ds := sh.Stats(), sh.Durability()
	return metrics.StorageCounters{
		Keys:           int64(st.Keys),
		Bytes:          st.Bytes,
		Gets:           int64(st.Gets),
		Misses:         int64(st.Misses),
		Failovers:      int64(st.Failovers),
		RepairBytes:    st.RepairBytes,
		Durable:        ds.State,
		WALBytes:       ds.WALBytes,
		WALRecords:     ds.WALRecords,
		Snapshots:      int64(ds.Snapshots),
		DurableVersion: ds.DurableVersion,
		ReplayedBytes:  ds.ReplayedBytes,
		RecoverNanos:   ds.RecoverNanos,
	}
}

// Sync fsyncs the shard's WAL, regardless of the per-append setting — the
// graceful-shutdown flush. No-op without a log.
func (sh *Shard) Sync() error {
	sh.mu.RLock()
	l := sh.log
	sh.mu.RUnlock()
	if l == nil {
		return nil
	}
	return l.wal.Sync()
}

// Abandon closes the WAL's file descriptor without a sync — process
// death: whatever Append already handed the OS survives, nothing else —
// and marks the shard crashed. Later writes fail until it is reopened.
func (sh *Shard) Abandon() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.log != nil {
		sh.log.wal.Abandon()
		sh.log.crashed = true
	}
}
