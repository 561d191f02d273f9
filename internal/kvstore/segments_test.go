package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// modelKeys is how many keys runShardOps writes: few enough that most steps
// replace, tombstone or drop a record already there.
const modelKeys = 8

// modelLengths are the value lengths runShardOps draws from: empty, one
// byte, both sides of the segment size, three segments, three small ones and
// just over half a segment.
var modelLengths = [...]int{0, 1, segSize - 1, segSize, 3 * segSize, 7, 40, 300, segSize/2 + 1}

// cleanedSince reports whether l has been cleaned since first was its first
// segment: only a cleaning replaces a log's first segment, and the caller
// holding first keeps its memory from being reused for the new one.
func cleanedSince(l *segLog, first []byte) bool {
	return first != nil && (len(l.segs) == 0 || &l.segs[0][:1][0] != &first[:1][0])
}

// checkSlack fails unless l's segments hold exactly its live and dead bytes
// and their capacity is at most factor times that plus one segment, the
// head's. A shared segment the log moved on from is more than half full
// whatever its records, since a record longer than half a segment gets its
// own; filled with records of one length it is more than two thirds full.
func checkSlack(t testing.TB, l *segLog, factor float64) {
	t.Helper()
	var used, capacity int64
	for _, b := range l.segs {
		used, capacity = used+int64(len(b)), capacity+int64(cap(b))
	}
	if used != l.live+l.dead || float64(capacity) > factor*float64(used)+segSize {
		t.Fatalf("the log's %d segments hold %d bytes in %d of capacity; it counts %d live and %d dead", len(l.segs), used, capacity, l.live, l.dead)
	}
}

// walBound is the most a shard's WAL may hold while its records have not been
// cleaned since its last compaction, for keys below 128. The file is then a
// mark (at most 20 bytes), the image of the records the cleaning kept and
// what was logged since; every frame in it stands for one record of the
// in-memory log, live or dead, and each record has at most two: its put or
// tombstone — the record plus a header, an op and a key, 10 bytes more at
// most — and the drop that released it, which is no larger. So the file is
// at most 20 + 2 × (live + dead) + 19 per record, and each record is at least
// two bytes. The clean rule keeps dead below max(live, segSize), so
// the file stays under 20 + 11.5 × (2 × live + segSize): in step with the
// shard's memory.
func walBound(l *segLog) int64 {
	return 20 + 2*(l.live+l.dead) + 19*(l.live+l.dead)/2
}

// crashCompaction runs sh's compaction up to point and leaves the rest to a
// crash: 0 writes the temp file and stops before the rename; 1 renames it
// and stops before the log adopts it; 2 does the same and puts the parent
// format's snapshot beside the log — the crash between a migration's rename
// and its unlink, whose snapshot must be ignored; 3 completes it. Caller
// holds sh.mu.
func crashCompaction(t testing.TB, sh *Shard, point int) {
	t.Helper()
	w := sh.log.wal
	if point == 3 {
		if err := sh.compact(); err != nil {
			t.Fatal(err)
		}
		return
	}
	c, err := w.rewrite(sh.emitIndex)
	if err != nil {
		t.Fatal(err)
	}
	if point > 0 {
		if err := os.Rename(c.f.Name(), w.path); err != nil {
			t.Fatal(err)
		}
	}
	c.f.Close()
	if point == 2 {
		raw, err := os.ReadFile(parentSnap)
		if err == nil {
			err = os.WriteFile(strings.TrimSuffix(w.path, ".wal")+".snap", raw, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// modelValue is the value runShardOps writes under key at version ver.
func modelValue(key, ver uint64, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(key*31 + ver*7 + uint64(i))
	}
	return v
}

// runShardOps drives a shard and a map model through the operations ops
// encodes, three bytes each (operation, key, argument): PutBatch of one to
// three records at fresh versions or at versions the compare may refuse, a
// tombstone, Drop, a forced cleaning and, on a durable shard, a compaction
// cut short by a crash at a point the argument picks (crashCompaction) and a
// reopen. A forced cleaning must leave no more segments than it found.
// After every step it fails unless the shard reads as the model does: Get, GetInto, Stats' Keys and Bytes, the log's live-byte count and
// slack (checkSlack) and, on a durable shard (dir set; "" runs one in
// memory), the image its WAL replays to, no snapshot beside it, a WAL that
// has followed every cleaning but a forced one no write has come after yet,
// and the WAL within walBound.
// It returns how many writes, tombstones and drops set off a cleaning.
func runShardOps(t testing.TB, dir string, ops []byte) (cleanings int) {
	t.Helper()
	walPath, snapPath := filepath.Join(dir, "shard.wal"), filepath.Join(dir, "shard.snap")
	open := func() *Shard {
		if dir == "" {
			return NewShard()
		}
		sh, err := OpenShard(walPath, false)
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	sh := open()
	defer func() { sh.Abandon() }()
	model := make(map[uint64]entry)
	var top uint64 // the highest version written
	keys := make([]uint64, modelKeys)
	for i := range keys {
		keys[i] = uint64(i)
	}
	vals, oks := make([][]byte, modelKeys), make([]bool, modelKeys)
	// forced is set by a forced cleaning and cleared by the next step that
	// changes the WAL: until then the log may lag the cleaning, after it the
	// log must have followed.
	forced := false
	for step := 0; len(ops) >= 3; step++ {
		before := sh.Durability()
		op, key, arg := ops[0]%8, uint64(ops[1])%modelKeys, int(ops[2])
		ops = ops[3:]
		var first []byte
		if len(sh.recs.segs) > 0 {
			first = sh.recs.segs[0]
		}
		var name string
		switch op {
		case 0, 1, 2, 3:
			name = "batch"
			first := top + 1
			if op == 3 {
				name, first = "stale batch", 1+uint64(arg)%(top+1)
			}
			n := 1 + arg%3
			ks, vs := make([]uint64, n), make([][]byte, n)
			for i := range ks {
				ver := first + uint64(i)
				ks[i] = (key + uint64(i)) % modelKeys
				vs[i] = modelValue(ks[i], ver, modelLengths[(arg/3+i)%len(modelLengths)])
				if m, ok := model[ks[i]]; !ok || m.ver < ver {
					model[ks[i]] = entry{val: bytes.Clone(vs[i]), ver: ver}
				}
				top = max(top, ver)
			}
			if err := sh.PutBatch(ks, vs, first); err != nil {
				t.Fatal(err)
			}
			for _, v := range vs {
				clear(v) // the shard keeps copies, not these
			}
		case 4:
			name = "tombstone"
			top++
			sh.mu.Lock()
			err := sh.put(key, entry{ver: top, dead: true}, 0)
			sh.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			model[key] = entry{ver: top, dead: true}
		case 5:
			name = "drop"
			m, ok := model[key]
			if found, err := sh.Drop(key); err != nil || found != (ok && !m.dead) {
				t.Fatalf("step %d: Drop(%d) = %v, %v; the model holds version %d (present %v, tombstone %v)", step, key, found, err, m.ver, ok, m.dead)
			}
			delete(model, key)
		case 6:
			name = "clean"
			forced = true
			sh.mu.Lock()
			before := len(sh.recs.segs)
			sh.recs.clean()
			after := len(sh.recs.segs)
			sh.mu.Unlock()
			if after > before {
				t.Fatalf("step %d: cleaning took the log from %d segments to %d", step, before, after)
			}
		case 7:
			if dir == "" {
				continue
			}
			name = fmt.Sprintf("compaction cut at point %d, reopen", arg%4)
			sh.mu.Lock()
			crashCompaction(t, sh, arg%4)
			sh.mu.Unlock()
			sh.Abandon()
			sh = open()
		}
		if op < 6 && cleanedSince(&sh.recs, first) {
			cleanings++
		}

		sh.GetInto(keys, vals, oks)
		wantKeys, wantBytes := 0, int64(0)
		for _, k := range keys {
			m, ok := model[k]
			live := ok && !m.dead
			v, found := sh.Get(k)
			if found != live || oks[k] != live || !bytes.Equal(v, m.val) || !bytes.Equal(vals[k], m.val) {
				t.Fatalf("step %d (%s): key %d reads %d bytes (found %v) by Get, %d (found %v) by GetInto; the model holds %d bytes (live %v)",
					step, name, k, len(v), found, len(vals[k]), oks[k], len(m.val), live)
			}
			if live {
				wantKeys++
				wantBytes += int64(len(m.val))
			}
		}
		if st := sh.Stats(); st.Keys != wantKeys || st.Bytes != wantBytes {
			t.Fatalf("step %d (%s): Stats counts %d keys of %d bytes, the model %d of %d", step, name, st.Keys, st.Bytes, wantKeys, wantBytes)
		}
		var live int64
		for _, s := range sh.recs.slots {
			if s != 0 {
				_, size := sh.recs.read(s - 1)
				live += size
			}
		}
		if live != sh.recs.live || sh.recs.dead < 0 {
			t.Fatalf("step %d (%s): the log counts %d live and %d dead bytes, its indexed records hold %d", step, name, sh.recs.live, sh.recs.dead, live)
		}
		checkSlack(t, &sh.recs, 2)
		if dir == "" {
			continue
		}
		re := NewShard()
		if _, _, err := replayWAL(walPath, re.applyReplay); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
			t.Fatalf("step %d (%s): a snapshot beside the log (err=%v)", step, name, err)
		}
		ds := sh.Durability()
		if op == 7 || ds.WALBytes != before.WALBytes || ds.WALRecords != before.WALRecords {
			forced = false
		}
		if sh.recs.cleaned && !forced {
			t.Fatalf("step %d (%s): the records were cleaned and the WAL did not follow", step, name)
		}
		if !sh.recs.cleaned && ds.WALBytes > walBound(&sh.recs) {
			t.Fatalf("step %d (%s): the WAL holds %d bytes, over the %d the log's %d live and %d dead bytes allow", step, name, ds.WALBytes, walBound(&sh.recs), sh.recs.live, sh.recs.dead)
		}
		for _, k := range keys {
			got, ok := re.lookup(k)
			m, want := model[k]
			if ok != want || got.ver != m.ver || got.dead != m.dead || !bytes.Equal(got.val, m.val) {
				t.Fatalf("step %d (%s): key %d replays to version %d (present %v, tombstone %v, %d bytes); the model holds version %d (present %v, tombstone %v, %d bytes)",
					step, name, k, got.ver, ok, got.dead, len(got.val), m.ver, want, m.dead, len(m.val))
			}
		}
	}
	return cleanings
}

// TestShardLogMatchesModel runs a seeded sequence of 300 operations through
// runShardOps on an in-memory and on a durable shard; each must also have
// cleaned its log on its own at least once.
func TestShardLogMatchesModel(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			ops := make([]byte, 3*300)
			rand.New(rand.NewSource(1)).Read(ops)
			dir := ""
			if durable {
				dir = t.TempDir()
			}
			if n := runShardOps(t, dir, ops); n == 0 {
				t.Fatal("the log was only ever cleaned by force: no step let its dead bytes reach its live ones")
			}
		})
	}
}

// FuzzShardOps runs runShardOps over arbitrary operation bytes, on an
// in-memory and on a durable shard.
func FuzzShardOps(f *testing.F) {
	f.Add(false, []byte{0, 0, 12, 5, 1, 0, 6, 0, 0, 0, 2, 4})
	f.Add(true, []byte{0, 3, 12, 4, 3, 0, 7, 0, 0, 3, 3, 200, 5, 3, 0})
	f.Add(true, []byte{0, 3, 12, 4, 3, 0, 7, 0, 1, 0, 2, 5, 7, 0, 2, 5, 3, 0, 7, 0, 3, 0, 1, 1})
	f.Fuzz(func(t *testing.T, durable bool, ops []byte) {
		dir := ""
		if durable {
			dir = t.TempDir()
		}
		runShardOps(t, dir, ops[:min(len(ops), 3*32)])
	})
}

// TestSegLogSlack appends runs of records of one length — just over half a
// segment, just over a third, just under a half — and holds the log to
// 1.5 × its bytes plus a segment after each: a record that does not fit the
// head must not leave half a segment empty behind it.
func TestSegLogSlack(t *testing.T) {
	for _, n := range []int{segSize/2 + 1, segSize/3 + 1, segSize/2 - 16} {
		var l segLog
		for i := 0; i < 16; i++ {
			l.append(uint64(i), entry{val: make([]byte, n), ver: uint64(i + 1)})
			checkSlack(t, &l, 1.5)
		}
	}
}

// TestShardHeldValuesSurviveCleaning holds the values GetInto hands out
// while a writer overwrites every key until the log has been cleaned twice.
// Each held slice must still read the bytes it read: nothing is written over
// a stored byte, and a cleaning copies into fresh segments. Under -race a
// write into a held value would also be reported.
func TestShardHeldValuesSurviveCleaning(t *testing.T) {
	const keys, size = 64, 1 << 10
	sh := NewShard()
	ks := make([]uint64, keys)
	for i := range ks {
		ks[i] = uint64(i)
	}
	write := func(round uint64) {
		vals := make([][]byte, keys)
		for i := range vals {
			vals[i] = bytes.Repeat([]byte{byte(round)<<6 | byte(i)}, size)
		}
		if err := sh.PutBatch(ks, vals, 1+round*keys); err != nil {
			t.Fatal(err)
		}
	}
	write(0)
	done := make(chan struct{})
	var ready, readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		ready.Add(1)
		readers.Add(1)
		go func() {
			defer readers.Done()
			var held, want [][]byte
			got, oks := make([][]byte, keys), make([]bool, keys)
			for i := 0; ; i++ {
				stop := false
				select {
				case <-done:
					stop = true
				default:
				}
				sh.GetInto(ks, got, oks)
				if i < 8 {
					for _, v := range got {
						held, want = append(held, v), append(want, bytes.Clone(v))
					}
				}
				if i == 0 {
					ready.Done()
				}
				for j := range held {
					if !bytes.Equal(held[j], want[j]) {
						t.Errorf("a held value changed under cleaning: reads %x…, read %x…", held[j][:4], want[j][:4])
						return
					}
				}
				if stop {
					return
				}
			}
		}()
	}
	ready.Wait()
	for round, cleanings := uint64(1), 0; cleanings < 2; round++ {
		sh.mu.RLock()
		first := sh.recs.segs[0]
		sh.mu.RUnlock()
		write(round)
		sh.mu.RLock()
		if cleanedSince(&sh.recs, first) {
			cleanings++
		}
		sh.mu.RUnlock()
	}
	close(done)
	readers.Wait()
}

// TestSegLogIndexMatchesMap drives a shard over 3,000 keys through 60,000
// seeded puts, tombstones and drops, with a forced cleaning every 5,000,
// and holds its index to a map after every thousand: every key's lookup,
// the occupied-slot count, the table at most three quarters full, and each
// visiting exactly the model's keys, each once. A cleaning must leave no
// more segments than it found. The run grows the table from
// 16 slots to 4,096, and the drops exercise the backward shift on runs that
// wrap the table's end.
func TestSegLogIndexMatchesMap(t *testing.T) {
	const keys, steps = 3000, 60000
	sh := NewShard()
	model := make(map[uint64]entry)
	rng := rand.New(rand.NewSource(3))
	check := func(step int) {
		t.Helper()
		for k := uint64(0); k < keys; k++ {
			got, ok := sh.lookup(k)
			m, want := model[k]
			if ok != want || got.ver != m.ver || got.dead != m.dead || !bytes.Equal(got.val, m.val) {
				t.Fatalf("step %d: key %d looks up version %d (present %v), the model holds %d (present %v)", step, k, got.ver, ok, m.ver, want)
			}
		}
		if sh.recs.keys != len(model) || 4*sh.recs.keys > 3*len(sh.recs.slots) {
			t.Fatalf("step %d: %d occupied slots of %d, the model holds %d keys", step, sh.recs.keys, len(sh.recs.slots), len(model))
		}
		seen := make(map[uint64]bool)
		sh.each(func(k uint64, e entry) {
			if seen[k] || model[k].ver != e.ver {
				t.Fatalf("step %d: each visits key %d at version %d (again: %v), the model holds %d", step, k, e.ver, seen[k], model[k].ver)
			}
			seen[k] = true
		})
		if len(seen) != len(model) {
			t.Fatalf("step %d: each visits %d keys, the model holds %d", step, len(seen), len(model))
		}
	}
	for step := 1; step <= steps; step++ {
		k, ver := uint64(rng.Intn(keys)), uint64(step)
		switch r := rng.Intn(10); {
		case r < 6:
			v := modelValue(k, ver, rng.Intn(48))
			if err := sh.Put(k, v, ver); err != nil {
				t.Fatal(err)
			}
			model[k] = entry{val: v, ver: ver}
		case r < 7:
			sh.mu.Lock()
			sh.put(k, entry{ver: ver, dead: true}, 0)
			sh.mu.Unlock()
			model[k] = entry{ver: ver, dead: true}
		default:
			if _, err := sh.Drop(k); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		}
		if step%5000 == 0 {
			sh.mu.Lock()
			before := len(sh.recs.segs)
			sh.recs.clean()
			after := len(sh.recs.segs)
			sh.mu.Unlock()
			if after > before {
				t.Fatalf("step %d: cleaning took the log from %d segments to %d", step, before, after)
			}
		}
		if step%1000 == 0 {
			check(step)
		}
	}
	if len(sh.recs.slots) != 4096 {
		t.Fatalf("the table has %d slots for %d keys, want 4,096", len(sh.recs.slots), len(model))
	}
}

// TestShardFullIsRefused fills a shard's log up to the last segment a ref
// can name: a record that fits the head segment is still taken, one that
// needs a new segment is refused with ErrShardFull — by PutBatch, with the
// records before it installed and the shard's counters counting only them —
// and a drop still frees its key.
func TestShardFullIsRefused(t *testing.T) {
	sh := NewShard()
	if err := sh.Put(1, []byte("first"), 1); err != nil {
		t.Fatal(err)
	}
	head := sh.recs.segs[0]
	sh.recs.segs = make([][]byte, refSegs)
	sh.recs.segs[0], sh.recs.head = head, 0
	err := sh.PutBatch([]uint64{2, 3, 4}, [][]byte{[]byte("fits"), make([]byte, segSize), []byte("after")}, 2)
	if !errors.Is(err, ErrShardFull) {
		t.Fatalf("a put past the last segment: err = %v, want ErrShardFull", err)
	}
	for k, want := range map[uint64]bool{1: true, 2: true, 3: false, 4: false} {
		if _, ok := sh.Get(k); ok != want {
			t.Errorf("key %d present %v, want %v", k, ok, want)
		}
	}
	if st := sh.Stats(); st.Keys != 2 || st.Bytes != int64(len("first")+len("fits")) {
		t.Errorf("Stats counts %d keys of %d bytes, want the 2 installed", st.Keys, st.Bytes)
	}
	if found, err := sh.Drop(1); !found || err != nil {
		t.Fatalf("Drop on a full shard = %v, %v", found, err)
	}
}
