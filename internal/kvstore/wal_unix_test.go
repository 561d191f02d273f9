//go:build unix

package kvstore

import (
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
)

// TestWALAppendAfterFailedAppendSurvivesReopen cuts an append short with a
// file-size limit ten bytes past the log's good length, lifts the limit and
// appends again: the second append is acked, so it must replay. Before the
// log repaired itself the torn frame of the failed append stayed in the file
// with the acked record behind it, where replay — which stops at the first
// damaged frame — never reached it: the log reopened to [1]. The limit is
// process-wide, so this test must not run in parallel with anything.
func TestWALAppendAfterFailedAppendSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	val := []byte("a value longer than the ten bytes the limit leaves")
	w := appendRecs(t, path, []walRec{{WALPut, 1, 1, val}})
	good, _, _ := w.Stats()

	// Past the limit the kernel raises SIGXFSZ, which kills the process
	// unless ignored; ignored, the write returns EFBIG.
	signal.Ignore(syscall.SIGXFSZ)
	defer signal.Reset(syscall.SIGXFSZ)
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	lim := old
	lim.Cur = uint64(good) + 10
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Skipf("setrlimit refused: %v", err)
	}
	failed := w.Append(WALPut, 2, 2, val)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatalf("restoring the file-size limit: %v", err)
	}
	if failed == nil {
		t.Fatal("append past the file-size limit returned no error")
	}
	if b, r, v := w.Stats(); b != good || r != 1 || v != 1 {
		t.Fatalf("after the failed append: bytes=%d records=%d version=%d, want %d/1/1", b, r, v, good)
	}

	if err := w.Append(WALPut, 3, 3, val); err != nil {
		t.Fatalf("append after the limit was lifted: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := []walRec{{WALPut, 1, 1, val}, {WALPut, 3, 3, val}}
	if got := replayRecs(t, path); !recsEqual(got, want) {
		keys := make([]uint64, len(got))
		for i, r := range got {
			keys[i] = r.key
		}
		t.Fatalf("reopened log replays keys %v, want [1 3]: an acked append was lost behind a torn frame", keys)
	}
}
