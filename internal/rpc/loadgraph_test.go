package rpc

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/query"
)

// TestLoadGraphStopsAtFirstFailure drives LoadGraph — all of what
// LoadStorageReplicated does after dialing — into two shards at R = 1, one
// of which fails while chunk okChunks+1 is in flight: in one case it stops
// answering (severs its connections mid-call), in the other the loader's
// context is cancelled. The load must end with that failure's error, no
// shard may see a chunk after it (every chunk of a few hundred records has
// keys on both shards, so each shard gets exactly one frame per chunk sent),
// and no goroutine of the load may outlive it.
func TestLoadGraphStopsAtFirstFailure(t *testing.T) {
	const okChunks = 3
	g := gen.LocalWeb(6000, 12, 160, 0.04, 1)
	for _, tc := range []struct {
		name    string
		cancels bool // the failure is the loader's context, not the shard
		want    error
	}{
		{"shard stops answering", false, query.ErrUnavailable},
		{"context cancelled", true, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var failing, healthy atomic.Int32
			ct := &connTracker{}
			failingAddr := startServer(t, func(hctx context.Context, req *Request) Response {
				if req.Op != OpMultiPut || failing.Add(1) <= okChunks {
					return Response{OK: true}
				}
				if tc.cancels {
					cancel()
					return Response{OK: true}
				}
				go ct.closeAll()
				<-hctx.Done()
				return Response{OK: true}
			}, readPaths[0].wrap, ct)
			healthyAddr := startServer(t, func(_ context.Context, req *Request) Response {
				if req.Op == OpMultiPut {
					healthy.Add(1)
				}
				return Response{OK: true}
			}, readPaths[0].wrap, nil)
			sc, err := DialStorageReplicated([]string{failingAddr, healthyAddr}, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			// Dialling pinged both shards over the one connection each pool
			// keeps, so the count starts from the deployment the load uses.
			start := runtime.NumGoroutine()

			err = sc.LoadGraph(ctx, g)
			if !errors.Is(err, tc.want) {
				t.Fatalf("LoadGraph = %v, want %v", err, tc.want)
			}
			time.Sleep(50 * time.Millisecond) // a chunk sent after the failure would land meanwhile
			if f, h := failing.Load(), healthy.Load(); f != okChunks+1 || h > okChunks+1 {
				t.Errorf("the shards saw %d and %d chunks; want %d and at most %d: a chunk left after the failure", f, h, okChunks+1, okChunks+1)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > start {
				t.Errorf("%d goroutines after the load, %d before it", n, start)
			}
		})
	}
}
