package rpc

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestPlacementSameAcrossTransports: the in-process store core.NewSystem
// builds and the StorageClient every TCP process places through put each
// key on the same slots, for every store configuration the two share. The
// adaptive case holds core's store, whose pins only a planning cycle sets,
// to the client's placement before any record moves.
func TestPlacementSameAcrossTransports(t *testing.T) {
	g := gen.Ring(64)
	for _, shards := range []int{3, 4} {
		for _, c := range []struct {
			replicas int
			adaptive bool
		}{{1, false}, {1, true}, {2, false}} {
			t.Run(fmt.Sprintf("shards=%d/R=%d/adaptive=%v", shards, c.replicas, c.adaptive), func(t *testing.T) {
				sys, err := core.NewSystem(g, core.Config{
					Processors: 2, StorageServers: shards, StorageReplicas: c.replicas,
					AdaptivePlacement: c.adaptive, Policy: core.PolicyHash,
				})
				if err != nil {
					t.Fatal(err)
				}
				sc := newStorageClient(make([]*Pool, shards), c.replicas)
				defer sc.Close()
				var a, b []int
				for k := uint64(0); k < 10_000; k++ {
					a = sys.Store().ReplicasFor(k, a)
					b = sc.placement(k, b)
					if !slices.Equal(a, b) {
						t.Fatalf("key %d: in-process store places on %v, TCP client on %v", k, a, b)
					}
				}
			})
		}
	}
}
