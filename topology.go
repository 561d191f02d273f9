package grouting

import (
	"repro/internal/router"
	"repro/internal/topology"
)

// Elastic topology: the processing tier is an epoch-versioned membership,
// not a constructor argument. On the virtual-time system the [System]
// methods AddProcessor / DrainProcessor / FailProcessor / ReviveProcessor
// move it (sessions and clients apply the new view atomically at their
// next query, so every query runs under exactly one epoch); on a networked
// deployment processors self-register with [ProcessorServer.Register] and
// leave cleanly with [ProcessorServer.Deregister] (groutingd exposes these
// as -join and graceful SIGTERM shutdown). [Client.Stats] reports the
// current epoch and the per-epoch reassignment counts on both transports.
type (
	// TopologyView is an immutable snapshot of the processing tier at one
	// epoch: slot-indexed members with their lifecycle status. Slots are
	// stable processor ids, assigned at join and never reused.
	TopologyView = topology.View
	// TopologyMember is one processor slot's membership record.
	TopologyMember = topology.Member
	// TopologyStatus is a member's lifecycle state.
	TopologyStatus = topology.Status
	// TopologyAware is optionally implemented by routing strategies that
	// adapt to membership changes: SetTopology fires under the router's
	// lock at construction and on every applied epoch, letting the
	// strategy re-derive its assignments for the new active set (the
	// built-in landmark, embed and stablehash strategies all do).
	TopologyAware = router.TopologyAware
	// TopologyTier tells processor members and storage members apart in
	// mixed renderings (the CLI topology table, the epoch log).
	TopologyTier = topology.Tier
)

// Topology tiers.
const (
	// TierProcessor members are query processors.
	TierProcessor = topology.TierProcessor
	// TierStorage members are storage servers.
	TierStorage = topology.TierStorage
)

// Member lifecycle states.
const (
	// ProcActive members receive new work.
	ProcActive = topology.Active
	// ProcDraining members receive no new work and depart once their
	// pending work finishes.
	ProcDraining = topology.Draining
	// ProcDown members have failed; they may revive.
	ProcDown = topology.Down
	// ProcLeft members are gone for good; their slot is never reused.
	ProcLeft = topology.Left
)

// RendezvousHash picks the destination slot for key by rendezvous
// (highest-random-weight) hashing over slots — the stable-remap primitive
// behind PolicyStableHash, exported for user strategies that want the same
// ~1/N remap property on topology changes. Returns -1 when slots is empty.
func RendezvousHash(key uint64, slots []int) int {
	return topology.Rendezvous(key, slots)
}

// RendezvousHashN appends key's top-r slots by rendezvous score to dst
// (best first; dst may be nil) — the replica-placement primitive behind
// Config.StorageReplicas >= 2, exported for placement-aware tooling. r is capped
// at 8.
func RendezvousHashN(key uint64, slots []int, r int, dst []int) []int {
	return topology.RendezvousN(key, slots, r, dst)
}
