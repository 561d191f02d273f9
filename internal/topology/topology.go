// Package topology makes cluster membership a first-class, epoch-versioned
// value instead of a constructor argument. The paper's core argument for
// decoupling storage from query processing is that "a query processor that
// is down can be replaced without affecting the routing strategy" and that
// processors can be added or removed without repartitioning the graph
// (Section 1); this package carries that property through the running
// system.
//
// A Tracker owns the mutable membership of the processing tier. Every
// mutation — join, drain, leave, fail, revive — produces a new immutable
// View with a strictly increasing epoch. Consumers (the router, sessions,
// strategies) hold a View, compare epochs, and apply newer views
// atomically at their own boundaries, so in-flight queries always complete
// on the view they were routed under.
//
// Processor identity is a slot: a small integer assigned at join time and
// never reused. Slots only grow, so slot-indexed counter arrays stay valid
// across every epoch and per-slot accounting never aliases two different
// processors.
package topology

import (
	"fmt"
	"sync"
)

// EpochLogCap bounds the routers' topology-transition logs carried in
// stats snapshots (oldest entries drop first).
const EpochLogCap = 32

// Tier names which tier of the decoupled architecture a member belongs
// to. One Tracker owns one tier's membership: the processing tier and the
// storage tier evolve independently — that independence is the paper's
// core decoupling argument — so each gets its own tracker and epoch
// counter, but both share the Member/View/transition machinery.
type Tier int8

const (
	// TierProcessor members are query processors.
	TierProcessor Tier = iota
	// TierStorage members are storage servers.
	TierStorage
)

// String renders the tier the way stats snapshots and the CLI print it.
func (t Tier) String() string {
	switch t {
	case TierProcessor:
		return "proc"
	case TierStorage:
		return "storage"
	}
	return fmt.Sprintf("Tier(%d)", int8(t))
}

// Status is a member's lifecycle state.
type Status int8

const (
	// Active members receive new work.
	Active Status = iota
	// Draining members receive no new work; their in-flight/queued work
	// finishes (or is reassigned) before they become Left.
	Draining
	// Down members have failed: no new work, but they may Revive. Their
	// backlog is recovered by the live processors (stealing).
	Down
	// Left members are gone for good; their slot is never reused.
	Left
)

// String renders the status the way /statsz and the CLI print it.
func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Draining:
		return "draining"
	case Down:
		return "down"
	case Left:
		return "left"
	}
	return fmt.Sprintf("Status(%d)", int8(s))
}

// Member is one slot's membership record.
type Member struct {
	// Slot is the stable member id: assigned at join, never reused.
	Slot int
	// Addr is the member's network address (empty on the virtual-time
	// engine, where both tiers are in-process).
	Addr string
	// Status is the member's lifecycle state.
	Status Status
	// Tier records which tier the member serves (processor or storage),
	// so mixed renderings — the CLI topology table, the epoch log — can
	// tell the two apart.
	Tier Tier
}

// View is an immutable snapshot of the processing tier at one epoch.
// Members is slot-indexed and covers every slot ever allocated (Left
// members stay, so slot-indexed accounting remains aligned).
type View struct {
	Epoch   uint64
	Members []Member
}

// Slots returns the total number of slots ever allocated (active or not).
func (v View) Slots() int { return len(v.Members) }

// IsActive reports whether slot receives new work in this view.
func (v View) IsActive(slot int) bool {
	return slot >= 0 && slot < len(v.Members) && v.Members[slot].Status == Active
}

// Status returns slot's lifecycle state (Left for out-of-range slots).
func (v View) Status(slot int) Status {
	if slot < 0 || slot >= len(v.Members) {
		return Left
	}
	return v.Members[slot].Status
}

// RoutableSlots returns every slot that is still a member — everything
// but Left — in ascending order. Routing strategies derive their
// candidate sets from this, not from the Active members: a Down member stays a
// valid destination in the strategy's model (its keys divert to the
// next-best live processor and come back when it revives, the paper's
// §3.4.1 fault-tolerance behaviour), while a Left member is gone for
// good and its share of the key space is permanently remapped.
func (v View) RoutableSlots() []int {
	out := make([]int, 0, len(v.Members))
	for _, m := range v.Members {
		if m.Status != Left {
			out = append(out, m.Slot)
		}
	}
	return out
}

// Diff summarises the member transitions from old to new, in the terms
// the observability surface reports. Draining is transient and not
// counted on its own — the eventual Leave is.
type Diff struct {
	Joined  int
	Left    int
	Failed  int
	Revived int
	// LeftSlots lists the slots that became Left in this transition.
	LeftSlots []int
}

// DiffViews classifies every member whose status changed between two
// views (new slots count as joins). Both routers build their epoch event
// logs from this one implementation.
func DiffViews(old, new View) Diff {
	var d Diff
	for _, m := range new.Members {
		prev := Status(-1)
		if m.Slot < len(old.Members) {
			prev = old.Members[m.Slot].Status
		}
		if prev == m.Status {
			continue
		}
		switch m.Status {
		case Active:
			if prev == Down {
				d.Revived++
			} else {
				d.Joined++
			}
		case Down:
			d.Failed++
		case Left:
			d.Left++
			d.LeftSlots = append(d.LeftSlots, m.Slot)
		}
	}
	return d
}

// NumActive returns the number of active members.
func (v View) NumActive() int {
	n := 0
	for _, m := range v.Members {
		if m.Status == Active {
			n++
		}
	}
	return n
}

// Static returns a single-epoch view of n active in-process members — the
// fixed topology every deployment had before elasticity, still the
// starting point of every elastic one.
func Static(n int) View {
	v := View{Epoch: 1, Members: make([]Member, n)}
	for i := range v.Members {
		v.Members[i] = Member{Slot: i, Status: Active}
	}
	return v
}

// Tracker owns the mutable membership of one deployment. All methods are
// safe for concurrent use; every successful mutation bumps the epoch and
// the returned View is an isolated copy.
type Tracker struct {
	mu      sync.Mutex
	epoch   uint64
	tier    Tier
	members []Member
}

// NewTracker seeds a processor-tier tracker with n active in-process
// members (slots 0..n-1) at epoch 1. Slots listed in down start in the
// Down state — the whole-run failure configuration the virtual-time
// engine's FailedProcessors maps onto.
func NewTracker(n int, down []int) *Tracker {
	t := NewTierTracker(TierProcessor, n)
	for _, s := range down {
		if s >= 0 && s < n {
			t.members[s].Status = Down
		}
	}
	return t
}

// NewTierTracker seeds a tracker for the given tier with n active
// in-process members (slots 0..n-1) at epoch 1.
func NewTierTracker(tier Tier, n int) *Tracker {
	t := &Tracker{epoch: 1, tier: tier, members: make([]Member, n)}
	for i := range t.members {
		t.members[i] = Member{Slot: i, Status: Active, Tier: tier}
	}
	return t
}

// NewTrackerAddrs seeds a processor-tier tracker with one active member
// per address (slots in argument order) at epoch 1.
func NewTrackerAddrs(addrs []string) *Tracker {
	return NewTierTrackerAddrs(TierProcessor, addrs)
}

// NewTierTrackerAddrs seeds a tracker for the given tier with one active
// member per address (slots in argument order) at epoch 1.
func NewTierTrackerAddrs(tier Tier, addrs []string) *Tracker {
	t := &Tracker{epoch: 1, tier: tier, members: make([]Member, len(addrs))}
	for i, a := range addrs {
		t.members[i] = Member{Slot: i, Addr: a, Status: Active, Tier: tier}
	}
	return t
}

// View returns the current view.
func (t *Tracker) View() View {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.viewLocked()
}

// Epoch returns the current epoch without copying the member list.
func (t *Tracker) Epoch() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

func (t *Tracker) viewLocked() View {
	return View{Epoch: t.epoch, Members: append([]Member(nil), t.members...)}
}

// Join allocates a new slot for a member at addr (may be empty for
// in-process members) and returns it with the new view.
func (t *Tracker) Join(addr string) (int, View) {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot := len(t.members)
	t.members = append(t.members, Member{Slot: slot, Addr: addr, Status: Active, Tier: t.tier})
	t.epoch++
	return slot, t.viewLocked()
}

// Lookup returns the slot of the Active member at addr (-1 when absent).
// Only Active members match: a Draining or Down slot at the same address
// is on its way out, and a processor restarting there must be admitted as
// a fresh member rather than handed a slot about to become Left.
func (t *Tracker) Lookup(addr string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range t.members {
		if m.Addr == addr && m.Status == Active {
			return m.Slot
		}
	}
	return -1
}

// transition moves slot from any of the from states to the to state. A
// transition that would leave a previously-serving tier with no active
// member is refused: the routers cannot divert anywhere, so losing the
// last processor is an operational error, not a topology change.
func (t *Tracker) transition(slot int, to Status, from ...Status) (View, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if slot < 0 || slot >= len(t.members) {
		return View{}, fmt.Errorf("topology: slot %d out of range [0,%d)", slot, len(t.members))
	}
	cur := t.members[slot].Status
	ok := false
	for _, f := range from {
		if cur == f {
			ok = true
			break
		}
	}
	if !ok {
		return View{}, fmt.Errorf("topology: slot %d is %s, cannot become %s", slot, cur, to)
	}
	if cur == Active && to != Active {
		active := 0
		for _, m := range t.members {
			if m.Status == Active {
				active++
			}
		}
		if active <= 1 {
			return View{}, fmt.Errorf("topology: slot %d is the last active member", slot)
		}
	}
	t.members[slot].Status = to
	t.epoch++
	return t.viewLocked(), nil
}

// Drain marks slot as draining: it receives no new work, and once its
// pending work is flushed the owner completes the drain with Leave. This
// is the clean-leave path a shutting-down processor takes, as opposed to
// just vanishing and being treated as Down.
func (t *Tracker) Drain(slot int) (View, error) {
	return t.transition(slot, Draining, Active, Down)
}

// Leave removes slot permanently. Pending work the routers still hold for
// it is reassigned to live members when they apply the new view.
func (t *Tracker) Leave(slot int) (View, error) {
	return t.transition(slot, Left, Active, Draining, Down)
}

// Fail marks slot as down (it may Revive later).
func (t *Tracker) Fail(slot int) (View, error) {
	return t.transition(slot, Down, Active, Draining)
}

// Revive returns a Down slot to Active.
func (t *Tracker) Revive(slot int) (View, error) {
	return t.transition(slot, Active, Down)
}
