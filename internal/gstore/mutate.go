package gstore

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/query"
)

// Write is one record a mutation rewrote: the bytes to store under Node,
// the edit stream (AppendEdits) that turns the stored pre-image into them,
// and that pre-image as stored, nil when Node had no record.
type Write struct {
	Node            graph.NodeID
	Val, Edits, Pre []byte
}

// Env is an engine as Mutate sees it.
type Env interface {
	// Labels returns the table the stored records' labels were interned
	// into, or an error when the engine takes no labelled mutations.
	Labels() (*graph.Labels, error)
	// Read fills dst[i] with the bytes stored under ids[i]: nil when there
	// are none, empty when the record is stored but empty, which is corrupt
	// (Tier.ReadBatchInto's convention).
	Read(ids []graph.NodeID, dst [][]byte) error
	// Commit stores writes and brings the engine's caches up to date. It is
	// called once per mutation whose records were read, with touched the
	// ids read, and with no writes on a no-op or a conflict: that call is
	// the engine's rule for a mutation with nothing to write.
	Commit(writes []Write, touched []graph.NodeID) error
}

// Mutate executes one mutation against env, the same algorithm on both
// transports: validate it, intern its label, read the pre-images of the
// records it touches in one batch, edit them with Apply and commit what
// changed. It returns the writes committed, the Node's record first. A full
// label table is query.ErrBadQuery; a conflict is Apply's error, returned
// after the empty commit. Nothing is written unless the mutation succeeds.
func Mutate(env Env, m *query.Mutation) ([]Write, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	var label graph.Label
	if m.Label != "" {
		labels, err := env.Labels()
		if err != nil {
			return nil, err
		}
		var ok bool
		if label, ok = labels.TryIntern(m.Label); !ok {
			return nil, fmt.Errorf("%w: label %q: the label table is full (%d labels)", query.ErrBadQuery, m.Label, labels.Len())
		}
	}
	ids := []graph.NodeID{m.Node, m.To}
	if m.Op == query.MutUpsertNode {
		ids = ids[:1]
	}
	var raw [2][]byte
	if err := env.Read(ids, raw[:len(ids)]); err != nil {
		return nil, err
	}
	recs := [2]Record{{Node: m.Node}, {Node: m.To}}
	for i, val := range raw[:len(ids)] {
		if val == nil {
			continue
		}
		r, err := Decode(ids[i], val)
		if err != nil {
			return nil, fmt.Errorf("pre-image of node %d: %w", ids[i], err)
		}
		recs[i] = r
	}
	pre := recs // Apply replaces edge lists, never writes their arrays
	writeU, writeV, err := Apply(m.Op, label, &recs[0], &recs[1], raw[0] != nil, raw[1] != nil)
	var ws []Write
	for i, changed := range [2]bool{writeU, writeV} {
		if changed {
			ws = append(ws, Write{Node: ids[i], Val: Encode(nil, &recs[i]), Edits: AppendEdits(nil, &pre[i], &recs[i]), Pre: raw[i]})
		}
	}
	if cerr := env.Commit(ws, ids); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return ws, nil
}
