// Package gstore stores a graph in the key-value storage tier using the
// adjacency-list layout of Figure 3: every node is one entry whose key is
// the node id and whose value encodes the node's label together with both
// its outgoing and incoming labelled edges.
//
// The binary codec is a compact varint encoding with delta-compressed,
// sorted neighbour lists. The value sizes it produces drive the engine's
// network-transfer modelling, and they size cache entries too: both
// transports' processors cache a record as these bytes (ReadBatchInto
// hands them over raw) and charge their length, decoding a record per
// query (DecodeInto) into an executor's edge arena.
//
// A record is a uvarint head, then the out-edge list, then the in-edge
// list; a list is a uvarint count and, per edge in (To, Label) order, the
// uvarint delta of To from the previous edge's To and, in a labelled list,
// the edge's uvarint label. A list is labelled when one of its edges
// carries a label. When every non-empty list is labelled the head is the
// node label (below 1<<16) and both lists are labelled: the original
// layout, which every build reads. Otherwise the head is tagged:
// 1<<16 | outLabelled<<17 | inLabelled<<18 | label, three bytes, and a list
// whose flag is clear stores only its count and its deltas. A build that
// predates the tag refuses such a record (its head exceeds any label); a
// head of 1<<19 or more is refused here, so a later layout is never
// misread.
//
// A read that follows only out-edges needs only a record's out-prefix: the
// head and the out-list, which Encode writes first. Storage ships that
// prefix (Project, cut where OutPrefix says) instead of the whole value on
// both transports, and a processor caches it as it arrived. A whole record
// always has at least one byte after its out-list, the in-list's count; an
// out-prefix has none. That is how a cached value says what it holds
// (IsPrefix), and why Decode refuses a prefix while DecodeOutInto reads
// either form. OutPrefix walks the whole value, so a value with a malformed
// in-list is shipped whole and refused by the reader's strict decode; only
// a stored value cut exactly at the end of its out-list reads as a prefix.
package gstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/kvstore"
	"repro/internal/query"
)

// Record is the decoded storage entry for one node.
type Record struct {
	Node      graph.NodeID
	NodeLabel graph.Label
	Out       []graph.Edge
	In        []graph.Edge
}

// ErrCorrupt is returned when a stored value cannot be decoded.
var ErrCorrupt = errors.New("gstore: corrupt record")

// The tagged head's bits, above the node label's 16.
const (
	headTagged      = 1 << 16
	headOutLabelled = 1 << 17
	headInLabelled  = 1 << 18
	headLimit       = 1 << 19 // the first head no layout defines
)

// Encode serialises r, appending to buf (which may be nil) and returning
// the extended slice. Edge lists are written in (To, Label) order: a list
// already in it, as a decoded record's and most of a generated graph's in-
// lists are, is written as it stands; any other is sorted as packed
// To<<16 | Label keys in a buffer on the stack (pooled for a list longer
// than stackKeys), so Encode allocates nothing but buf's growth and does
// not modify r.
func Encode(buf []byte, r *Record) []byte {
	out, outOrdered := shape(r.Out)
	in, inOrdered := shape(r.In)
	head := uint64(r.NodeLabel)
	if (!out && len(r.Out) > 0) || (!in && len(r.In) > 0) {
		head |= headTagged
		if out {
			head |= headOutLabelled
		}
		if in {
			head |= headInLabelled
		}
	}
	buf = binary.AppendUvarint(buf, head)
	buf = appendEdges(buf, r.Out, out, outOrdered)
	buf = appendEdges(buf, r.In, in, inOrdered)
	return buf
}

// edgeKey packs e so that keys order as edges do by (To, Label).
func edgeKey(e graph.Edge) uint64 { return uint64(e.To)<<16 | uint64(e.Label) }

// shape reports, in one pass, whether any of edges carries a label and
// whether they are in (To, Label) order.
func shape(edges []graph.Edge) (labelled, ordered bool) {
	ordered = true
	prev := uint64(0)
	for _, e := range edges {
		k := edgeKey(e)
		labelled = labelled || e.Label != graph.NoLabel
		ordered = ordered && k >= prev
		prev = k
	}
	return labelled, ordered
}

// stackKeys is how many edges' sort keys appendEdges keeps on its stack:
// 512 bytes, above the out-degree of nearly every generated node.
const stackKeys = 64

// keyPool holds the key buffers of lists longer than stackKeys.
var keyPool = sync.Pool{New: func() any { return new([]uint64) }}

func appendEdges(buf []byte, edges []graph.Edge, withLabels, ordered bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	if ordered {
		prev := uint64(0)
		for _, e := range edges {
			buf = binary.AppendUvarint(buf, uint64(e.To)-prev)
			prev = uint64(e.To)
			if withLabels {
				buf = binary.AppendUvarint(buf, uint64(e.Label))
			}
		}
		return buf
	}
	if len(edges) <= stackKeys {
		var stack [stackKeys]uint64
		return appendKeys(buf, sortedKeys(stack[:0], edges), withLabels)
	}
	p := keyPool.Get().(*[]uint64)
	*p = sortedKeys((*p)[:0], edges)
	buf = appendKeys(buf, *p, withLabels)
	keyPool.Put(p)
	return buf
}

// sortedKeys appends the keys of edges to dst, which is empty, and sorts them.
func sortedKeys(dst []uint64, edges []graph.Edge) []uint64 {
	for _, e := range edges {
		dst = append(dst, edgeKey(e))
	}
	slices.Sort(dst)
	return dst
}

// appendKeys writes sorted keys as an edge list's body.
func appendKeys(buf []byte, keys []uint64, withLabels bool) []byte {
	prev := uint64(0)
	for _, k := range keys {
		buf = binary.AppendUvarint(buf, k>>16-prev)
		prev = k >> 16
		if withLabels {
			buf = binary.AppendUvarint(buf, k&0xFFFF)
		}
	}
	return buf
}

// Decode parses a record produced by Encode. The node id is not part of the
// value (it is the key), so the caller supplies it. Both edge lists share a
// single backing allocation: an edge takes at least one byte, after a head
// and two counts of one byte at least, so the value's length less three
// bounds how many edges it holds, and DecodeInto fills one []graph.Edge of
// that capacity without a pre-scan.
func Decode(node graph.NodeID, data []byte) (Record, error) {
	r, _, err := DecodeInto(node, data, make([]graph.Edge, 0, max(len(data)-3, 0)))
	return r, err
}

// DecodeInto parses a record produced by Encode in one pass, appending its
// edges to arena and returning the extended arena: Out and In are
// capacity-capped windows of it, so appending to either never clobbers a
// neighbour. Records decoded into one arena stay valid as it grows — a
// grown arena is a new array, the old one still backs them — until its
// owner truncates it and decodes over them. On an error the arena comes
// back as it was given. An out-prefix is refused: it has no in-list.
func DecodeInto(node graph.NodeID, data []byte, arena []graph.Edge) (Record, []graph.Edge, error) {
	r := Record{Node: node}
	label, inLabels, out, data, err := decodeOut(data, arena)
	if err != nil {
		return r, arena, err
	}
	r.NodeLabel = label
	start, mid := len(arena), len(out)
	all, data, err := appendEdgeList(out, data, inLabels)
	if err != nil {
		return r, arena, fmt.Errorf("%w: in edges", ErrCorrupt)
	}
	if len(data) != 0 {
		return r, arena, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data))
	}
	// Sliced only now: appending In may have moved the arena.
	r.Out = all[start:mid:mid]
	r.In = all[mid:len(all):len(all)]
	return r, all, nil
}

// DecodeOutInto decodes the head and the out-list at the front of data — an
// out-prefix, or a whole record whose in-list it leaves unread — into arena
// as DecodeInto does, and returns the record with In nil. Checked this way,
// an out-prefix is checked whole; the in-list of a whole record is not, so
// a caller reading a whole value nobody has checked uses DecodeInto.
func DecodeOutInto(node graph.NodeID, data []byte, arena []graph.Edge) (Record, []graph.Edge, error) {
	label, _, out, _, err := decodeOut(data, arena)
	if err != nil {
		return Record{Node: node}, arena, err
	}
	start := len(arena)
	return Record{Node: node, NodeLabel: label, Out: out[start:len(out):len(out)]}, out, nil
}

// decodeOut parses data's head and appends its out-list to arena,
// returning the node label, whether the in-list carries labels, the
// extended arena and the bytes after the out-list.
func decodeOut(data []byte, arena []graph.Edge) (graph.Label, bool, []graph.Edge, []byte, error) {
	label, outLabels, inLabels, data, err := decodeHead(data)
	if err != nil {
		return 0, false, arena, nil, err
	}
	out, data, err := appendEdgeList(arena, data, outLabels)
	if err != nil {
		return 0, false, arena, nil, fmt.Errorf("%w: out edges", ErrCorrupt)
	}
	return label, inLabels, out, data, nil
}

// decodeHead parses the head data opens with: the node label, whether each
// list carries labels, and the bytes after it.
func decodeHead(data []byte) (label graph.Label, outLabels, inLabels bool, rest []byte, err error) {
	head, n := binary.Uvarint(data)
	if n <= 0 || head >= headLimit {
		return 0, false, false, nil, fmt.Errorf("%w: record head", ErrCorrupt)
	}
	outLabels, inLabels = true, true
	if head&headTagged != 0 {
		outLabels, inLabels = head&headOutLabelled != 0, head&headInLabelled != 0
	}
	return graph.Label(head), outLabels, inLabels, data[n:], nil
}

// OutPrefix walks val the way DecodeInto does, storing no edges, and
// returns the length of its out-prefix: the head and the out-list. A value
// DecodeInto refuses is refused here too, so what is cut from a value that
// walks is always an intact in-list.
func OutPrefix(val []byte) (int, error) {
	_, outLabels, inLabels, data, err := decodeHead(val)
	if err != nil {
		return 0, err
	}
	if data, err = skipEdgeList(data, outLabels); err != nil {
		return 0, fmt.Errorf("%w: out edges", ErrCorrupt)
	}
	n := len(val) - len(data)
	if data, err = skipEdgeList(data, inLabels); err != nil {
		return 0, fmt.Errorf("%w: in edges", ErrCorrupt)
	}
	if len(data) != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data))
	}
	return n, nil
}

// Project returns what a read in direction dir ships of the stored value
// val: its out-prefix for graph.Out, and val whole for any other direction
// or for a value OutPrefix refuses — which the reader's strict decode then
// refuses in turn. Both transports' storage reads cut through it.
func Project(val []byte, dir graph.Direction) []byte {
	if dir != graph.Out {
		return val
	}
	if n, err := OutPrefix(val); err == nil {
		return val[:n]
	}
	return val
}

// IsPrefix reports whether val is an out-prefix: whether nothing follows
// its out-list. It finds the list's end by its varints' last bytes and
// checks no more, so it answers exactly for a value that decodes; of one
// that does not, the caller's decode is the judge. It reads no edge, which
// is what a probe of the cache can afford.
func IsPrefix(val []byte) bool {
	_, outLabels, _, data, err := decodeHead(val)
	count, n := binary.Uvarint(data)
	if err != nil || n <= 0 || count > uint64(len(data)) {
		return false
	}
	if outLabels {
		count *= 2 // a delta and a label per edge
	}
	for _, b := range data[n:] {
		if count == 0 {
			return false // a byte after the out-list
		}
		if b < 0x80 { // the last byte of a varint
			count--
		}
	}
	return count == 0
}

// skipEdgeList checks one edge list as appendEdgeList decodes it, storing
// nothing, and returns the bytes after it.
func skipEdgeList(data []byte, withLabels bool) ([]byte, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return data, ErrCorrupt
	}
	data = data[n:]
	limit := uint64(len(data))
	if withLabels {
		limit /= 2
	}
	if count > limit {
		return data, ErrCorrupt
	}
	prev := uint64(0)
	for ; count > 0; count-- {
		delta, n := binary.Uvarint(data)
		if n <= 0 {
			return data, ErrCorrupt
		}
		data = data[n:]
		if withLabels {
			label, n := binary.Uvarint(data)
			if n <= 0 || label > uint64(^graph.Label(0)) {
				return data, ErrCorrupt
			}
			data = data[n:]
		}
		if prev += delta; prev > uint64(^graph.NodeID(0)) {
			return data, ErrCorrupt
		}
	}
	return data, nil
}

// appendEdgeList decodes one edge list onto dst, returning the extended
// slice and the remaining bytes. The count guard rejects absurd values
// before anything is allocated: an edge costs at least 1 varint byte (its
// delta) and, in a list with labels, 2 (a label too), so a count exceeding
// len(data) or len(data)/2 cannot decode. Most deltas and labels fit one
// varint byte, so an edge of them is read without a call.
func appendEdgeList(dst []graph.Edge, data []byte, withLabels bool) ([]graph.Edge, []byte, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return dst, data, ErrCorrupt
	}
	data = data[n:]
	limit := uint64(len(data))
	if withLabels {
		limit /= 2
	}
	if count > limit {
		return dst, data, ErrCorrupt
	}
	n0 := len(dst)
	dst = slices.Grow(dst, int(count))[:n0+int(count)]
	out := dst[n0:]
	prev, j := uint64(0), 0
	for i := range out {
		var delta, label uint64
		switch {
		case !withLabels && j < len(data) && data[j] < 0x80:
			delta = uint64(data[j])
			j++
		case withLabels && j+1 < len(data) && data[j]|data[j+1] < 0x80:
			delta, label = uint64(data[j]), uint64(data[j+1])
			j += 2
		default:
			var n int
			if delta, n = binary.Uvarint(data[j:]); n <= 0 {
				return dst[:n0], data, ErrCorrupt
			}
			j += n
			if withLabels {
				if label, n = binary.Uvarint(data[j:]); n <= 0 || label > uint64(^graph.Label(0)) {
					return dst[:n0], data, ErrCorrupt
				}
				j += n
			}
		}
		prev += delta
		if prev > uint64(^graph.NodeID(0)) {
			return dst[:n0], data, ErrCorrupt
		}
		out[i] = graph.Edge{To: graph.NodeID(prev), Label: graph.Label(label)}
	}
	data = data[j:]
	return dst, data, nil
}

// Apply is the one definition of what a mutation does to the stored records
// it touches: both transports read the pre-images, call it, and write back
// the records it reports changed. u is the record of the mutation's Node and
// v that of its To (nil for an upsert); uFound and vFound say whether each
// was stored, an absent one coming in as its node's empty Record.
//
//   - MutUpsertNode sets u's label and always reports writeU: an upsert
//     rewrites the record, changed or not, so a retry re-asserts it on every
//     replica.
//   - MutAddEdge adds u->v to u.Out and to v.In, each side only where it is
//     missing, so a half-written edge left by a failed attempt heals on retry.
//   - MutRemoveEdge removes the lowest-labelled u->v edge from u.Out and the
//     same edge from v.In (v's lowest from u when u no longer has one). It is
//     query.ErrConflict when neither side had the edge.
//
// An edge mutation on an absent endpoint is query.ErrConflict. An error
// changes nothing.
func Apply(op query.MutOp, label graph.Label, u, v *Record, uFound, vFound bool) (writeU, writeV bool, err error) {
	switch op {
	case query.MutUpsertNode:
		u.NodeLabel = label
		return true, false, nil
	case query.MutAddEdge, query.MutRemoveEdge:
	default:
		return false, false, fmt.Errorf("%w: unknown mutation op %d", query.ErrBadQuery, uint8(op))
	}
	if !uFound || !vFound {
		missing := u.Node
		if uFound {
			missing = v.Node
		}
		return false, false, fmt.Errorf("%w: edge %d->%d: endpoint %d has no record", query.ErrConflict, u.Node, v.Node, missing)
	}
	if op == query.MutAddEdge {
		return ensureEdge(&u.Out, graph.Edge{To: v.Node, Label: label}), ensureEdge(&v.In, graph.Edge{To: u.Node, Label: label}), nil
	}
	i, j := graph.LowestEdge(u.Out, v.Node), graph.LowestEdge(v.In, u.Node)
	if i >= 0 {
		j = slices.Index(v.In, graph.Edge{To: u.Node, Label: u.Out[i].Label})
	}
	if i < 0 && j < 0 {
		return false, false, fmt.Errorf("%w: remove edge %d->%d: no such edge", query.ErrConflict, u.Node, v.Node)
	}
	if i >= 0 {
		u.Out = withoutEdge(u.Out, i)
	}
	if j >= 0 {
		v.In = withoutEdge(v.In, j)
	}
	return i >= 0, j >= 0, nil
}

// ensureEdge appends e to *es unless it is already there, reporting whether
// it appended. Decode shares one backing array between Out and In, but each
// list is capacity-capped, so the append can never clobber its sibling.
func ensureEdge(es *[]graph.Edge, e graph.Edge) bool {
	if slices.Contains(*es, e) {
		return false
	}
	*es = append(*es, e)
	return true
}

// withoutEdge returns es without its i-th edge, never writing to es's array:
// Decode shares one backing array between Out and In, so compacting in place
// would corrupt the sibling list. The capped prefix makes the append copy.
func withoutEdge(es []graph.Edge, i int) []graph.Edge {
	return append(es[:i:i], es[i+1:]...)
}

// RecordOf extracts node u's storage record from an in-memory graph.
func RecordOf(g *graph.Graph, u graph.NodeID) *Record {
	return &Record{
		Node:      u,
		NodeLabel: g.NodeLabelID(u),
		Out:       g.OutEdges(u),
		In:        g.InEdges(u),
	}
}

// Load encodes every live node of g into the store and returns the total
// encoded bytes. This is the bulk-load step that populates the storage tier
// before queries run.
func Load(st *kvstore.Store, g *graph.Graph) int64 {
	var total int64
	buf := make([]byte, 0, 1024)
	for id := graph.NodeID(0); id < g.MaxNodeID(); id++ {
		if !g.Exists(id) {
			continue
		}
		buf = Encode(buf[:0], RecordOf(g, id))
		st.Put(uint64(id), buf)
		total += int64(len(buf))
	}
	return total
}

// Tier is the storage-tier facade the query processors talk to: typed
// fetches of node records with byte accounting, backed by the KV store.
type Tier struct {
	store *kvstore.Store
}

// NewTier wraps a loaded store.
func NewTier(st *kvstore.Store) *Tier { return &Tier{store: st} }

// Fetch retrieves and decodes one node record. The bool reports presence.
func (t *Tier) Fetch(id graph.NodeID) (Record, bool, error) {
	v, ok := t.store.Get(uint64(id))
	if !ok {
		return Record{Node: id}, false, nil
	}
	r, err := Decode(id, v)
	return r, true, err
}

// OutEdges and InEdges make the tier a graph.Adjacency over the stored
// records, which the virtual-time engine's routing-side updates read: a
// node's edges as its record holds them, unbilled, none without a readable
// record.
func (t *Tier) OutEdges(u graph.NodeID) []graph.Edge {
	r, _, _ := t.Fetch(u)
	return r.Out
}

func (t *Tier) InEdges(u graph.NodeID) []graph.Edge {
	r, _, _ := t.Fetch(u)
	return r.In
}

// FetchResult is one element of a batched fetch.
type FetchResult struct {
	Record Record
	OK     bool
}

// fetchScratch holds the reusable planning and read buffers behind
// ReadBatchInto. Pooled so concurrent callers (one per experiment cell)
// never contend or share state.
type fetchScratch struct {
	keys []uint64
	plan kvstore.BatchPlan
	raw  [][]byte // FetchBatchInto's bytes, decoded into its dst
}

var scratchPool = sync.Pool{New: func() any { return new(fetchScratch) }}

// FetchBatchInto retrieves and decodes many node records: ReadBatchInto,
// then Decode of each, writing dst[i] for ids[i] (dst must have len >=
// len(ids)). Only the decoded edge lists are freshly allocated. A read
// error is returned before any decode error.
func (t *Tier) FetchBatchInto(ids []graph.NodeID, dst []FetchResult, onBatch func(b kvstore.Batch, bytes int64)) error {
	if len(dst) < len(ids) {
		return fmt.Errorf("gstore: FetchBatchInto dst len %d < %d ids", len(dst), len(ids))
	}
	sc := scratchPool.Get().(*fetchScratch)
	defer scratchPool.Put(sc)
	if cap(sc.raw) < len(ids) {
		sc.raw = make([][]byte, len(ids))
	}
	raw := sc.raw[:len(ids)]
	defer clear(raw) // the pool must not pin stored bytes
	err := t.ReadBatchInto(ids, graph.Both, raw, onBatch)
	for i, v := range raw {
		if v == nil {
			dst[i] = FetchResult{Record: Record{Node: ids[i]}}
			continue
		}
		r, derr := Decode(ids[i], v)
		if derr != nil && err == nil {
			err = derr
		}
		dst[i] = FetchResult{Record: r, OK: true}
	}
	return err
}

// ReadBatchInto retrieves many node records as a read in direction dir
// ships them (Project: the out-prefix of each for graph.Out, else the value
// storage holds), grouped by owning replica: dst[i] is what it read of
// ids[i], nil when nothing is stored (dst must have len >= len(ids)). The
// values alias the store's own and must not be modified; a caller keeping
// one past its next write should copy it. The keys go through one
// kvstore.Store.ReadBatch on pooled buffers, so the read sees one storage
// view and allocates nothing.
//
// After the read, onBatch observes each batch with the bytes it shipped; a
// failed batch is reported with bytes == -1 (a burned round trip, no data),
// so the engine can charge the discovery latency without crediting a
// transfer. A failed batch's keys have no reachable replica: the read
// returns an error wrapping kvstore.ErrNoLiveReplica, and their dst entries
// are nil, but they are unavailable, not absent.
func (t *Tier) ReadBatchInto(ids []graph.NodeID, dir graph.Direction, dst [][]byte, onBatch func(b kvstore.Batch, bytes int64)) error {
	if len(dst) < len(ids) {
		return fmt.Errorf("gstore: ReadBatchInto dst len %d < %d ids", len(dst), len(ids))
	}
	sc := scratchPool.Get().(*fetchScratch)
	defer scratchPool.Put(sc)
	if cap(sc.keys) < len(ids) {
		sc.keys = make([]uint64, len(ids))
	}
	keys := sc.keys[:len(ids)]
	for i, id := range ids {
		keys[i] = uint64(id)
	}
	var err error
	for _, b := range t.store.ReadBatch(&sc.plan, keys, dst[:len(ids)]) {
		bytes := int64(-1)
		if b.Err == nil {
			bytes = 0 // what the batch shipped
			for _, p := range b.Pos {
				if dst[p] != nil {
					dst[p] = Project(dst[p], dir)
					bytes += int64(len(dst[p]))
				}
			}
		} else if err == nil {
			err = fmt.Errorf("gstore: %d keys on server %d: %w", len(b.Keys), b.Server, b.Err)
		}
		if onBatch != nil {
			onBatch(b, bytes)
		}
	}
	return err
}
