package rpc

import (
	"encoding/binary"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/mquery"
	"repro/internal/query"
)

// Envelope field bitmaps. Each envelope encodes a presence bitmap followed
// by the present fields in bit order; an absent field decodes as its zero
// value. Both sides are op-agnostic — the handler layer, not the codec,
// decides which fields an op is allowed to use (exactly as with gob).
const (
	reqKey = 1 << iota
	reqValue
	reqKeys
	reqExec
	reqAddr
	reqProc
	reqTier
	reqVersion
	reqMuts
	reqOverrides
	reqValues
)

const (
	respValue = 1 << iota
	respFound
	respValues
	respResults
	respPartials
	respEpoch
	respProc
	respProcCache
	respStats
	respApplied
	respHot
)

// Response status byte: 0 = OK, 1 = not-OK without an error (unused by the
// current handlers, kept so OK round-trips exactly), 2+ = error codes. An
// error status is followed by the message string; the field bitmap and
// fields still follow, because some error responses carry payload (OpMutate
// reports Applied alongside the failure).
const (
	statusOK    = 0
	statusNotOK = 1
	statusErr   = 2 // statusErr + codeIndex
)

var wireCodes = [...]ErrCode{CodeBadQuery, CodeUnknownNode, CodeUnavailable, CodeConflict, CodeInternal}

func statusFor(resp *Response) byte {
	if resp.Err == "" {
		if resp.OK {
			return statusOK
		}
		return statusNotOK
	}
	for i, c := range wireCodes {
		if resp.Code == c {
			return byte(statusErr + i)
		}
	}
	return byte(statusErr + len(wireCodes) - 1) // internal
}

func codeForStatus(s byte) ErrCode {
	i := int(s) - statusErr
	if i < 0 || i >= len(wireCodes) {
		return CodeInternal
	}
	return wireCodes[i]
}

// peelTag splits the pipelining tag off a frame payload — the demux needs
// it to find the waiting call before the body is decoded.
func peelTag(payload []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, nil, false
	}
	return v, payload[n:], true
}

// encodeRequestFrame appends a complete request frame (length prefix
// included) to buf. deadline is the absolute context deadline in Unix
// nanoseconds (0 = none); it rides in the header so every op propagates it,
// and scratch is a reusable slab for the length-prefixed sub-encodings.
func encodeRequestFrame(buf []byte, tag uint64, req *Request, deadline int64, scratch *[]byte) []byte {
	buf = beginFrame(buf)
	buf = binary.AppendUvarint(buf, tag)
	buf = append(buf, byte(req.Op))
	if deadline < 0 {
		deadline = 0
	}
	buf = binary.AppendUvarint(buf, uint64(deadline))

	var bits uint64
	if req.Key != 0 {
		bits |= reqKey
	}
	if len(req.Value) > 0 {
		bits |= reqValue
	}
	if len(req.Keys) > 0 {
		bits |= reqKeys
	}
	if req.Exec != nil {
		bits |= reqExec
	}
	if req.Addr != "" {
		bits |= reqAddr
	}
	if req.Proc != 0 {
		bits |= reqProc
	}
	if req.Tier != "" {
		bits |= reqTier
	}
	if req.Version != 0 {
		bits |= reqVersion
	}
	if len(req.Muts) > 0 {
		bits |= reqMuts
	}
	if len(req.Overrides) > 0 {
		bits |= reqOverrides
	}
	if len(req.Values) > 0 {
		bits |= reqValues
	}
	buf = binary.AppendUvarint(buf, bits)

	if bits&reqKey != 0 {
		buf = binary.AppendUvarint(buf, req.Key)
	}
	if bits&reqValue != 0 {
		buf = appendBytes(buf, req.Value)
	}
	if bits&reqKeys != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(req.Keys)))
		for _, k := range req.Keys {
			buf = binary.AppendUvarint(buf, k)
		}
	}
	if bits&reqExec != 0 {
		buf = appendExec(buf, req.Exec, scratch)
	}
	if bits&reqAddr != 0 {
		buf = appendStr(buf, req.Addr)
	}
	if bits&reqProc != 0 {
		buf = binary.AppendVarint(buf, int64(req.Proc))
	}
	if bits&reqTier != 0 {
		buf = appendStr(buf, req.Tier)
	}
	if bits&reqVersion != 0 {
		buf = binary.AppendUvarint(buf, req.Version)
	}
	if bits&reqMuts != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(req.Muts)))
		for i := range req.Muts {
			m := &req.Muts[i]
			buf = append(buf, byte(m.Op))
			buf = binary.AppendUvarint(buf, uint64(m.Node))
			buf = binary.AppendUvarint(buf, uint64(m.To))
			buf = appendStr(buf, m.Label)
		}
	}
	if bits&reqOverrides != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(req.Overrides)))
		for k, slots := range req.Overrides {
			buf = binary.AppendUvarint(buf, k)
			buf = binary.AppendUvarint(buf, uint64(len(slots)))
			for _, s := range slots {
				buf = binary.AppendVarint(buf, int64(s))
			}
		}
	}
	if bits&reqValues != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(req.Values)))
		for _, v := range req.Values {
			buf = appendBytes(buf, v)
		}
	}
	return finishFrame(buf)
}

// decodeRequestInto decodes a request frame payload (tag already peeled)
// into req, overwriting every field but reusing req's slice capacity — the
// server side recycles Requests, so a steady-state decode allocates
// nothing. Overrides and the elements of Values are the exceptions: always a
// fresh map and fresh byte slices, one allocation per value, because the
// placement handler and the storage shard keep them after the request
// completes (and a shard that replaces one record must be able to free it
// alone).
func decodeRequestInto(payload []byte, req *Request) error {
	value := req.Value
	keys := req.Keys
	values := req.Values
	muts := req.Muts
	exec := req.Exec
	*req = Request{}
	d := wireReader{buf: payload}
	req.Op = Op(d.u8())
	req.Deadline = int64(d.uvarint())
	bits := d.uvarint()

	if bits&reqKey != 0 {
		req.Key = d.uvarint()
	}
	if bits&reqValue != 0 {
		req.Value = d.bytes(value)
	}
	if bits&reqKeys != 0 {
		n := d.count(maxFrame)
		keys = keys[:0]
		for i := 0; i < n; i++ {
			keys = append(keys, d.uvarint())
		}
		req.Keys = keys
	}
	if bits&reqExec != 0 {
		req.Exec = decExec(&d, exec, req.Deadline)
	}
	if bits&reqAddr != 0 {
		req.Addr = d.str()
	}
	if bits&reqProc != 0 {
		req.Proc = int(d.varint())
	}
	if bits&reqTier != 0 {
		req.Tier = d.str()
	}
	if bits&reqVersion != 0 {
		req.Version = d.uvarint()
	}
	if bits&reqMuts != 0 {
		n := d.count(maxFrame)
		muts = muts[:0]
		for i := 0; i < n; i++ {
			var m Mutation
			m.Op = query.MutOp(d.u8())
			m.Node = graph.NodeID(d.uvarint())
			m.To = graph.NodeID(d.uvarint())
			m.Label = d.str()
			muts = append(muts, m)
		}
		req.Muts = muts
	}
	if bits&reqOverrides != 0 {
		n := d.count(maxFrame)
		if n > 0 {
			req.Overrides = make(map[uint64][]int, n)
			for i := 0; i < n; i++ {
				k := d.uvarint()
				ns := d.count(maxFrame)
				slots := make([]int, ns)
				for j := range slots {
					slots[j] = int(d.varint())
				}
				if !d.err {
					req.Overrides[k] = slots
				}
			}
		}
	}
	if bits&reqValues != 0 {
		n := d.count(maxFrame)
		values = values[:0]
		for i := 0; i < n; i++ {
			values = append(values, d.bytes(nil))
		}
		req.Values = values
	}
	return d.finish("request")
}

// appendExec encodes the OpExecute payload. The deadline lives in the frame
// header, not here (decode mirrors it back into ExecRequest.Deadline).
func appendExec(buf []byte, ex *ExecRequest, scratch *[]byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ex.Queries)))
	for i := range ex.Queries {
		buf = appendQuery(buf, &ex.Queries[i], scratch)
	}
	buf = binary.AppendUvarint(buf, uint64(len(ex.Subtasks)))
	for i := range ex.Subtasks {
		tmp := ex.Subtasks[i].AppendBinary((*scratch)[:0])
		buf = appendBytes(buf, tmp)
		*scratch = tmp
	}
	return buf
}

// decExec decodes the OpExecute payload, reusing a recycled ExecRequest's
// struct and slice capacity when the caller hands one in (ex may be nil).
func decExec(d *wireReader, ex *ExecRequest, deadline int64) *ExecRequest {
	if ex == nil {
		ex = &ExecRequest{}
	}
	qs := ex.Queries[:0]
	sts := ex.Subtasks[:0]
	*ex = ExecRequest{Deadline: deadline}
	nq := d.count(maxFrame)
	for i := 0; i < nq; i++ {
		var q query.Query
		decQuery(d, &q)
		qs = append(qs, q)
	}
	ex.Queries = qs
	ns := d.count(maxFrame)
	for i := 0; i < ns; i++ {
		raw := d.raw()
		if d.err {
			break
		}
		var st mquery.Subtask
		if err := st.UnmarshalBinary(raw); err != nil {
			d.fail()
			break
		}
		sts = append(sts, st)
	}
	ex.Subtasks = sts
	return ex
}

func appendQuery(buf []byte, q *query.Query, scratch *[]byte) []byte {
	buf = binary.AppendVarint(buf, int64(q.ID))
	buf = append(buf, byte(q.Type))
	buf = binary.AppendUvarint(buf, uint64(q.Node))
	buf = binary.AppendUvarint(buf, uint64(q.Target))
	buf = binary.AppendVarint(buf, int64(q.Hops))
	buf = appendF64(buf, q.RestartProb)
	buf = appendStr(buf, q.CountLabel)
	buf = append(buf, byte(q.Dir))
	buf = binary.AppendVarint(buf, q.Seed)
	buf = binary.AppendVarint(buf, int64(q.Hotspot))
	buf = binary.AppendUvarint(buf, uint64(len(q.Anchors)))
	for _, a := range q.Anchors {
		buf = binary.AppendUvarint(buf, uint64(a))
	}
	if q.Pattern != nil {
		buf = append(buf, 1)
		tmp := q.Pattern.AppendBinary((*scratch)[:0])
		buf = appendBytes(buf, tmp)
		*scratch = tmp
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendVarint(buf, int64(q.VisitBudget))
	buf = binary.AppendVarint(buf, int64(q.K))
	return buf
}

func decQuery(d *wireReader, q *query.Query) {
	q.ID = int(d.varint())
	q.Type = query.Type(d.u8())
	q.Node = graph.NodeID(d.uvarint())
	q.Target = graph.NodeID(d.uvarint())
	q.Hops = int(d.varint())
	q.RestartProb = d.f64()
	q.CountLabel = d.str()
	q.Dir = graph.Direction(d.u8())
	q.Seed = d.varint()
	q.Hotspot = int(d.varint())
	na := d.count(maxFrame)
	if na > 0 {
		q.Anchors = make([]graph.NodeID, na)
		for i := range q.Anchors {
			q.Anchors[i] = graph.NodeID(d.uvarint())
		}
	}
	if d.bool() {
		raw := d.raw()
		if !d.err {
			var p query.Pattern
			if err := p.UnmarshalBinary(raw); err != nil {
				d.fail()
			} else {
				q.Pattern = &p
			}
		}
	}
	q.VisitBudget = int(d.varint())
	q.K = int(d.varint())
}

func appendResult(buf []byte, r *query.Result) []byte {
	buf = append(buf, byte(r.Type))
	buf = binary.AppendVarint(buf, int64(r.Count))
	buf = binary.AppendUvarint(buf, uint64(r.EndNode))
	buf = appendBool(buf, r.Reachable)
	buf = binary.AppendVarint(buf, int64(r.Matches))
	// Nearest travels only for KNearest results (Count doubles as its
	// length there); other kinds pay a single zero byte.
	nn := 0
	if r.Type == query.KNearest && r.Count > 0 && r.Count <= query.MaxKNearest {
		nn = r.Count
	}
	buf = append(buf, byte(nn))
	for i := 0; i < nn; i++ {
		buf = binary.AppendUvarint(buf, uint64(r.Nearest[i]))
	}
	return buf
}

func decResult(d *wireReader, r *query.Result) {
	r.Type = query.Type(d.u8())
	r.Count = int(d.varint())
	r.EndNode = graph.NodeID(d.uvarint())
	r.Reachable = d.bool()
	r.Matches = int(d.varint())
	nn := int(d.u8())
	if nn > query.MaxKNearest {
		d.fail()
		return
	}
	for i := 0; i < nn; i++ {
		r.Nearest[i] = graph.NodeID(d.uvarint())
	}
}

// encodeResponseFrame appends a complete response frame to buf.
func encodeResponseFrame(buf []byte, tag uint64, resp *Response, scratch *[]byte) []byte {
	buf = beginFrame(buf)
	buf = binary.AppendUvarint(buf, tag)
	status := statusFor(resp)
	buf = append(buf, status)
	if status >= statusErr {
		buf = appendStr(buf, resp.Err)
	}

	var bits uint64
	if len(resp.Value) > 0 {
		bits |= respValue
	}
	if resp.Found {
		bits |= respFound
	}
	if len(resp.Values) > 0 {
		bits |= respValues
	}
	if len(resp.Results) > 0 {
		bits |= respResults
	}
	if len(resp.Partials) > 0 {
		bits |= respPartials
	}
	if resp.Epoch != 0 {
		bits |= respEpoch
	}
	if resp.Proc != 0 {
		bits |= respProc
	}
	if resp.ProcCache != nil {
		bits |= respProcCache
	}
	if resp.Stats != nil {
		bits |= respStats
	}
	if resp.Applied != 0 {
		bits |= respApplied
	}
	if len(resp.Hot) > 0 {
		bits |= respHot
	}
	buf = binary.AppendUvarint(buf, bits)

	if bits&respValue != 0 {
		buf = appendBytes(buf, resp.Value)
	}
	if bits&respValues != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(resp.Values)))
		for i, v := range resp.Values {
			found := i < len(resp.Founds) && resp.Founds[i]
			buf = appendBool(buf, found)
			buf = appendBytes(buf, v)
		}
	}
	if bits&respResults != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(resp.Results)))
		for i := range resp.Results {
			buf = appendResult(buf, &resp.Results[i])
		}
	}
	if bits&respPartials != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(resp.Partials)))
		for i := range resp.Partials {
			tmp := resp.Partials[i].AppendBinary((*scratch)[:0])
			buf = appendBytes(buf, tmp)
			*scratch = tmp
		}
	}
	if bits&respEpoch != 0 {
		buf = binary.AppendUvarint(buf, resp.Epoch)
	}
	if bits&respProc != 0 {
		buf = binary.AppendVarint(buf, int64(resp.Proc))
	}
	if bits&respProcCache != 0 {
		buf = appendCache(buf, resp.ProcCache)
	}
	if bits&respStats != 0 {
		buf = appendStats(buf, resp.Stats)
	}
	if bits&respApplied != 0 {
		buf = binary.AppendVarint(buf, int64(resp.Applied))
	}
	if bits&respHot != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(resp.Hot)))
		for _, h := range resp.Hot {
			buf = binary.AppendUvarint(buf, h.Key)
			buf = binary.AppendVarint(buf, h.Reads)
		}
	}
	return finishFrame(buf)
}

// decodeResponseInto decodes a response frame payload (tag already peeled)
// into resp, reusing resp's slice capacity — the caller-owned-buffer half
// of the zero-alloc path.
func decodeResponseInto(payload []byte, resp *Response) error {
	value := resp.Value
	values := resp.Values
	founds := resp.Founds
	results := resp.Results
	partials := resp.Partials
	hot := resp.Hot
	procCache := resp.ProcCache
	*resp = Response{}

	d := wireReader{buf: payload}
	status := d.u8()
	switch status {
	case statusOK:
		resp.OK = true
	case statusNotOK:
	default:
		resp.Err = d.str()
		resp.Code = codeForStatus(status)
	}
	bits := d.uvarint()

	if bits&respValue != 0 {
		resp.Value = d.bytes(value)
	}
	resp.Found = bits&respFound != 0
	if bits&respValues != 0 {
		n := d.count(maxFrame)
		if values == nil {
			values = make([][]byte, 0, n)
		}
		values, founds = values[:0], founds[:0]
		for i := 0; i < n; i++ {
			founds = append(founds, d.bool())
			var dst []byte
			if i < cap(values) {
				dst = values[:i+1][i] // reuse the previous buffer in this slot
			}
			values = append(values, d.bytes(dst))
		}
		resp.Values, resp.Founds = values, founds
	}
	if bits&respResults != 0 {
		n := d.count(maxFrame)
		results = results[:0]
		for i := 0; i < n; i++ {
			var r query.Result
			decResult(&d, &r)
			results = append(results, r)
		}
		resp.Results = results
	}
	if bits&respPartials != 0 {
		n := d.count(maxFrame)
		partials = partials[:0]
		for i := 0; i < n; i++ {
			raw := d.raw()
			if d.err {
				break
			}
			var p mquery.Partial
			if err := p.UnmarshalBinary(raw); err != nil {
				d.fail()
				break
			}
			partials = append(partials, p)
		}
		resp.Partials = partials
	}
	if bits&respEpoch != 0 {
		resp.Epoch = d.uvarint()
	}
	if bits&respProc != 0 {
		resp.Proc = int(d.varint())
	}
	if bits&respProcCache != 0 {
		if procCache == nil {
			procCache = &metrics.CacheCounters{}
		}
		decCache(&d, procCache)
		resp.ProcCache = procCache
	}
	if bits&respStats != 0 {
		resp.Stats = decStats(&d)
	}
	if bits&respApplied != 0 {
		resp.Applied = int(d.varint())
	}
	if bits&respHot != 0 {
		n := d.count(maxFrame)
		hot = hot[:0]
		for i := 0; i < n; i++ {
			k := d.uvarint()
			r := d.varint()
			hot = append(hot, HotKey{Key: k, Reads: r})
		}
		resp.Hot = hot
	}
	return d.finish("response")
}

func appendCache(buf []byte, c *metrics.CacheCounters) []byte {
	buf = binary.AppendVarint(buf, c.Hits)
	buf = binary.AppendVarint(buf, c.Misses)
	buf = binary.AppendVarint(buf, c.Inserts)
	buf = binary.AppendVarint(buf, c.Evictions)
	buf = binary.AppendVarint(buf, c.Rejected)
	buf = binary.AppendVarint(buf, c.CurrentBytes)
	buf = binary.AppendVarint(buf, c.CapacityBytes)
	return buf
}

func decCache(d *wireReader, c *metrics.CacheCounters) {
	c.Hits = d.varint()
	c.Misses = d.varint()
	c.Inserts = d.varint()
	c.Evictions = d.varint()
	c.Rejected = d.varint()
	c.CurrentBytes = d.varint()
	c.CapacityBytes = d.varint()
}

func appendSummary(buf []byte, s *metrics.Summary) []byte {
	buf = binary.AppendVarint(buf, s.Count)
	buf = binary.AppendVarint(buf, s.Mean)
	buf = binary.AppendVarint(buf, s.P50)
	buf = binary.AppendVarint(buf, s.P95)
	buf = binary.AppendVarint(buf, s.P99)
	buf = binary.AppendVarint(buf, s.P999)
	buf = binary.AppendVarint(buf, s.Max)
	return buf
}

func decSummary(d *wireReader, s *metrics.Summary) {
	s.Count = d.varint()
	s.Mean = d.varint()
	s.P50 = d.varint()
	s.P95 = d.varint()
	s.P99 = d.varint()
	s.P999 = d.varint()
	s.Max = d.varint()
}

func appendStats(buf []byte, s *Stats) []byte {
	buf = appendStr(buf, s.Role)
	buf = binary.AppendVarint(buf, s.Requests)
	buf = binary.AppendVarint(buf, s.Keys)
	buf = binary.AppendVarint(buf, s.Reads)
	buf = binary.AppendVarint(buf, s.Hits)
	buf = binary.AppendVarint(buf, s.Misses)
	buf = binary.AppendVarint(buf, s.Executed)
	buf = appendBool(buf, s.Cache != nil)
	if s.Cache != nil {
		buf = appendCache(buf, s.Cache)
	}
	buf = appendStr(buf, s.Durable)
	buf = binary.AppendVarint(buf, s.WALBytes)
	buf = binary.AppendVarint(buf, s.WALRecords)
	buf = binary.AppendVarint(buf, s.Snapshots)
	buf = binary.AppendUvarint(buf, s.DurableVersion)
	buf = binary.AppendVarint(buf, s.ReplayedBytes)
	buf = appendBool(buf, s.Snapshot != nil)
	if s.Snapshot != nil {
		buf = appendSnapshot(buf, s.Snapshot)
	}
	return buf
}

func decStats(d *wireReader) *Stats {
	s := &Stats{}
	s.Role = d.str()
	s.Requests = d.varint()
	s.Keys = d.varint()
	s.Reads = d.varint()
	s.Hits = d.varint()
	s.Misses = d.varint()
	s.Executed = d.varint()
	if d.bool() {
		var cc metrics.CacheCounters
		decCache(d, &cc)
		s.Cache = &cc
	}
	s.Durable = d.str()
	s.WALBytes = d.varint()
	s.WALRecords = d.varint()
	s.Snapshots = d.varint()
	s.DurableVersion = d.uvarint()
	s.ReplayedBytes = d.varint()
	if d.bool() {
		s.Snapshot = decSnapshot(d)
	}
	return s
}

func appendSnapshot(buf []byte, sn *metrics.Snapshot) []byte {
	buf = appendStr(buf, sn.Transport)
	buf = appendStr(buf, sn.Policy)
	buf = appendStr(buf, sn.Strategy)
	buf = binary.AppendVarint(buf, int64(sn.Processors))
	buf = binary.AppendUvarint(buf, sn.Epoch)
	buf = binary.AppendVarint(buf, sn.Queries)
	buf = binary.AppendVarint(buf, sn.Mutations)
	buf = binary.AppendVarint(buf, sn.Stolen)
	buf = binary.AppendVarint(buf, sn.Diverted)
	buf = binary.AppendVarint(buf, sn.Reassigned)
	buf = binary.AppendUvarint(buf, uint64(len(sn.Epochs)))
	for i := range sn.Epochs {
		e := &sn.Epochs[i]
		buf = appendStr(buf, e.Tier)
		buf = binary.AppendUvarint(buf, e.Epoch)
		buf = binary.AppendVarint(buf, int64(e.Joined))
		buf = binary.AppendVarint(buf, int64(e.Left))
		buf = binary.AppendVarint(buf, int64(e.Failed))
		buf = binary.AppendVarint(buf, int64(e.Revived))
		buf = binary.AppendVarint(buf, e.Reassigned)
	}
	buf = appendCache(buf, &sn.Cache)
	buf = binary.AppendUvarint(buf, uint64(len(sn.PerProc)))
	for i := range sn.PerProc {
		p := &sn.PerProc[i]
		buf = binary.AppendVarint(buf, int64(p.Proc))
		buf = appendStr(buf, p.Status)
		buf = appendStr(buf, p.Addr)
		buf = binary.AppendVarint(buf, p.Assigned)
		buf = binary.AppendVarint(buf, p.Executed)
		buf = binary.AppendVarint(buf, p.Stolen)
		buf = binary.AppendVarint(buf, p.Diverted)
		buf = binary.AppendVarint(buf, p.QueueDepth)
		buf = appendCache(buf, &p.Cache)
		buf = binary.AppendVarint(buf, p.PendingInvalidations)
		buf = binary.AppendVarint(buf, p.InvalidationsDelivered)
	}
	buf = binary.AppendUvarint(buf, sn.StorageEpoch)
	buf = binary.AppendVarint(buf, int64(sn.StorageReplicas))
	buf = binary.AppendUvarint(buf, uint64(len(sn.PerStorage)))
	for i := range sn.PerStorage {
		m := &sn.PerStorage[i]
		buf = binary.AppendVarint(buf, int64(m.Slot))
		buf = appendStr(buf, m.Status)
		buf = appendStr(buf, m.Addr)
		buf = binary.AppendVarint(buf, m.Keys)
		buf = binary.AppendVarint(buf, m.Bytes)
		buf = binary.AppendVarint(buf, m.Gets)
		buf = binary.AppendVarint(buf, m.Misses)
		buf = binary.AppendVarint(buf, m.Failovers)
		buf = binary.AppendVarint(buf, m.RepairBytes)
		buf = appendStr(buf, m.Durable)
		buf = binary.AppendVarint(buf, m.WALBytes)
		buf = binary.AppendVarint(buf, m.WALRecords)
		buf = binary.AppendVarint(buf, m.Snapshots)
		buf = binary.AppendUvarint(buf, m.DurableVersion)
		buf = binary.AppendVarint(buf, m.ReplayedBytes)
		buf = binary.AppendVarint(buf, m.RecoverNanos)
	}
	buf = binary.AppendVarint(buf, sn.Placement.Cycles)
	buf = binary.AppendVarint(buf, sn.Placement.Planned)
	buf = binary.AppendVarint(buf, sn.Placement.Moved)
	buf = binary.AppendVarint(buf, sn.Placement.MovedBytes)
	buf = binary.AppendVarint(buf, sn.Placement.BudgetBytes)
	buf = binary.AppendVarint(buf, sn.Placement.SkippedBudget)
	buf = binary.AppendVarint(buf, sn.Placement.SkippedCold)
	buf = binary.AppendVarint(buf, sn.Placement.Overrides)
	buf = binary.AppendUvarint(buf, uint64(len(sn.PlacementLog)))
	for i := range sn.PlacementLog {
		m := &sn.PlacementLog[i]
		buf = binary.AppendUvarint(buf, m.Key)
		buf = binary.AppendVarint(buf, int64(m.From))
		buf = binary.AppendVarint(buf, int64(m.To))
		buf = binary.AppendVarint(buf, int64(m.Reader))
		buf = binary.AppendVarint(buf, m.Reads)
		buf = binary.AppendVarint(buf, m.Bytes)
	}
	buf = appendSummary(buf, &sn.RoutingNanos)
	buf = appendSummary(buf, &sn.QueueDepth)
	return buf
}

func decSnapshot(d *wireReader) *metrics.Snapshot {
	sn := &metrics.Snapshot{}
	sn.Transport = d.str()
	sn.Policy = d.str()
	sn.Strategy = d.str()
	sn.Processors = int(d.varint())
	sn.Epoch = d.uvarint()
	sn.Queries = d.varint()
	sn.Mutations = d.varint()
	sn.Stolen = d.varint()
	sn.Diverted = d.varint()
	sn.Reassigned = d.varint()
	if n := d.count(maxFrame); n > 0 {
		sn.Epochs = make([]metrics.EpochEvent, n)
		for i := range sn.Epochs {
			e := &sn.Epochs[i]
			e.Tier = d.str()
			e.Epoch = d.uvarint()
			e.Joined = int(d.varint())
			e.Left = int(d.varint())
			e.Failed = int(d.varint())
			e.Revived = int(d.varint())
			e.Reassigned = d.varint()
		}
	}
	decCache(d, &sn.Cache)
	if n := d.count(maxFrame); n > 0 {
		sn.PerProc = make([]metrics.ProcCounters, n)
		for i := range sn.PerProc {
			p := &sn.PerProc[i]
			p.Proc = int(d.varint())
			p.Status = d.str()
			p.Addr = d.str()
			p.Assigned = d.varint()
			p.Executed = d.varint()
			p.Stolen = d.varint()
			p.Diverted = d.varint()
			p.QueueDepth = d.varint()
			decCache(d, &p.Cache)
			p.PendingInvalidations = d.varint()
			p.InvalidationsDelivered = d.varint()
		}
	}
	sn.StorageEpoch = d.uvarint()
	sn.StorageReplicas = int(d.varint())
	if n := d.count(maxFrame); n > 0 {
		sn.PerStorage = make([]metrics.StorageCounters, n)
		for i := range sn.PerStorage {
			m := &sn.PerStorage[i]
			m.Slot = int(d.varint())
			m.Status = d.str()
			m.Addr = d.str()
			m.Keys = d.varint()
			m.Bytes = d.varint()
			m.Gets = d.varint()
			m.Misses = d.varint()
			m.Failovers = d.varint()
			m.RepairBytes = d.varint()
			m.Durable = d.str()
			m.WALBytes = d.varint()
			m.WALRecords = d.varint()
			m.Snapshots = d.varint()
			m.DurableVersion = d.uvarint()
			m.ReplayedBytes = d.varint()
			m.RecoverNanos = d.varint()
		}
	}
	sn.Placement.Cycles = d.varint()
	sn.Placement.Planned = d.varint()
	sn.Placement.Moved = d.varint()
	sn.Placement.MovedBytes = d.varint()
	sn.Placement.BudgetBytes = d.varint()
	sn.Placement.SkippedBudget = d.varint()
	sn.Placement.SkippedCold = d.varint()
	sn.Placement.Overrides = d.varint()
	if n := d.count(maxFrame); n > 0 {
		sn.PlacementLog = make([]metrics.MoveEvent, n)
		for i := range sn.PlacementLog {
			m := &sn.PlacementLog[i]
			m.Key = d.uvarint()
			m.From = int(d.varint())
			m.To = int(d.varint())
			m.Reader = int(d.varint())
			m.Reads = d.varint()
			m.Bytes = d.varint()
		}
	}
	decSummary(d, &sn.RoutingNanos)
	decSummary(d, &sn.QueueDepth)
	return sn
}
