package rpc

import (
	"encoding/binary"
	"fmt"
	"reflect"

	"repro/internal/graph"
	"repro/internal/mquery"
	"repro/internal/query"
	"repro/internal/wire"
)

// Envelope field bitmaps. Each envelope encodes a presence bitmap followed
// by the present fields in bit order; an absent field decodes as its zero
// value. Both sides are op-agnostic — the handler layer, not the codec,
// decides which fields an op is allowed to use (exactly as with gob). A
// retired field's bit stays reserved, and a decoder refuses a bit it does not
// know: a peer that still sends a retired field fails loudly, not misparsed.
const (
	_ = 1 << iota // retired: the single key of the old OpGet / OpPut / OpDrop
	_             // retired: the single value of the old OpPut
	reqKeys
	reqExec
	reqAddr
	reqProc
	reqTier
	reqVersion
	reqMuts
	_ // retired: the placement-override table of the old OpPlacement
	reqValues
	reqOutOnly // no payload: the bit is the field
	reqKnown   = reqKeys | reqExec | reqAddr | reqProc | reqTier | reqVersion | reqMuts | reqValues | reqOutOnly
)

const (
	_ = 1 << iota // retired: the single value of the old OpGet
	_             // retired: the found flag of the old OpGet / OpDrop
	respValues
	respResults
	respPartials
	respEpoch
	respProc
	respStats
	respApplied
	_         // retired: the hot-record list of the old OpHeat
	respKnown = respValues | respResults | respPartials | respEpoch | respProc | respStats | respApplied
)

// Response status byte: 0 = OK, 1 = not-OK without an error (unused by the
// current handlers, kept so OK round-trips exactly), 2+ = error codes. An
// error status is followed by the message string; the field bitmap and
// fields still follow, because some error responses carry payload (OpMutate
// reports Applied alongside the failure).
const (
	statusOK    = 0
	statusNotOK = 1
	statusErr   = 2 // statusErr + the code's row in errorCodes
)

func statusFor(resp *Response) byte {
	if resp.Err == "" {
		if resp.OK {
			return statusOK
		}
		return statusNotOK
	}
	return byte(statusErr + codeRow(resp.Code))
}

func codeForStatus(s byte) ErrCode {
	i := int(s) - statusErr
	if i < 0 || i >= len(errorCodes) {
		return CodeInternal
	}
	return errorCodes[i].code
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
	if len(req.Values) > 0 {
		bits |= reqValues
	}
	if req.OutOnly {
		bits |= reqOutOnly
	}
	buf = binary.AppendUvarint(buf, bits)

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
		buf = wire.AppendStr(buf, req.Addr)
	}
	if bits&reqProc != 0 {
		buf = binary.AppendVarint(buf, int64(req.Proc))
	}
	if bits&reqTier != 0 {
		buf = wire.AppendStr(buf, req.Tier)
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
			buf = wire.AppendStr(buf, m.Label)
		}
	}
	if bits&reqValues != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(req.Values)))
		for _, v := range req.Values {
			buf = wire.AppendBytes(buf, v)
		}
	}
	return finishFrame(buf)
}

// decodeRequestInto decodes a request frame payload (tag already peeled)
// into req, overwriting every field but reusing req's slice capacity — the
// server side recycles Requests, so a steady-state decode allocates
// nothing. The values of an OpMultiPut are copied out of the payload, which
// the connection reuses, into one buffer the request keeps; the storage
// shard copies what it stores.
func decodeRequestInto(payload []byte, req *Request) error {
	keys := req.Keys
	values, valBuf := req.Values, req.valBuf
	muts := req.Muts
	exec := req.Exec
	*req = Request{valBuf: valBuf}
	d := wire.NewReader(payload)
	req.Op = Op(d.U8())
	req.Deadline = int64(d.Uvarint())
	bits := d.Uvarint()
	if bits&^reqKnown != 0 {
		return fmt.Errorf("rpc: request: unknown field bits %#x", bits&^reqKnown)
	}

	if bits&reqKeys != 0 {
		n := d.Count(maxFrame)
		keys = keys[:0]
		for i := 0; i < n; i++ {
			keys = append(keys, d.Uvarint())
		}
		req.Keys = keys
	}
	if bits&reqExec != 0 {
		req.Exec = decExec(&d, exec)
	}
	if bits&reqAddr != 0 {
		req.Addr = d.Str(maxWireStr)
	}
	if bits&reqProc != 0 {
		req.Proc = int(d.Varint())
	}
	if bits&reqTier != 0 {
		req.Tier = d.Str(maxWireStr)
	}
	if bits&reqVersion != 0 {
		req.Version = d.Uvarint()
	}
	if bits&reqMuts != 0 {
		n := d.Count(maxFrame)
		muts = muts[:0]
		for i := 0; i < n; i++ {
			var m query.Mutation
			m.Op = query.MutOp(d.U8())
			m.Node = graph.NodeID(d.Uvarint())
			m.To = graph.NodeID(d.Uvarint())
			m.Label = d.Str(maxWireStr)
			muts = append(muts, m)
		}
		req.Muts = muts
	}
	if bits&reqValues != 0 {
		n := d.Count(maxFrame)
		values = values[:0]
		total := 0
		for i := 0; i < n; i++ {
			v := d.Raw()
			values = append(values, v)
			total += len(v)
		}
		// Sized up front, so no value moves while the next is copied.
		if cap(valBuf) < total {
			valBuf = make([]byte, 0, total)
		}
		valBuf = valBuf[:0]
		for i, v := range values {
			valBuf = append(valBuf, v...)
			values[i] = valBuf[len(valBuf)-len(v) : len(valBuf) : len(valBuf)]
		}
		req.Values, req.valBuf = values, valBuf
	}
	req.OutOnly = bits&reqOutOnly != 0
	return d.Finish("rpc: request")
}

// appendExec encodes the OpExecute payload. The deadline lives in the frame
// header, not here.
func appendExec(buf []byte, ex *ExecRequest, scratch *[]byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ex.Queries)))
	for i := range ex.Queries {
		buf = appendQuery(buf, &ex.Queries[i], scratch)
	}
	buf = binary.AppendUvarint(buf, uint64(len(ex.Subtasks)))
	for i := range ex.Subtasks {
		tmp := ex.Subtasks[i].AppendBinary((*scratch)[:0])
		buf = wire.AppendBytes(buf, tmp)
		*scratch = tmp
	}
	return buf
}

// decExec decodes the OpExecute payload, reusing a recycled ExecRequest's
// struct and slice capacity when the caller hands one in (ex may be nil).
func decExec(d *wire.Reader, ex *ExecRequest) *ExecRequest {
	if ex == nil {
		ex = &ExecRequest{}
	}
	qs := ex.Queries[:0]
	sts := ex.Subtasks[:0]
	*ex = ExecRequest{}
	nq := d.Count(maxFrame)
	for i := 0; i < nq; i++ {
		var q query.Query
		decQuery(d, &q)
		qs = append(qs, q)
	}
	ex.Queries = qs
	ns := d.Count(maxFrame)
	for i := 0; i < ns; i++ {
		raw := d.Raw()
		if d.Failed() {
			break
		}
		var st mquery.Subtask
		if err := st.UnmarshalBinary(raw); err != nil {
			d.Fail()
			break
		}
		sts = append(sts, st)
	}
	ex.Subtasks = sts
	return ex
}

// Query and result field bitmaps. A query travels as Type, Node, Hops and
// Dir, then a bitmap over the fields below and the present ones in bit
// order; appendQuery writes q.Reads(), so a field the kind never reads
// costs nothing, and neither does a zero one. The point kinds' fields sit in
// the bitmap's first uvarint byte. A result travels as Type, then a bitmap
// over its payload fields and the present ones: Reachable is its bit alone,
// Nearest its length up to the last set entry and those entries. A decoder
// refuses a bit it does not know.
const (
	qID = 1 << iota
	qHotspot
	qTarget
	qSeed
	qRestartProb
	qCountLabel
	qK
	qAnchors
	qPattern
	qVisitBudget
	qKnown = 1<<iota - 1
)

const (
	resCount = 1 << iota
	resEndNode
	resReachable
	resMatches
	resNearest
	resKnown = 1<<iota - 1
)

func appendQuery(buf []byte, q *query.Query, scratch *[]byte) []byte {
	p := q.Reads()
	buf = append(buf, byte(p.Type))
	buf = binary.AppendUvarint(buf, uint64(p.Node))
	buf = binary.AppendVarint(buf, int64(p.Hops))
	buf = append(buf, byte(p.Dir))
	var bits uint64
	if p.ID != 0 {
		bits |= qID
	}
	if p.Hotspot != 0 {
		bits |= qHotspot
	}
	if p.Target != 0 {
		bits |= qTarget
	}
	if p.Seed != 0 {
		bits |= qSeed
	}
	if p.RestartProb != 0 {
		bits |= qRestartProb
	}
	if p.CountLabel != "" {
		bits |= qCountLabel
	}
	if p.K != 0 {
		bits |= qK
	}
	if len(p.Anchors) > 0 {
		bits |= qAnchors
	}
	if p.Pattern != nil {
		bits |= qPattern
	}
	if p.VisitBudget != 0 {
		bits |= qVisitBudget
	}
	buf = binary.AppendUvarint(buf, bits)
	if bits&qID != 0 {
		buf = binary.AppendVarint(buf, int64(p.ID))
	}
	if bits&qHotspot != 0 {
		buf = binary.AppendVarint(buf, int64(p.Hotspot))
	}
	if bits&qTarget != 0 {
		buf = binary.AppendUvarint(buf, uint64(p.Target))
	}
	if bits&qSeed != 0 {
		buf = binary.AppendVarint(buf, p.Seed)
	}
	if bits&qRestartProb != 0 {
		buf = wire.AppendF64(buf, p.RestartProb)
	}
	if bits&qCountLabel != 0 {
		buf = wire.AppendStr(buf, p.CountLabel)
	}
	if bits&qK != 0 {
		buf = binary.AppendVarint(buf, int64(p.K))
	}
	if bits&qAnchors != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(p.Anchors)))
		for _, a := range p.Anchors {
			buf = binary.AppendUvarint(buf, uint64(a))
		}
	}
	if bits&qPattern != 0 {
		tmp := p.Pattern.AppendBinary((*scratch)[:0])
		buf = wire.AppendBytes(buf, tmp)
		*scratch = tmp
	}
	if bits&qVisitBudget != 0 {
		buf = binary.AppendVarint(buf, int64(p.VisitBudget))
	}
	return buf
}

func decQuery(d *wire.Reader, q *query.Query) {
	q.Type = query.Type(d.U8())
	q.Node = graph.NodeID(d.Uvarint())
	q.Hops = int(d.Varint())
	q.Dir = graph.Direction(d.U8())
	bits := d.Uvarint()
	if bits&^qKnown != 0 {
		d.Fail()
		return
	}
	if bits&qID != 0 {
		q.ID = int(d.Varint())
	}
	if bits&qHotspot != 0 {
		q.Hotspot = int(d.Varint())
	}
	if bits&qTarget != 0 {
		q.Target = graph.NodeID(d.Uvarint())
	}
	if bits&qSeed != 0 {
		q.Seed = d.Varint()
	}
	if bits&qRestartProb != 0 {
		q.RestartProb = d.F64()
	}
	if bits&qCountLabel != 0 {
		q.CountLabel = d.Str(maxWireStr)
	}
	if bits&qK != 0 {
		q.K = int(d.Varint())
	}
	if bits&qAnchors != 0 {
		if na := d.Count(maxFrame); na > 0 {
			q.Anchors = make([]graph.NodeID, na)
			for i := range q.Anchors {
				q.Anchors[i] = graph.NodeID(d.Uvarint())
			}
		}
	}
	if bits&qPattern != 0 {
		raw := d.Raw()
		if !d.Failed() {
			var p query.Pattern
			if err := p.UnmarshalBinary(raw); err != nil {
				d.Fail()
			} else {
				q.Pattern = &p
			}
		}
	}
	if bits&qVisitBudget != 0 {
		q.VisitBudget = int(d.Varint())
	}
}

func appendResult(buf []byte, r *query.Result) []byte {
	buf = append(buf, byte(r.Type))
	nn := len(r.Nearest)
	for nn > 0 && r.Nearest[nn-1] == 0 {
		nn--
	}
	var bits uint64
	if r.Count != 0 {
		bits |= resCount
	}
	if r.EndNode != 0 {
		bits |= resEndNode
	}
	if r.Reachable {
		bits |= resReachable
	}
	if r.Matches != 0 {
		bits |= resMatches
	}
	if nn > 0 {
		bits |= resNearest
	}
	buf = binary.AppendUvarint(buf, bits)
	if bits&resCount != 0 {
		buf = binary.AppendVarint(buf, int64(r.Count))
	}
	if bits&resEndNode != 0 {
		buf = binary.AppendUvarint(buf, uint64(r.EndNode))
	}
	if bits&resMatches != 0 {
		buf = binary.AppendVarint(buf, int64(r.Matches))
	}
	if bits&resNearest != 0 {
		buf = append(buf, byte(nn))
		for _, v := range r.Nearest[:nn] {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	return buf
}

func decResult(d *wire.Reader, r *query.Result) {
	r.Type = query.Type(d.U8())
	bits := d.Uvarint()
	if bits&^resKnown != 0 {
		d.Fail()
		return
	}
	if bits&resCount != 0 {
		r.Count = int(d.Varint())
	}
	if bits&resEndNode != 0 {
		r.EndNode = graph.NodeID(d.Uvarint())
	}
	r.Reachable = bits&resReachable != 0
	if bits&resMatches != 0 {
		r.Matches = int(d.Varint())
	}
	if bits&resNearest != 0 {
		nn := int(d.U8())
		if nn > query.MaxKNearest {
			d.Fail()
			return
		}
		for i := 0; i < nn; i++ {
			r.Nearest[i] = graph.NodeID(d.Uvarint())
		}
	}
}

// encodeResponseFrame appends a complete response frame to buf.
func encodeResponseFrame(buf []byte, tag uint64, resp *Response, scratch *[]byte) []byte {
	buf = beginFrame(buf)
	buf = binary.AppendUvarint(buf, tag)
	status := statusFor(resp)
	buf = append(buf, status)
	if status >= statusErr {
		buf = wire.AppendStr(buf, resp.Err)
	}

	var bits uint64
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
	if resp.Stats != nil {
		bits |= respStats
	}
	if resp.Applied != 0 {
		bits |= respApplied
	}
	buf = binary.AppendUvarint(buf, bits)

	if bits&respValues != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(resp.Values)))
		for i, v := range resp.Values {
			found := i < len(resp.Founds) && resp.Founds[i]
			buf = wire.AppendBool(buf, found)
			buf = wire.AppendBytes(buf, v)
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
			buf = wire.AppendBytes(buf, tmp)
			*scratch = tmp
		}
	}
	if bits&respEpoch != 0 {
		buf = binary.AppendUvarint(buf, resp.Epoch)
	}
	if bits&respProc != 0 {
		buf = binary.AppendVarint(buf, int64(resp.Proc))
	}
	if bits&respStats != 0 {
		buf = appendFields(buf, reflect.ValueOf(resp.Stats).Elem())
	}
	if bits&respApplied != 0 {
		buf = binary.AppendVarint(buf, int64(resp.Applied))
	}
	return finishFrame(buf)
}

// decodeResponseInto decodes a response frame payload (tag already peeled)
// into resp, reusing resp's slice capacity — the caller-owned-buffer half
// of the zero-alloc path.
func decodeResponseInto(payload []byte, resp *Response) error {
	values := resp.Values
	founds := resp.Founds
	results := resp.Results
	partials := resp.Partials
	*resp = Response{}

	d := wire.NewReader(payload)
	status := d.U8()
	switch status {
	case statusOK:
		resp.OK = true
	case statusNotOK:
	default:
		resp.Err = d.Str(maxWireStr)
		resp.Code = codeForStatus(status)
	}
	bits := d.Uvarint()
	if bits&^respKnown != 0 {
		return fmt.Errorf("rpc: response: unknown field bits %#x", bits&^respKnown)
	}

	if bits&respValues != 0 {
		n := d.Count(maxFrame)
		if values == nil {
			values = make([][]byte, 0, n)
		}
		values, founds = values[:0], founds[:0]
		for i := 0; i < n; i++ {
			founds = append(founds, d.Bool())
			var dst []byte
			if i < cap(values) {
				dst = values[:i+1][i] // reuse the previous buffer in this slot
			}
			values = append(values, d.Bytes(dst))
		}
		resp.Values, resp.Founds = values, founds
	}
	if bits&respResults != 0 {
		n := d.Count(maxFrame)
		results = results[:0]
		for i := 0; i < n; i++ {
			var r query.Result
			decResult(&d, &r)
			results = append(results, r)
		}
		resp.Results = results
	}
	if bits&respPartials != 0 {
		n := d.Count(maxFrame)
		partials = partials[:0]
		for i := 0; i < n; i++ {
			raw := d.Raw()
			if d.Failed() {
				break
			}
			var p mquery.Partial
			if err := p.UnmarshalBinary(raw); err != nil {
				d.Fail()
				break
			}
			partials = append(partials, p)
		}
		resp.Partials = partials
	}
	if bits&respEpoch != 0 {
		resp.Epoch = d.Uvarint()
	}
	if bits&respProc != 0 {
		resp.Proc = int(d.Varint())
	}
	if bits&respStats != 0 {
		resp.Stats = &Stats{}
		decFields(&d, reflect.ValueOf(resp.Stats).Elem())
	}
	if bits&respApplied != 0 {
		resp.Applied = int(d.Varint())
	}
	return d.Finish("rpc: response")
}

// appendFields and decFields are the codec of the stats payload — Stats and
// the metrics.Snapshot it carries — and of nothing else: an OpStats reply is
// off every query path, so it can afford reflection, and its structs are
// their own schema. A value travels as its fields in declaration order:
// signed integers as varints, uint64 as a uvarint, a slice as its count plus
// its elements, a pointer as a presence bool plus its target, a struct as its
// fields. So a new counter is one struct field, on both transports at once —
// appended after the existing fields of its struct, because the order is the
// wire form. A kind outside that list has no wire form:
// TestStatsSchemaIsEncodable refuses it before a daemon could meet it.
func appendFields(buf []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(buf, v.Int())
	case reflect.Uint64:
		return binary.AppendUvarint(buf, v.Uint())
	case reflect.String:
		return wire.AppendStr(buf, v.String())
	case reflect.Bool:
		return wire.AppendBool(buf, v.Bool())
	case reflect.Slice:
		buf = binary.AppendUvarint(buf, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			buf = appendFields(buf, v.Index(i))
		}
		return buf
	case reflect.Pointer:
		buf = wire.AppendBool(buf, !v.IsNil())
		if v.IsNil() {
			return buf
		}
		return appendFields(buf, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			buf = appendFields(buf, v.Field(i))
		}
		return buf
	}
	panic("rpc: stats payload has no wire form for a " + v.Kind().String())
}

// decFields decodes what appendFields wrote into the settable v. An empty
// slice and an absent pointer stay nil; a count is bounded like every other
// count in a frame, by maxFrame and by the bytes left.
func decFields(d *wire.Reader, v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(d.Varint())
	case reflect.Uint64:
		v.SetUint(d.Uvarint())
	case reflect.String:
		v.SetString(d.Str(maxWireStr))
	case reflect.Bool:
		v.SetBool(d.Bool())
	case reflect.Slice:
		if n := d.Count(maxFrame); n > 0 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				decFields(d, v.Index(i))
			}
		}
	case reflect.Pointer:
		if d.Bool() {
			v.Set(reflect.New(v.Type().Elem()))
			decFields(d, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			decFields(d, v.Field(i))
		}
	default:
		d.Fail()
	}
}
