package remote

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"unsafe"

	"dosgi/internal/obs"
)

// FuzzDecodeFrame feeds arbitrary bytes to both frame decoders. Neither
// may panic; they accept exactly the same frames and decode them to equal
// values, the borrowing decoder's values staying intact once retained and
// the frame overwritten; and every accepted request or response encodes
// again and decodes to equal values.
func FuzzDecodeFrame(f *testing.F) {
	for _, req := range []*Request{
		{Corr: 1, Service: "echo", Method: "Upper", Args: []any{"hello"}},
		{Corr: 2, Service: "echo", Method: "Add", Args: []any{int64(40), int64(-2)}},
		{Corr: 3, Service: "svc", Method: "All", Args: []any{nil, true, false, 2.5, math.NaN(), []byte{0, 1, 0xff}, []any{"x", []any{int64(7)}}}},
		{Corr: 4, Service: "svc.greeter", Method: "Greet", Args: []any{"world"},
			Trace: obs.TraceContext{TraceID: 0x8c736ec100000001, SpanID: 2, Hop: 3}},
		{Corr: 5, Service: "svc", Method: "Tokened", Token: 0x9e3779b97f4a7c15},
		{Corr: 6, Service: "svc", Method: "Both", Trace: obs.TraceContext{TraceID: 9, SpanID: 8, Hop: 1}, Token: 77},
	} {
		frame, err := EncodeRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	for _, resp := range []*Response{
		{Corr: 1, Status: StatusOK, Results: []any{"HELLO"}},
		{Corr: 2, Status: StatusAppError, Err: "boom"},
		{Corr: 3, Status: StatusUnavailable, Err: "draining"},
		{Corr: 4, Status: StatusOK, Results: []any{[]byte("payload"), int64(math.MinInt64), math.Copysign(0, -1), []any{}}},
	} {
		frame, err := EncodeResponse(resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// docs/PROTOCOL.md §1 and §7 negatives: empty frame, unknown kind, a
	// batch frame (not a single frame), a list nested past the depth
	// limit, a trace trailer that stops mid-varint, and a string longer
	// than the frame.
	traced, err := EncodeRequest(&Request{Corr: 21, Service: "echo", Method: "Upper", Args: []any{"x"}})
	if err != nil {
		f.Fatal(err)
	}
	overDepth := []byte{frameRequest}
	overDepth = binary.BigEndian.AppendUint64(overDepth, 23)
	overDepth = appendString(overDepth, "echo")
	overDepth = appendString(overDepth, "Echo")
	overDepth = binary.AppendUvarint(overDepth, 1)
	for i := 0; i < maxValueDepth+2; i++ {
		overDepth = append(overDepth, tagList, 1)
	}
	overDepth = append(overDepth, tagList, 0)
	for _, frame := range [][]byte{
		{},
		{0x7f, 0x00, 0x01},
		{frameBatch, 1, 1, frameRequest},
		{frameHello},
		{frameHelloAck, featBatch},
		overDepth,
		append(traced, 0x80),
		{frameResponse, 0, 0, 0, 0, 0, 0, 0, 1, StatusOK, 0xff, 0xff, 0x03},
	} {
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		req, resp, kind, err := DecodeFrame(data)
		frame := append([]byte(nil), data...)
		breq, bresp, bkind, berr := DecodeFrameBorrowing(frame)
		if (err == nil) != (berr == nil) || kind != bkind {
			t.Fatalf("copying decode: kind %#x err %v; borrowing decode: kind %#x err %v", kind, err, bkind, berr)
		}
		if err != nil {
			return
		}
		if (req == nil) != (breq == nil) || (resp == nil) != (bresp == nil) {
			t.Fatalf("decoders disagree on the frame body: %v/%v vs %v/%v", req, resp, breq, bresp)
		}
		if breq != nil {
			breq.Service = strings.Clone(breq.Service)
			breq.Method = strings.Clone(breq.Method)
			for i := range breq.Args {
				breq.Args[i] = RetainValue(breq.Args[i])
			}
		}
		bresp.Retain()
		for i := range frame {
			frame[i] = 0xDB
		}
		if req != nil {
			if !requestsEqual(req, breq) {
				t.Fatalf("borrowed request %+v, copied %+v", breq, req)
			}
			again, err := EncodeRequest(req)
			if err != nil {
				t.Fatalf("re-encoding accepted request %+v: %v", req, err)
			}
			req2, _, _, err := DecodeFrame(again)
			if err != nil || !requestsEqual(req, req2) {
				t.Fatalf("request %+v re-decoded as %+v (%v)", req, req2, err)
			}
		}
		if resp != nil {
			if !responsesEqual(resp, bresp) {
				t.Fatalf("borrowed response %+v, copied %+v", bresp, resp)
			}
			again, err := EncodeResponse(resp)
			if err != nil {
				t.Fatalf("re-encoding accepted response %+v: %v", resp, err)
			}
			_, resp2, _, err := DecodeFrame(again)
			if err != nil || !responsesEqual(resp, resp2) {
				t.Fatalf("response %+v re-decoded as %+v (%v)", resp, resp2, err)
			}
		}
	})
}

func requestsEqual(a, b *Request) bool {
	return a.Corr == b.Corr && a.Service == b.Service && a.Method == b.Method &&
		a.Trace == b.Trace && a.Token == b.Token && valuesEqual(a.Args, b.Args)
}

func responsesEqual(a, b *Response) bool {
	return a.Corr == b.Corr && a.Status == b.Status && a.Err == b.Err && valuesEqual(a.Results, b.Results)
}

// valuesEqual compares decoded wire values; floats by their bits, so a
// NaN equals itself.
func valuesEqual(a, b any) bool {
	switch av := a.(type) {
	case float64:
		bv, ok := b.(float64)
		return ok && math.Float64bits(av) == math.Float64bits(bv)
	case []byte:
		bv, ok := b.([]byte)
		return ok && bytes.Equal(av, bv)
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !valuesEqual(av[i], bv[i]) {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}

// FuzzDecodeBatch feeds arbitrary bytes to the §2.1 batch decoder. It may
// not panic; an accepted batch holds 1 to maxBatchInner request frames,
// each a slice of the input in order, and writeBatchFrame wraps them
// again into a frame that decodes to the same frames.
func FuzzDecodeBatch(f *testing.F) {
	var reqs [][]byte
	for i, req := range []*Request{
		{Corr: 1, Service: "echo", Method: "Upper", Args: []any{"a"}},
		{Corr: 2, Service: "echo", Method: "Add", Args: []any{int64(40), int64(2)}, Token: 0xbeef},
		{Corr: 3, Service: "svc", Method: "Traced", Trace: obs.TraceContext{TraceID: 9, SpanID: 8, Hop: 1}},
	} {
		frame, err := EncodeRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		reqs = append(reqs, frame)
		batch, err := encodeBatch(reqs[:i+1])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(batch)
	}
	good, err := encodeBatch(reqs)
	if err != nil {
		f.Fatal(err)
	}
	resp, err := EncodeResponse(&Response{Corr: 9, Status: StatusOK})
	if err != nil {
		f.Fatal(err)
	}
	// docs/PROTOCOL.md §2.1 and §7 negatives: zero count, a count with no
	// frames, a count past 1024, a truncated inner frame, trailing bytes,
	// a nested batch, a response inside, and a frame that is no batch.
	for _, frame := range [][]byte{
		{frameBatch, 0x00},
		{frameBatch, 0x02},
		binary.AppendUvarint([]byte{frameBatch}, maxBatchInner+1),
		good[:len(good)-3],
		append(append([]byte(nil), good...), 0x01, 0x02),
		appendUvarintLen([]byte{frameBatch, 0x01}, good),
		appendUvarintLen([]byte{frameBatch, 0x01}, resp),
		reqs[0],
	} {
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		inner, err := DecodeBatch(data)
		if err != nil {
			return
		}
		if len(inner) < 1 || len(inner) > maxBatchInner {
			t.Fatalf("accepted a batch of %d frames", len(inner))
		}
		base := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
		next := uintptr(0)
		for i, fr := range inner {
			if len(fr) == 0 || fr[0] != frameRequest {
				t.Fatalf("inner frame %d is not a request: % x", i, fr)
			}
			start := uintptr(unsafe.Pointer(unsafe.SliceData(fr))) - base
			if start < next || start+uintptr(len(fr)) > uintptr(len(data)) || cap(fr) != len(fr) {
				t.Fatalf("inner frame %d (offset %d, len %d, cap %d) is not a slice of the %d-byte input after frame %d",
					i, start, len(fr), cap(fr), len(data), i-1)
			}
			next = start + uintptr(len(fr))
		}
		var buf bytes.Buffer
		if err := writeBatchFrame(&buf, inner); err != nil {
			t.Fatalf("re-wrapping %d accepted frames: %v", len(inner), err)
		}
		wrapped := buf.Bytes()
		if n := binary.BigEndian.Uint32(wrapped); int(n) != len(wrapped)-4 {
			t.Fatalf("length prefix %d for a %d-byte batch", n, len(wrapped)-4)
		}
		again, err := DecodeBatch(wrapped[4:])
		if err != nil || len(again) != len(inner) {
			t.Fatalf("re-wrapped batch decoded to %d frames (%v), want %d", len(again), err, len(inner))
		}
		for i := range inner {
			if !bytes.Equal(again[i], inner[i]) {
				t.Fatalf("inner frame %d changed when re-wrapped", i)
			}
		}
	})
}

// FuzzDecodeNotify feeds arbitrary bytes through DecodeFrame and then
// DecodeNotifyAs on both event-stream services. Neither may panic, and a
// decoded event encodes again with EncodeNotifyAs and decodes equal.
func FuzzDecodeNotify(f *testing.F) {
	ev := ServiceEvent{Type: ServiceRegistered, Service: "svc.greeter", Node: "node01",
		Addr: "10.0.0.1:7791", Instance: "tenant-a", Seq: 42}
	for _, svc := range []string{EventsServiceName, HealthServiceName} {
		frame, err := EncodeNotifyAs(svc, 7, ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// Negatives: too few arguments, a subscription id that is no int64,
	// an argument that is no string, another method, and no request.
	for _, req := range []*Request{
		{Corr: 1, Service: EventsServiceName, Method: MethodNotify, Args: []any{int64(1), "REGISTERED"}},
		{Corr: 2, Service: EventsServiceName, Method: MethodNotify, Args: []any{"1", "a", "b", "c", "d", "e"}},
		{Corr: 3, Service: HealthServiceName, Method: MethodNotify, Args: []any{int64(1), "a", int64(2), "c", "d", "e"}},
		{Corr: 4, Service: EventsServiceName, Method: "Subscribe", Args: []any{int64(1), "a", "b", "c", "d", "e"}},
	} {
		frame, err := EncodeRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{frameResponse, 0, 0, 0, 0, 0, 0, 0, 1, StatusOK, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, _, _, err := DecodeFrame(data)
		if err != nil || req == nil {
			return
		}
		for _, svc := range []string{EventsServiceName, HealthServiceName} {
			subID, ev, err := DecodeNotifyAs(svc, req)
			if err != nil {
				continue
			}
			frame, err := EncodeNotifyAs(svc, subID, ev)
			if err != nil {
				t.Fatalf("re-encoding decoded event %+v: %v", ev, err)
			}
			req2, _, _, err := DecodeFrame(frame)
			if err != nil || req2 == nil {
				t.Fatalf("re-encoded event %+v: decode %v", ev, err)
			}
			subID2, ev2, err := DecodeNotifyAs(svc, req2)
			if err != nil || subID2 != subID || ev2 != ev {
				t.Fatalf("event %d %+v re-decoded as %d %+v (%v)", subID, ev, subID2, ev2, err)
			}
		}
	})
}
