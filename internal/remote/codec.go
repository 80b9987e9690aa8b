// Package remote is the R-OSGi-style remote service invocation layer: a
// service registered in a module framework with service.exported=true
// becomes invocable from other frameworks through a client proxy that
// speaks a compact length-prefixed binary protocol over a pluggable
// Transport (deterministic netsim for experiments, real TCP for dosgid).
// The wire format is specified end-to-end in docs/PROTOCOL.md.
//
// Layering, bottom up:
//
//	netsim / TCP            the bytes actually move
//	Transport / Conn        framed, correlation-id pipelined connections;
//	                        PushConn adds unsolicited server→client frames
//	codec                   Request/Response wire encoding (this file)
//	Pool                    per-endpoint connections, bounded in-flight
//	Invoker                 endpoint resolution + failover retry
//	Proxy / Importer        the imported service seen by client bundles
//	Exporter / Dispatcher   the exported service on the provider side; a
//	                        Dispatcher resolves through any ServiceSource,
//	                        so one listener can serve several frameworks
//	                        (host + virtual instances)
//	EventBroker/Subscriber  the dosgi.events verbs: server-push service
//	                        events (REGISTERED/MODIFIED/UNREGISTERING)
//	                        with leased subscriptions, synthetic resync on
//	                        (re)connect, a bounded per-subscription replay
//	                        window healing sequence gaps in place, and
//	                        credit-based backpressure suspending delivery
//	                        to slow consumers instead of queueing
//
// Failure semantics: everything wrapping ErrUnavailable is retryable
// against another replica (the call may not have executed — at-least-once
// overall); AppError results executed exactly once and are never retried.
// Event subscriptions survive endpoint failure by failing over to another
// event server and resynchronizing; a mere sequence gap (lost push,
// suspended delivery) heals cheaper, by replaying the missing range from
// the broker's window. Either way "every delivered event is a real
// change" holds across reconnects, replays and resyncs.
//
// Call timeouts: a call attempt fails with ErrTimeout (retryable) at
// exactly its issue time plus its connection's call timeout, on the wall
// clock and on the simulator alike. The cost is one timer per connection,
// not per call: the timeout is fixed per connection, so deadlines never
// decrease in correlation-id order, and the one timer always waits for
// the oldest pending call. Timed-out calls, and the calls a closed
// connection fails, complete in issue order.
//
// Borrow contract: a client connection decodes every response in place,
// so the strings and byte slices of a *Response handed to a Conn.Call or
// Pool.Invoke callback alias the connection's read buffer and are valid
// only until that callback returns — the buffer is then recycled (and, in
// race builds, overwritten with 0xDB first so a kept value reads as
// poison). A callback that keeps any of them longer detaches them with
// Response.Retain or RetainValue before it returns. The Invoker is the
// one retention boundary: Invoker.Go, Invoker.Call and Proxy hand the
// application values it owns. Requests a server decodes, and pushed
// Notify requests, are always owned copies.
//
// Endpoint resolution and the event feed are both supplied by the
// embedder (EndpointResolver / Publish), which the cluster backs with
// the unified replicated directory of internal/migrate: one exact-delta
// record engine under both service endpoints and provisioning artifacts,
// so the deltas brokers push — and the replicas fetchers resolve — share
// the same convergence guarantees (total-order mutation, per-holder
// resync, periodic anti-entropy, deterministic dead-holder pruning).
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"
	"unsafe"

	"dosgi/internal/obs"
)

// Frame kinds on the wire.
const (
	frameRequest  = 0x01
	frameResponse = 0x02
	frameHello    = 0x03 // connection handshake
	frameHelloAck = 0x04
	frameBatch    = 0x05 // multi-request frame (docs/PROTOCOL.md §2.1)
)

// Hello feature bits (docs/PROTOCOL.md §2.1). A HelloAck advertises the
// responder's capabilities in an optional trailing byte; peers that
// predate features send a bare ack and are treated as supporting none.
const featBatch byte = 0x01

// maxBatchInner caps the request frames one batch frame may carry.
const maxBatchInner = 1024

// Response status codes.
const (
	// StatusOK carries results.
	StatusOK = 0
	// StatusAppError carries an application-level error (not retryable:
	// the call executed and failed).
	StatusAppError = 1
	// StatusUnavailable means the endpoint could not execute the call at
	// all (unknown service, draining); retrying elsewhere is safe.
	StatusUnavailable = 2
)

// Codec errors.
var (
	// ErrFrameTooLarge rejects frames above MaxFrameSize.
	ErrFrameTooLarge = errors.New("remote: frame exceeds maximum size")
	// ErrBadFrame reports a malformed or truncated frame.
	ErrBadFrame = errors.New("remote: malformed frame")
	// ErrBadValue reports an unencodable argument or result value.
	ErrBadValue = errors.New("remote: unencodable value")
)

// MaxFrameSize bounds a single request or response frame (16 MiB).
const MaxFrameSize = 16 << 20

// Request is one remote invocation on the wire. Corr correlates the
// response on a pipelined connection; it is assigned by the Conn.
//
// Trace is the OPTIONAL distributed-trace context (docs/PROTOCOL.md §3.3):
// when valid it is appended after the argument list as three unsigned
// varints (trace id, parent span id, hop count). Decoders that predate the
// field ignore trailing request bytes, and an absent field decodes to the
// zero (untraced) context — the extension is backward compatible in both
// directions.
// Token is the OPTIONAL idempotency token (docs/PROTOCOL.md §3.4): a
// non-zero token is appended as a fourth trailing uvarint after the trace
// context, kept stable across failover retries of the same logical call so
// a dispatcher-side dedup ring can upgrade timeout failover from
// at-least-once to effectively-once. Zero means "no token"; old decoders
// ignore the extra trailing varint.
type Request struct {
	Corr    uint64
	Service string
	Method  string
	Args    []any
	Trace   obs.TraceContext
	Token   uint64

	// recvAt is the server-side receive timestamp (the instrumented
	// servers stamp it before dispatch so the Dispatcher can split queue
	// wait from handler time). Not part of the wire format.
	recvAt  time.Duration
	hasRecv bool
}

// MarkReceived stamps the server-side receive time of a request; the
// tracing Dispatcher reports now-minus-stamp as the request's queue wait.
func (r *Request) MarkReceived(at time.Duration) {
	r.recvAt = at
	r.hasRecv = true
}

// ReceivedAt returns the receive stamp, if the serving transport set one.
func (r *Request) ReceivedAt() (time.Duration, bool) {
	return r.recvAt, r.hasRecv
}

// Response answers one Request.
type Response struct {
	Corr    uint64
	Status  byte
	Err     string // set when Status != StatusOK
	Results []any
}

// Value tags. The codec carries the closed set of types that crosses the
// wire: nil, bool, int64, float64, string, []byte and nested []any. Plain
// ints are widened to int64 on encode.
const (
	tagNil   = 0x00
	tagFalse = 0x01
	tagTrue  = 0x02
	tagInt   = 0x03
	tagFloat = 0x04
	tagStr   = 0x05
	tagBytes = 0x06
	tagList  = 0x07
)

// EncodeRequest serializes r (without the length prefix).
func EncodeRequest(r *Request) ([]byte, error) {
	buf := make([]byte, 0, 64)
	buf = append(buf, frameRequest)
	buf = binary.BigEndian.AppendUint64(buf, r.Corr)
	buf = appendString(buf, r.Service)
	buf = appendString(buf, r.Method)
	buf = binary.AppendUvarint(buf, uint64(len(r.Args)))
	var err error
	for _, v := range r.Args {
		if buf, err = appendValue(buf, v, 0); err != nil {
			return nil, err
		}
	}
	// Optional trailing trace context: three uvarints after the last
	// argument. Pre-trace decoders stop reading at the argument list, so
	// traced frames stay parseable by old peers. A non-zero idempotency
	// token rides as a fourth trailing uvarint; an untraced tokened request
	// emits the explicit zero trace marker so the token's position is
	// unambiguous.
	if r.Trace.Valid() || r.Token != 0 {
		buf = binary.AppendUvarint(buf, r.Trace.TraceID)
		buf = binary.AppendUvarint(buf, r.Trace.SpanID)
		buf = binary.AppendUvarint(buf, uint64(r.Trace.Hop))
		if r.Token != 0 {
			buf = binary.AppendUvarint(buf, r.Token)
		}
	}
	return buf, nil
}

// DecodeBatch splits a batch frame into its inner request frames. The
// returned slices alias buf — decode them (copying) before the buffer is
// reused. Every malformation — zero count, truncated inner frame, an inner
// frame that is not a request, trailing garbage — is ErrBadFrame: a server
// drops the connection exactly as for any other malformed frame.
func DecodeBatch(buf []byte) ([][]byte, error) {
	if len(buf) == 0 || buf[0] != frameBatch {
		return nil, ErrBadFrame
	}
	b := buf[1:]
	count, n := binary.Uvarint(b)
	if n <= 0 || count == 0 || count > maxBatchInner {
		return nil, fmt.Errorf("%w: bad batch count", ErrBadFrame)
	}
	b = b[n:]
	frames := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		ln, n := binary.Uvarint(b)
		if n <= 0 || ln == 0 || ln > uint64(len(b[n:])) {
			return nil, fmt.Errorf("%w: truncated batch inner frame", ErrBadFrame)
		}
		inner := b[n : n+int(ln) : n+int(ln)]
		if inner[0] != frameRequest {
			return nil, fmt.Errorf("%w: batch inner frame kind 0x%02x", ErrBadFrame, inner[0])
		}
		frames = append(frames, inner)
		b = b[n+int(ln):]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes after batch", ErrBadFrame)
	}
	return frames, nil
}

// EncodeResponse serializes r (without the length prefix).
func EncodeResponse(r *Response) ([]byte, error) {
	return appendResponse(make([]byte, 0, 64), r)
}

// appendResponse appends r's encoding to buf, which may come from the
// frame pool — the allocation-free reply path.
func appendResponse(buf []byte, r *Response) ([]byte, error) {
	buf = append(buf, frameResponse)
	buf = binary.BigEndian.AppendUint64(buf, r.Corr)
	buf = append(buf, r.Status)
	buf = appendString(buf, r.Err)
	buf = binary.AppendUvarint(buf, uint64(len(r.Results)))
	var err error
	for _, v := range r.Results {
		if buf, err = appendValue(buf, v, 0); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// encodeResponseOrFallback serializes resp, degrading to a StatusAppError
// envelope when the results cannot cross the wire — unencodable values and
// frames over MaxFrameSize alike. Both transports' reply paths share it:
// without the size degrade an executed call with an oversized result would
// be dropped silently, time out at the caller as Unavailable and be
// retried against another replica — an at-least-once surprise for a call
// that already ran (PROTOCOL.md §7).
func encodeResponseOrFallback(resp *Response) []byte {
	out, err := EncodeResponse(resp)
	if err == nil && len(out) > MaxFrameSize {
		err = ErrFrameTooLarge
	}
	if err != nil {
		out, _ = EncodeResponse(&Response{
			Corr: resp.Corr, Status: StatusAppError,
			Err: "unencodable results: " + err.Error(),
		})
	}
	return out
}

// encodePooledResponseOrFallback is encodeResponseOrFallback writing into
// a frame-pool buffer: the caller MUST recycle the returned buffer with
// putFrameBuf after its synchronous transport write, and must not hand the
// bytes to anything that outlives the call (async delivery paths keep
// using encodeResponseOrFallback's heap buffer).
func encodePooledResponseOrFallback(resp *Response) []byte {
	out, err := appendResponse(getFrameBuf(0), resp)
	if err == nil && len(out) > MaxFrameSize {
		err = ErrFrameTooLarge
	}
	if err != nil {
		out, _ = appendResponse(out[:0], &Response{
			Corr: resp.Corr, Status: StatusAppError,
			Err: "unencodable results: " + err.Error(),
		})
	}
	return out
}

// encodeHello serializes a handshake frame; ack answers it.
func encodeHello(ack bool) []byte {
	if ack {
		return []byte{frameHelloAck}
	}
	return []byte{frameHello}
}

// encodeHelloFeatures serializes a handshake frame advertising feature
// bits in the optional trailing byte. Peers that predate features ignore
// hello bodies, so the extension is compatible in both directions.
func encodeHelloFeatures(ack bool, features byte) []byte {
	kind := byte(frameHello)
	if ack {
		kind = frameHelloAck
	}
	if features == 0 {
		return []byte{kind}
	}
	return []byte{kind, features}
}

// helloFeatures extracts the feature bits of a hello/helloAck frame; a
// bare (pre-feature) frame advertises none.
func helloFeatures(frame []byte) byte {
	if len(frame) < 2 {
		return 0
	}
	return frame[1]
}

// DecodeFrame parses one frame. Exactly one of the returns is non-nil for
// request/response frames; hello frames yield (nil, nil, kind, nil).
// String and []byte values are copied out of buf, so the buffer may be
// reused as soon as DecodeFrame returns.
func DecodeFrame(buf []byte) (*Request, *Response, byte, error) {
	return decodeFrame(buf, false)
}

// DecodeFrameBorrowing parses one frame like DecodeFrame, but string and
// []byte values in the decoded body ALIAS buf instead of copying — how
// both client transports decode responses. The decoded values are valid
// only while the caller owns buf: anything retained past that point (a
// pooled buffer returned, a netsim payload handed on) must first be
// deep-copied with RetainValue or Response.Retain.
func DecodeFrameBorrowing(buf []byte) (*Request, *Response, byte, error) {
	return decodeFrame(buf, true)
}

// decodeClientFrame decodes a frame a client connection received, the one
// decode both transports use: a response borrows from frame (the borrow
// contract on Conn.Call), a pushed request — which push handlers keep — is
// an owned copy.
func decodeClientFrame(frame []byte) (*Request, *Response, byte, error) {
	return decodeFrame(frame, len(frame) > 0 && frame[0] == frameResponse)
}

func decodeFrame(buf []byte, borrow bool) (*Request, *Response, byte, error) {
	if len(buf) == 0 {
		return nil, nil, 0, ErrBadFrame
	}
	kind := buf[0]
	body := buf[1:]
	switch kind {
	case frameHello, frameHelloAck:
		return nil, nil, kind, nil
	case frameRequest:
		req, err := decodeRequest(body, borrow)
		return req, nil, kind, err
	case frameResponse:
		resp, err := decodeResponse(body, borrow)
		return nil, resp, kind, err
	default:
		return nil, nil, kind, fmt.Errorf("%w: unknown kind 0x%02x", ErrBadFrame, kind)
	}
}

// RetainValue deep-copies any frame-borrowed string/bytes content out of v
// so it stays valid after the frame buffer is released — the escape hatch
// of the borrow contract. Values that cannot alias a frame
// (numbers, bools, nil) are returned unchanged.
func RetainValue(v any) any {
	switch vv := v.(type) {
	case string:
		return strings.Clone(vv)
	case []byte:
		out := make([]byte, len(vv))
		copy(out, vv)
		return out
	case []any:
		for i := range vv {
			vv[i] = RetainValue(vv[i])
		}
		return vv
	default:
		return v
	}
}

// Retain deep-copies every borrowed value in the response in place and
// returns it, detaching the response from the frame buffer it was decoded
// from. Call it inside the completion callback — after the callback
// returns the transport recycles the buffer. A nil response (the callback
// got a transport error) stays nil.
func (r *Response) Retain() *Response {
	if r == nil {
		return nil
	}
	r.Err = strings.Clone(r.Err)
	for i := range r.Results {
		r.Results[i] = RetainValue(r.Results[i])
	}
	return r
}

// maxPooledFrame caps the read buffers kept in the frame pool: the odd
// oversized frame is allocated and dropped rather than pinning megabytes.
const maxPooledFrame = 1 << 20

// framePool recycles transport read buffers (and pooled reply encode
// buffers). Borrow-decoded values alias these buffers, so a buffer is
// returned only after its decode results are dead — immediately after a
// copying decode, after the completion callback of a borrowing one.
var framePool sync.Pool

func getFrameBuf(n int) []byte {
	if v := framePool.Get(); v != nil {
		if b := *(v.(*[]byte)); cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

func putFrameBuf(b []byte) {
	poisonFrame(b)
	if cap(b) == 0 || cap(b) > maxPooledFrame {
		return
	}
	b = b[:0]
	framePool.Put(&b)
}

func decodeRequest(b []byte, borrow bool) (*Request, error) {
	d := &decoder{buf: b, borrow: borrow}
	r := &Request{}
	r.Corr = d.uint64()
	r.Service = d.string()
	r.Method = d.string()
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)) {
		return nil, fmt.Errorf("%w: arg count %d", ErrBadFrame, n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		r.Args = append(r.Args, d.value(0))
	}
	if d.err != nil {
		return nil, d.err
	}
	// Optional trailing trace context. A malformed trailer is a malformed
	// frame; bytes after the three varints are ignored (future fields).
	if len(d.buf) > 0 {
		tid := d.uvarint()
		sid := d.uvarint()
		hop := d.uvarint()
		if d.err != nil {
			return nil, fmt.Errorf("%w: truncated trace context", ErrBadFrame)
		}
		if tid != 0 {
			r.Trace = obs.TraceContext{TraceID: tid, SpanID: sid, Hop: uint32(hop)}
		}
		// Optional fourth trailing uvarint: the idempotency token (§3.4).
		// Bytes after it are reserved for future fields and ignored; a
		// truncated varint is a malformed frame, exactly like the trace
		// trailer. Absent means an old peer — token zero.
		if len(d.buf) > 0 {
			tok := d.uvarint()
			if d.err != nil {
				return nil, fmt.Errorf("%w: truncated idempotency token", ErrBadFrame)
			}
			r.Token = tok
		}
	}
	return r, nil
}

func decodeResponse(b []byte, borrow bool) (*Response, error) {
	d := &decoder{buf: b, borrow: borrow}
	r := &Response{}
	r.Corr = d.uint64()
	r.Status = d.byte()
	r.Err = d.string()
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)) {
		return nil, fmt.Errorf("%w: result count %d", ErrBadFrame, n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		r.Results = append(r.Results, d.value(0))
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendValue encodes one value. The depth guard mirrors the decoder's
// maxValueDepth so every frame the encoder accepts is decodable.
func appendValue(buf []byte, v any, depth int) ([]byte, error) {
	if depth > maxValueDepth {
		return nil, fmt.Errorf("%w: nesting deeper than %d", ErrBadValue, maxValueDepth)
	}
	switch vv := v.(type) {
	case nil:
		return append(buf, tagNil), nil
	case bool:
		if vv {
			return append(buf, tagTrue), nil
		}
		return append(buf, tagFalse), nil
	case int:
		buf = append(buf, tagInt)
		return binary.AppendVarint(buf, int64(vv)), nil
	case int32:
		buf = append(buf, tagInt)
		return binary.AppendVarint(buf, int64(vv)), nil
	case int64:
		buf = append(buf, tagInt)
		return binary.AppendVarint(buf, vv), nil
	case float64:
		buf = append(buf, tagFloat)
		return binary.BigEndian.AppendUint64(buf, math.Float64bits(vv)), nil
	case string:
		buf = append(buf, tagStr)
		return appendString(buf, vv), nil
	case []byte:
		buf = append(buf, tagBytes)
		buf = binary.AppendUvarint(buf, uint64(len(vv)))
		return append(buf, vv...), nil
	case []any:
		buf = append(buf, tagList)
		buf = binary.AppendUvarint(buf, uint64(len(vv)))
		var err error
		for _, e := range vv {
			if buf, err = appendValue(buf, e, depth+1); err != nil {
				return nil, err
			}
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("%w: %T", ErrBadValue, v)
	}
}

// maxValueDepth bounds nested list decoding.
const maxValueDepth = 16

type decoder struct {
	buf    []byte
	err    error
	borrow bool // string/bytes values alias buf instead of copying
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrBadFrame
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) uint64() uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.buf)) {
		d.fail()
		return ""
	}
	var s string
	if d.borrow {
		s = bytesToString(d.buf[:n])
	} else {
		s = string(d.buf[:n])
	}
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.buf)) {
		d.fail()
		return nil
	}
	if d.borrow {
		out := d.buf[:n:n]
		d.buf = d.buf[n:]
		return out
	}
	out := make([]byte, n)
	copy(out, d.buf[:n])
	d.buf = d.buf[n:]
	return out
}

// bytesToString views b as a string without copying; the string is valid
// exactly as long as b's backing array is. Borrow-mode decoding only.
func bytesToString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

func (d *decoder) value(depth int) any {
	if depth > maxValueDepth {
		d.fail()
		return nil
	}
	switch d.byte() {
	case tagNil:
		return nil
	case tagFalse:
		return false
	case tagTrue:
		return true
	case tagInt:
		return d.varint()
	case tagFloat:
		return math.Float64frombits(d.uint64())
	case tagStr:
		return d.string()
	case tagBytes:
		return d.bytes()
	case tagList:
		n := d.uvarint()
		if d.err != nil || n > uint64(len(d.buf)) {
			d.fail()
			return nil
		}
		out := make([]any, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			out = append(out, d.value(depth+1))
		}
		return out
	default:
		d.fail()
		return nil
	}
}
