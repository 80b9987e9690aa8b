package remote

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"dosgi/internal/obs"
)

// encodedRequest builds one request frame for batch tests.
func encodedRequest(t *testing.T, corr uint64, method string, args ...any) []byte {
	t.Helper()
	frame, err := EncodeRequest(&Request{Corr: corr, Service: "svc", Method: method, Args: args})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// encodeBatch returns the batch frame writeBatchFrame puts on the wire,
// without its length prefix.
func encodeBatch(frames [][]byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := writeBatchFrame(&buf, frames); err != nil {
		return nil, err
	}
	return buf.Bytes()[4:], nil
}

// TestBatchRoundTrip: encodeBatch wraps N request frames; DecodeBatch
// returns them byte-identical and each decodes to its original request.
func TestBatchRoundTrip(t *testing.T) {
	frames := [][]byte{
		encodedRequest(t, 1, "Upper", "a"),
		encodedRequest(t, 2, "Echo", int64(42), "two"),
		encodedRequest(t, 3, "Add", 1.5, 2.5),
	}
	wrapped, err := encodeBatch(frames)
	if err != nil {
		t.Fatal(err)
	}
	if wrapped[0] != frameBatch {
		t.Fatalf("batch kind byte %02x, want %02x", wrapped[0], frameBatch)
	}
	inner, err := DecodeBatch(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if len(inner) != len(frames) {
		t.Fatalf("decoded %d inner frames, want %d", len(inner), len(frames))
	}
	for i, f := range inner {
		if string(f) != string(frames[i]) {
			t.Fatalf("inner frame %d changed on the wire", i)
		}
		req, _, kind, err := DecodeFrame(f)
		if err != nil || kind != frameRequest {
			t.Fatalf("inner frame %d: kind=%d err=%v", i, kind, err)
		}
		if req.Corr != uint64(i+1) {
			t.Fatalf("inner frame %d corr=%d, want %d", i, req.Corr, i+1)
		}
	}
}

// TestBatchDecodeRejects covers the §7 negatives: every malformed batch
// is ErrBadFrame, never a partial unpack.
func TestBatchDecodeRejects(t *testing.T) {
	good, err := encodeBatch([][]byte{
		encodedRequest(t, 1, "Upper", "a"),
		encodedRequest(t, 2, "Upper", "b"),
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name  string
		frame []byte
	}{
		{"empty_batch", []byte{frameBatch, 0x00}},
		{"count_only", []byte{frameBatch, 0x02}},
		{"truncated_inner", good[:len(good)-3]},
		{"trailing_garbage", append(append([]byte{}, good...), 0x01, 0x02)},
		{"nested_batch", func() []byte {
			buf := []byte{frameBatch, 0x01}
			buf = appendUvarintLen(buf, good)
			return buf
		}()},
		{"non_request_inner", func() []byte {
			resp, _ := EncodeResponse(&Response{Corr: 9, Status: StatusOK})
			buf := []byte{frameBatch, 0x01}
			buf = appendUvarintLen(buf, resp)
			return buf
		}()},
		{"not_a_batch", encodedRequest(t, 1, "Upper", "x")},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if _, err := DecodeBatch(row.frame); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("DecodeBatch = %v, want ErrBadFrame", err)
			}
		})
	}
}

// appendUvarintLen appends len(b) as a uvarint, then b — one inner batch
// entry, hand-rolled so the tests do not depend on an encoder's checks.
func appendUvarintLen(buf, b []byte) []byte {
	n := uint64(len(b))
	for n >= 0x80 {
		buf = append(buf, byte(n)|0x80)
		n >>= 7
	}
	buf = append(buf, byte(n))
	return append(buf, b...)
}

// TestTokenRoundTrip: a non-zero idempotency token survives the codec and
// composes with both traced and untraced requests.
func TestTokenRoundTrip(t *testing.T) {
	for _, tr := range []obs.TraceContext{{}, {TraceID: 0xfeed, SpanID: 2, Hop: 1}} {
		frame, err := EncodeRequest(&Request{
			Corr: 5, Service: "s", Method: "M", Trace: tr, Token: 0xdeadbeef,
		})
		if err != nil {
			t.Fatal(err)
		}
		req, _, _, err := DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if req.Token != 0xdeadbeef {
			t.Fatalf("trace=%v: token %#x, want 0xdeadbeef", tr, req.Token)
		}
		if req.Trace != tr {
			t.Fatalf("token corrupted the trace context: %+v, want %+v", req.Trace, tr)
		}
	}
}

// TestTokenAbsentMeansOldPeer: frames from peers that predate §3.4 — no
// trailer at all, or a trace trailer with no fourth varint — decode to
// token zero.
func TestTokenAbsentMeansOldPeer(t *testing.T) {
	bare, err := EncodeRequest(&Request{Corr: 6, Service: "s", Method: "M"})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := EncodeRequest(&Request{
		Corr: 7, Service: "s", Method: "M",
		Trace: obs.TraceContext{TraceID: 1, SpanID: 2, Hop: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string][]byte{"untraced": bare, "traced": traced} {
		req, _, _, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if req.Token != 0 {
			t.Fatalf("%s: absent token decoded to %#x, want 0", name, req.Token)
		}
	}
}

// TestTokenTruncatedIsBadFrame: a fourth varint that stops mid-byte is a
// cut frame, not a zero token.
func TestTokenTruncatedIsBadFrame(t *testing.T) {
	full, err := EncodeRequest(&Request{
		Corr: 8, Service: "s", Method: "M", Token: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := EncodeRequest(&Request{Corr: 8, Service: "s", Method: "M"})
	if err != nil {
		t.Fatal(err)
	}
	// The token trailer occupies everything past the bare frame plus the
	// three explicit zero trace varints; cutting anywhere inside the token
	// varint itself must fail loudly.
	tokenStart := len(bare) + 3
	for cut := tokenStart + 1; cut < len(full); cut++ {
		_, _, _, err := DecodeFrame(full[:cut])
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("cut=%d: got err=%v, want ErrBadFrame", cut, err)
		}
		if !strings.Contains(err.Error(), "idempotency token") {
			t.Fatalf("cut=%d: error lacks cause: %v", cut, err)
		}
	}
}

// TestBorrowingDecodeAliasesFrame: DecodeFrameBorrowing's string and bytes
// results alias the frame buffer (that is the point — no copies), and
// Retain detaches them.
func TestBorrowingDecodeAliasesFrame(t *testing.T) {
	frame, err := EncodeResponse(&Response{
		Corr: 1, Status: StatusOK,
		Results: []any{"hello-borrowed", []byte{1, 2, 3, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// First decode: prove the values alias the frame (scribbling the
	// frame is visible through them).
	_, borrowed, _, err := DecodeFrameBorrowing(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 'X'
	}
	if borrowed.Results[0].(string) == "hello-borrowed" {
		t.Fatal("borrowing decode copied the string; expected an alias")
	}
	if b := borrowed.Results[1].([]byte); b[0] != 'X' {
		t.Fatal("borrowing decode copied the bytes; expected an alias")
	}

	// Second decode: Retain (in place) detaches the values, so scribbling
	// afterwards must not touch them.
	frame2, err := EncodeResponse(&Response{
		Corr: 1, Status: StatusOK,
		Results: []any{"hello-borrowed", []byte{1, 2, 3, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, resp, _, err := DecodeFrameBorrowing(frame2)
	if err != nil {
		t.Fatal(err)
	}
	retained := resp.Retain()
	for i := range frame2 {
		frame2[i] = 'X'
	}
	if got := retained.Results[0].(string); got != "hello-borrowed" {
		t.Fatalf("retained string corrupted by frame reuse: %q", got)
	}
	if got := retained.Results[1].([]byte); string(got) != string([]byte{1, 2, 3, 4}) {
		t.Fatalf("retained bytes corrupted by frame reuse: %v", got)
	}
}

// TestCopyingDecodeDoesNotAlias: the default DecodeFrame keeps its
// historical always-copy semantics.
func TestCopyingDecodeDoesNotAlias(t *testing.T) {
	frame, err := EncodeResponse(&Response{
		Corr: 2, Status: StatusOK, Results: []any{"stable", []byte{9, 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, resp, _, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0
	}
	if resp.Results[0].(string) != "stable" || resp.Results[1].([]byte)[0] != 9 {
		t.Fatalf("copying decode aliased the frame: %v", resp.Results)
	}
}

// TestRetainedValueSurvivesPooledBufferReuse is the satellite race test:
// a value retained from a borrowing decode must stay intact while the
// pooled frame buffer is concurrently recycled and scribbled over by
// other goroutines (run under -race).
func TestRetainedValueSurvivesPooledBufferReuse(t *testing.T) {
	const rounds = 200
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				frame, err := EncodeResponse(&Response{
					Corr: uint64(i), Status: StatusOK,
					Results: []any{"payload-payload-payload", []byte("bytes-bytes-bytes")},
				})
				if err != nil {
					t.Error(err)
					return
				}
				// Simulate the TCP read path: pooled buffer in, borrowing
				// decode, retain, release back to the pool.
				buf := getFrameBuf(len(frame))
				copy(buf, frame)
				_, resp, _, err := DecodeFrameBorrowing(buf)
				if err != nil {
					t.Error(err)
					return
				}
				retained := resp.Retain()
				putFrameBuf(buf)
				// Another goroutine may now own buf and be overwriting it;
				// the retained copy must not see that.
				if got := retained.Results[0].(string); got != "payload-payload-payload" {
					t.Errorf("retained string corrupted: %q", got)
					return
				}
				if got := retained.Results[1].([]byte); string(got) != "bytes-bytes-bytes" {
					t.Errorf("retained bytes corrupted: %q", got)
					return
				}
				// Scribble a fresh pooled buffer to maximize overlap with
				// other goroutines' borrow windows.
				b2 := getFrameBuf(len(frame))
				for j := range b2 {
					b2[j] = byte(g)
				}
				putFrameBuf(b2)
			}
		}(g)
	}
	wg.Wait()
}
