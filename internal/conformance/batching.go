package conformance

import (
	"encoding/binary"
	"fmt"
	"testing"

	"dosgi/internal/obs"
	"dosgi/internal/remote"
)

// §2.1 wire constants, spelled literally like the §1 ones: the checks
// must break if the implementation drifts from the documented values.
const (
	wireBatch     = 0x05
	wireFeatBatch = 0x01
	wireRequest   = 0x01
	wireMaxInner  = 1024
)

// encodeBatch wraps complete request frames into one multi-request frame
// (§2.1): uvarint count, then count × (uvarint length, frame bytes). Only
// negotiated peers may be sent one — old decoders drop the connection on
// the unknown frame kind.
func encodeBatch(frames [][]byte) ([]byte, error) {
	if len(frames) == 0 || len(frames) > wireMaxInner {
		return nil, fmt.Errorf("%w: batch of %d frames", remote.ErrBadValue, len(frames))
	}
	size := 1 + binary.MaxVarintLen64
	for _, f := range frames {
		size += binary.MaxVarintLen64 + len(f)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, wireBatch)
	buf = binary.AppendUvarint(buf, uint64(len(frames)))
	for _, f := range frames {
		if len(f) == 0 || f[0] != wireRequest {
			return nil, fmt.Errorf("%w: batch inner frame must be a request", remote.ErrBadValue)
		}
		buf = binary.AppendUvarint(buf, uint64(len(f)))
		buf = append(buf, f...)
	}
	if len(buf) > remote.MaxFrameSize {
		return nil, remote.ErrFrameTooLarge
	}
	return buf, nil
}

// rawBatch hand-builds a multi-request frame (§2.1: kind byte, uvarint
// count, count × (uvarint length, frame bytes)) without going through
// encodeBatch — negatives need shapes the encoder refuses to produce.
func rawBatch(count uint64, inner ...[]byte) []byte {
	buf := []byte{wireBatch}
	buf = binary.AppendUvarint(buf, count)
	for _, f := range inner {
		buf = binary.AppendUvarint(buf, uint64(len(f)))
		buf = append(buf, f...)
	}
	return buf
}

// runBatching checks §2.1 (request batching) and §3.4 (idempotency
// tokens): capability negotiation on the handshake, the multi-request
// frame proper, and the malformation rules — a bad batch condemns the
// connection that carried it, nothing more.
func (h *harness) runBatching(t *testing.T) {
	// §2.1: a hello advertising the batch feature is acked with the
	// server's own feature byte carrying the batch bit — the capability
	// gate that lets a client coalesce requests.
	t.Run("feature_negotiated", func(t *testing.T) {
		nc := h.rawDial(t)
		writeRawFrame(t, nc, []byte{wireHello, wireFeatBatch})
		frame, err := readRawFrame(nc, awaitTimeout)
		if err != nil {
			t.Fatalf("read HelloAck: %v", err)
		}
		if len(frame) < 1 || frame[0] != wireHelloAck {
			t.Fatalf("Hello answered with % x, want kind byte %02x", frame, wireHelloAck)
		}
		if len(frame) < 2 || frame[1]&wireFeatBatch == 0 {
			t.Fatalf("HelloAck % x does not advertise the batch feature", frame)
		}
	})

	// §2.1: one batch frame of three requests yields three ordinary
	// response frames, matched by correlation id; a token on an inner
	// request is accepted like on a bare one.
	t.Run("batch_exchange", func(t *testing.T) {
		nc := h.rawDial(t)
		writeRawFrame(t, nc, []byte{wireHello, wireFeatBatch})
		if _, err := readRawFrame(nc, awaitTimeout); err != nil {
			t.Fatalf("read HelloAck: %v", err)
		}
		want := map[uint64]string{11: "A", 12: "B", 13: "C"}
		var inner [][]byte
		for corr, s := range map[uint64]string{11: "a", 12: "b", 13: "c"} {
			frame, err := remote.EncodeRequest(&remote.Request{
				Corr: corr, Service: h.tgt.Echo, Method: "Upper",
				Args: []any{s}, Token: 0xbeef00 + corr,
			})
			if err != nil {
				t.Fatal(err)
			}
			inner = append(inner, frame)
		}
		batch, err := encodeBatch(inner)
		if err != nil {
			t.Fatal(err)
		}
		writeRawFrame(t, nc, batch)
		got := make(map[uint64]string)
		for i := 0; i < len(want); i++ {
			resp := readRawResponse(t, nc)
			if resp.Status != remote.StatusOK {
				t.Fatalf("corr %d answered status %v: %s", resp.Corr, resp.Status, resp.Err)
			}
			got[resp.Corr] = resp.Results[0].(string)
		}
		for corr, s := range want {
			if got[corr] != s {
				t.Fatalf("responses = %v, want %v", got, want)
			}
		}
	})

	// §2.1 malformations: each condemns only the connection that carried
	// it — the server stays up for everyone else.
	upper := rawRequest(t, 1, h.tgt.Echo, "Upper", obs.TraceContext{}, "x")
	respFrame, err := remote.EncodeResponse(&remote.Response{Corr: 1, Status: remote.StatusOK})
	if err != nil {
		t.Fatal(err)
	}
	negatives := []struct {
		name  string
		frame []byte
	}{
		{"empty_batch", rawBatch(0)},
		{"count_without_frames", rawBatch(2)},
		{"truncated_inner", append(rawBatch(1), 0x0a, 0x01, 0x02)}, // claims 10 bytes, carries 2
		{"non_request_inner", rawBatch(1, respFrame)},
		{"nested_batch", rawBatch(1, rawBatch(1, upper))},
	}
	for _, neg := range negatives {
		t.Run(neg.name+"_drops_conn", func(t *testing.T) {
			nc := h.rawDial(t)
			writeRawFrame(t, nc, neg.frame)
			expectClosed(t, nc)
			h.assertAlive(t)
		})
	}

	// §3.4: the idempotency token is a strict uvarint — a frame cut off
	// inside it is malformed, not "token absent" (absence means the whole
	// field is missing, the old-peer case).
	t.Run("truncated_token_drops_conn", func(t *testing.T) {
		frame, err := remote.EncodeRequest(&remote.Request{
			Corr: 1, Service: h.tgt.Echo, Method: "Upper",
			Args: []any{"x"}, Token: 0xdeadbeef, // multi-byte varint
		})
		if err != nil {
			t.Fatal(err)
		}
		nc := h.rawDial(t)
		writeRawFrame(t, nc, frame[:len(frame)-1])
		expectClosed(t, nc)
		h.assertAlive(t)
	})

	// §3.4 forward half: a bare request without the token field is the
	// old-peer form and must serve normally.
	t.Run("token_absent_serves", func(t *testing.T) {
		nc := h.rawDial(t)
		writeRawFrame(t, nc, rawRequest(t, 5, h.tgt.Echo, "Upper", obs.TraceContext{}, "ok"))
		resp := readRawResponse(t, nc)
		if resp.Status != remote.StatusOK || resp.Results[0].(string) != "OK" {
			t.Fatalf("tokenless request answered %+v", resp)
		}
	})
}
