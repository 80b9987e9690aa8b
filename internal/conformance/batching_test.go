package conformance

import (
	"testing"

	"dosgi/internal/remote"
)

// encodedRequest builds one request frame for batch tests.
func encodedRequest(t *testing.T, corr uint64, method string, args ...any) []byte {
	t.Helper()
	frame, err := remote.EncodeRequest(&remote.Request{Corr: corr, Service: "svc", Method: method, Args: args})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestBatchEncodeRejects: the encoder refuses batches no §2.1 peer may
// send — empty, oversized count, non-request inner frames.
func TestBatchEncodeRejects(t *testing.T) {
	if _, err := encodeBatch(nil); err == nil {
		t.Fatal("encodeBatch(nil) succeeded")
	}
	over := make([][]byte, wireMaxInner+1)
	for i := range over {
		over[i] = encodedRequest(t, uint64(i), "Upper", "x")
	}
	if _, err := encodeBatch(over); err == nil {
		t.Fatalf("encodeBatch accepted %d inner frames", len(over))
	}
	resp, err := remote.EncodeResponse(&remote.Response{Corr: 1, Status: remote.StatusOK})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := encodeBatch([][]byte{resp}); err == nil {
		t.Fatal("encodeBatch accepted a response inner frame")
	}
}
