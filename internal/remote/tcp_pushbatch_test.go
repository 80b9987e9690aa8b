package remote

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dosgi/internal/clock"
)

func notifyFrame(t *testing.T, svc string, seq uint64) []byte {
	t.Helper()
	f, err := EncodeNotifyAs(EventsServiceName, 7, ServiceEvent{
		Type: ServiceRegistered, Service: svc, Node: "n1", Addr: "a:1", Seq: seq,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// readNotifies reads frames from conn until n Notify events have
// arrived, plain or batched, and returns their services in arrival order
// with the number of frames and of batch frames that carried them.
func readNotifies(conn net.Conn, n int) (services []string, frames, batches int, err error) {
	for len(services) < n {
		frame, err := readFrame(conn)
		if err != nil {
			return services, frames, batches, err
		}
		frames++
		inner := [][]byte{frame}
		if frame[0] == frameBatch {
			batches++
			if inner, err = DecodeBatch(frame); err != nil {
				return services, frames, batches, err
			}
		}
		for _, in := range inner {
			req, _, kind, err := DecodeFrame(in)
			if err != nil || kind != frameRequest {
				return services, frames, batches, fmt.Errorf("frame %d: kind=0x%02x err=%v", frames, kind, err)
			}
			_, ev, err := DecodeNotifyAs(EventsServiceName, req)
			if err != nil {
				return services, frames, batches, err
			}
			services = append(services, ev.Service)
		}
	}
	return services, frames, batches, nil
}

// TestTCPPusherCoalescesNotifyBurst: a window of back-to-back pushes on a
// batching-enabled pusher arrives in push order, coalesced into fewer
// frames than pushes, at least one of them a §2.1 batch frame. A slow
// scheduler may let the micro-deadline split the burst, so the test
// counts frames rather than demanding exactly one.
func TestTCPPusherCoalescesNotifyBurst(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	p := &tcpPusher{w: startTestWriter(t, server)}
	p.enableBatching()

	type burst struct {
		services        []string
		frames, batches int
		err             error
	}
	got := make(chan burst, 1)
	go func() {
		var b burst
		b.services, b.frames, b.batches, b.err = readNotifies(client, pushBatchMax)
		got <- b
	}()
	for i := 0; i < pushBatchMax; i++ {
		if err := p.Push(notifyFrame(t, fmt.Sprintf("svc-%02d", i), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case b := <-got:
		if b.err != nil {
			t.Fatal(b.err)
		}
		for i, svc := range b.services {
			if want := fmt.Sprintf("svc-%02d", i); svc != want {
				t.Fatalf("push order broken at %d: %q, want %q", i, svc, want)
			}
		}
		if b.frames >= pushBatchMax {
			t.Fatalf("%d pushes arrived in %d frames: nothing coalesced", pushBatchMax, b.frames)
		}
		if b.batches == 0 {
			t.Fatalf("no batch frame among the %d frames", b.frames)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the burst never arrived")
	}
}

// TestTCPPusherMicroDeadlineFlush: a partial window flushes on the
// micro-deadline without waiting for more pushes.
func TestTCPPusherMicroDeadlineFlush(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	p := &tcpPusher{w: startTestWriter(t, server)}
	p.enableBatching()

	got := make(chan []byte, 1)
	go func() {
		frame, err := readFrame(client)
		if err != nil {
			close(got)
			return
		}
		got <- frame
	}()
	for i := 0; i < 3; i++ {
		if err := p.Push(notifyFrame(t, fmt.Sprintf("svc-%d", i), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case frame := <-got:
		inner, err := DecodeBatch(frame)
		if err != nil {
			t.Fatal(err)
		}
		if len(inner) != 3 {
			t.Fatalf("deadline flush carries %d frames, want 3", len(inner))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("micro-deadline flush never arrived")
	}
}

// TestTCPPusherPlainWithoutNegotiation: a pusher whose client never
// advertised featBatch writes every push as a plain frame — old
// subscribers keep working byte-identically.
func TestTCPPusherPlainWithoutNegotiation(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	p := &tcpPusher{w: startTestWriter(t, server)}

	go func() {
		_ = p.Push(notifyFrame(t, "svc.plain", 1))
	}()
	frame, err := readFrame(client)
	if err != nil {
		t.Fatal(err)
	}
	if frame[0] != frameRequest {
		t.Fatalf("frame kind = 0x%02x, want plain request 0x%02x", frame[0], frameRequest)
	}
}

// TestTCPPushBatchingEndToEndBurst floods a real TCP subscription with a
// publish burst: every event must arrive exactly once, in order, through
// whatever mix of plain and batch frames the server's coalescer emits.
func TestTCPPushBatchingEndToEndBurst(t *testing.T) {
	sched := clock.NewReal()
	t.Cleanup(sched.Stop)
	broker := NewEventBroker(sched)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := ServeTCP(ln, NewEventDispatcher(NewDispatcher(emptySource{}), broker))
	t.Cleanup(server.Close)

	const burst = 100
	events := make(chan ServiceEvent, burst+16)
	sub, err := NewSubscriber(SubscriberConfig{
		Transport:  NewTCPTransport(sched, WithTCPCallTimeout(2*time.Second)),
		Sched:      sched,
		Addrs:      []string{ln.Addr().String()},
		OnEvent:    func(ev ServiceEvent) { events <- ev },
		RenewEvery: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Close)

	deadline := time.After(5 * time.Second)
	waitSub := time.NewTicker(10 * time.Millisecond)
	defer waitSub.Stop()
	for broker.SubscriberCount() == 0 {
		select {
		case <-waitSub.C:
		case <-deadline:
			t.Fatal("subscription never established")
		}
	}

	for i := 0; i < burst; i++ {
		broker.Publish(ServiceEvent{
			Type: ServiceRegistered, Service: fmt.Sprintf("svc.burst-%03d", i),
			Node: "n1", Addr: "a:1",
		})
	}
	for i := 0; i < burst; i++ {
		select {
		case ev := <-events:
			if want := fmt.Sprintf("svc.burst-%03d", i); ev.Service != want {
				t.Fatalf("event %d = %q, want %q (reordered or dropped)", i, ev.Service, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d burst events arrived", i, burst)
		}
	}
}

// TestPooledResponseEncodeNoAliasing pins the recycle contract of the
// server reply path: bytes already written to the wire (copied by the
// transport write) stay intact after the pooled buffer is recycled and
// reused, including under concurrent encode/recycle pressure.
func TestPooledResponseEncodeNoAliasing(t *testing.T) {
	respA := &Response{Corr: 1, Status: StatusOK, Results: []any{"alpha", int64(42)}}
	out := encodePooledResponseOrFallback(respA)
	wire := append([]byte(nil), out...) // the transport write
	putFrameBuf(out)
	out2 := encodePooledResponseOrFallback(&Response{Corr: 2, Status: StatusOK, Results: []any{"bravo"}})
	putFrameBuf(out2)
	_, dec, kind, err := DecodeFrame(wire)
	if err != nil || kind != frameResponse {
		t.Fatalf("decode: kind=0x%02x err=%v", kind, err)
	}
	if dec.Corr != 1 || dec.Results[0] != "alpha" || dec.Results[1] != int64(42) {
		t.Fatalf("written response corrupted by pool reuse: %+v", dec)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				want := fmt.Sprintf("g%d-i%d", g, i)
				buf := encodePooledResponseOrFallback(&Response{Corr: uint64(i), Status: StatusOK, Results: []any{want}})
				wire := append([]byte(nil), buf...)
				putFrameBuf(buf)
				_, dec, _, err := DecodeFrame(wire)
				if err != nil || len(dec.Results) != 1 || dec.Results[0] != want {
					t.Errorf("g%d i%d: corrupted pooled encode: %+v err=%v", g, i, dec, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
