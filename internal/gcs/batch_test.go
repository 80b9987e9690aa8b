package gcs

import (
	"fmt"
	"testing"
	"time"

	"dosgi/internal/netsim"
)

// totalRecorder collects every member's total-order deliveries.
func totalRecorder(h *harness) map[string][]string {
	received := make(map[string][]string)
	for _, id := range h.dirIDs() {
		id := id
		h.members[id].OnDeliver(func(m Message) {
			if m.Ordering == Total {
				received[id] = append(received[id], m.Body.(string))
			}
		})
	}
	return received
}

// wantDelivered fails unless every member delivered exactly want, in
// order.
func wantDelivered(t *testing.T, h *harness, received map[string][]string, want []string) {
	t.Helper()
	for _, id := range h.dirIDs() {
		got := received[id]
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s delivered %v, want %v", id, got, want)
		}
	}
}

func sentMsgs(h *harness) map[string]int64 {
	out := make(map[string]int64, len(h.members))
	for id, m := range h.members {
		out[id] = m.Stats().MsgsSent
	}
	return out
}

// TestTotalBurstCostsOneOrderRequest: the k total-order broadcasts one
// member makes in one scheduler turn reach the coordinator as one order
// request and leave it as one sequenced message per member, whatever k.
func TestTotalBurstCostsOneOrderRequest(t *testing.T) {
	for _, k := range []int{1, 16} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			h := newHarness(t, 3)
			received := totalRecorder(h)
			h.startAll(t)
			// startAll ends on a heartbeat tick; the next one is 50 ms away,
			// so the deltas below count only the burst's messages.
			before := sentMsgs(h)
			var want []string
			for i := 0; i < k; i++ {
				body := fmt.Sprintf("m%d", i)
				want = append(want, body)
				if err := h.members["node01"].Broadcast(body, Total); err != nil {
					t.Fatal(err)
				}
			}
			h.eng.RunFor(5 * time.Millisecond)
			wantDelivered(t, h, received, want)
			after := sentMsgs(h)
			view := len(h.members["node00"].View().Members)
			for id, n := range map[string]int64{"node00": int64(view), "node01": 1, "node02": 0} {
				if d := after[id] - before[id]; d != n {
					t.Errorf("%s sent %d messages for a burst of %d, want %d", id, d, k, n)
				}
			}
		})
	}
}

// dropOrderReqs makes the network lose the next n order requests from
// sender.
func dropOrderReqs(h *harness, sender string, n int) {
	h.net.SetFilter(func(from, to string, msg netsim.Message) bool {
		if _, ok := msg.Payload.(orderReq); ok && from == sender && n > 0 {
			n--
			return false
		}
		return true
	})
}

// TestLostOrderRequestIsResent: an order request lost inside a view holds
// its sender's later batches back at the coordinator (sequencing them
// would overtake it) until a heartbeat finds the sender's oldest pending
// broadcast older than FailTimeout and re-sends everything pending. The
// stream then delivers everywhere, in order, exactly once, with no view
// change.
func TestLostOrderRequestIsResent(t *testing.T) {
	h := newHarness(t, 3)
	received := totalRecorder(h)
	h.startAll(t)
	viewsBefore := h.members["node00"].ViewChanges()
	dropOrderReqs(h, "node01", 1)
	for _, body := range []string{"a", "b"} {
		if err := h.members["node01"].Broadcast(body, Total); err != nil {
			t.Fatal(err)
		}
	}
	h.eng.RunFor(time.Millisecond)
	if err := h.members["node01"].Broadcast("c", Total); err != nil {
		t.Fatal(err)
	}
	h.eng.RunFor(10 * time.Millisecond)
	if st := h.members["node00"].Stats(); st.HeldBatches != 1 {
		t.Fatalf("coordinator holds %d batches back, want 1 (c waits for the lost a, b)", st.HeldBatches)
	}
	wantDelivered(t, h, received, nil)

	h.eng.RunFor(time.Second)
	wantDelivered(t, h, received, []string{"a", "b", "c"})
	if st := h.members["node00"].Stats(); st.HeldBatches != 0 {
		t.Fatalf("coordinator still holds %d batches back", st.HeldBatches)
	}
	if h.members["node00"].ViewChanges() != viewsBefore {
		t.Fatal("the lost request was recovered through a view change")
	}
}

// TestHoldBackOverflowRecovers: past maxHeldBatches the coordinator drops
// held-back batches and counts them; the sender's stall re-send still
// delivers the whole stream in order.
func TestHoldBackOverflowRecovers(t *testing.T) {
	h := newHarness(t, 3)
	received := totalRecorder(h)
	h.startAll(t)
	dropOrderReqs(h, "node01", 1)
	const n = maxHeldBatches + 44
	var want []string
	for i := 0; i < n; i++ {
		body := fmt.Sprintf("m%d", i)
		want = append(want, body)
		if err := h.members["node01"].Broadcast(body, Total); err != nil {
			t.Fatal(err)
		}
		h.eng.RunFor(100 * time.Microsecond) // one batch each
	}
	h.eng.RunFor(10 * time.Millisecond)
	st := h.members["node00"].Stats()
	if st.HeldBatches != maxHeldBatches || st.HoldOverflows != n-1-maxHeldBatches {
		t.Fatalf("hold-back %d batches, %d overflows; want %d, %d", st.HeldBatches, st.HoldOverflows, maxHeldBatches, n-1-maxHeldBatches)
	}
	h.eng.RunFor(time.Second)
	wantDelivered(t, h, received, want)
	if st := h.members["node00"].Stats(); st.HeldBatches != 0 {
		t.Fatalf("coordinator still holds %d batches back", st.HeldBatches)
	}
}

// TestViewChangeFlushKeepsSenderOrder: the sequenced message carrying a
// sender's S is lost to the sender itself and to another member, and the
// coordinator crashes before a gap request can repair it. Both survivors
// hold the sender's later P above the hole, and the view change flushes
// it; the sender, which never saw S come back, re-sends S and P in the
// new view. S must then not be delivered after P: applying a snapshot
// after the put it preceded would erase the put. The survivors drop the
// late S, and both deliver the same stream.
func TestViewChangeFlushKeepsSenderOrder(t *testing.T) {
	h := newHarness(t, 3)
	received := totalRecorder(h)
	h.startAll(t)
	h.net.SetFilter(func(from, to string, msg netsim.Message) bool {
		switch p := msg.Payload.(type) {
		case gapReq:
			return false
		case totalMsg:
			return to == "node00" || p.Batch[0].Body != "S"
		}
		return true
	})
	for _, body := range []string{"S", "P"} {
		if err := h.members["node01"].Broadcast(body, Total); err != nil {
			t.Fatal(err)
		}
		h.eng.RunFor(2 * time.Millisecond)
	}
	for _, id := range []string{"node01", "node02"} {
		if got := received[id]; len(got) != 0 {
			t.Fatalf("%s delivered %v behind the lost slot", id, got)
		}
	}
	h.crashNode("node00")
	h.net.SetFilter(nil)
	h.eng.RunFor(time.Second)

	if v := h.members["node01"].View(); len(v.Members) != 2 {
		t.Fatalf("view after the crash: %v", v.Members)
	}
	for _, id := range []string{"node01", "node02"} {
		got := fmt.Sprint(received[id])
		if got != "[P]" {
			t.Fatalf("%s delivered %s, want [P] (S is lost to it; delivering it after P reorders the sender)", id, got)
		}
	}
	if st := h.members["node01"].Stats(); st.HeldBatches != 0 {
		t.Fatalf("coordinator still holds %d batches back", st.HeldBatches)
	}
}

// TestChainFromEarlierViewWaitsForChainStart: a new view's coordinator
// flushed a sender's P past the lost slot of its S. The sender's next
// batch Q, chained to P in the old view, reaches the coordinator before
// the sender's chain-start re-send of S, P and Q. Q must wait for that
// re-send: sequenced first, it would put Q ahead of S and P on a member
// that never saw them, which then drops them as out of order.
func TestChainFromEarlierViewWaitsForChainStart(t *testing.T) {
	h := newHarness(t, 3)
	received := totalRecorder(h)
	h.startAll(t)
	coord := h.members["node00"]
	v := coord.View()
	// Slot 1 (S) was lost at the coordinator; P sits above the hole.
	coord.handleTotal(totalMsg{Epoch: v.ID, Seq: 2, From: "node01", Batch: []orderEntry{{LocalID: 2, Body: "P"}}})
	coord.issueView(v.Members, v.ID+1, v.Members)

	coord.handleOrderReq(orderReq{From: "node01", Prev: 2, Batch: []orderEntry{{LocalID: 3, Body: "Q"}}})
	if st := coord.Stats(); st.HeldBatches != 1 {
		t.Fatalf("coordinator holds %d batches back, want Q held for the chain start", st.HeldBatches)
	}
	coord.handleOrderReq(orderReq{From: "node01", Batch: []orderEntry{{LocalID: 1, Body: "S"}, {LocalID: 2, Body: "P"}, {LocalID: 3, Body: "Q"}}})
	if st := coord.Stats(); st.HeldBatches != 0 {
		t.Fatalf("coordinator still holds %d batches back after the chain start", st.HeldBatches)
	}
	h.eng.RunFor(10 * time.Millisecond)
	if got := fmt.Sprint(received["node02"]); got != "[S P Q]" {
		t.Fatalf("node02 delivered %s, want [S P Q]", got)
	}
}
