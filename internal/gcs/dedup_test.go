package gcs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"dosgi/internal/netsim"
	"dosgi/internal/sim"
)

// checkDeliveredIDs compares d against the map model after an operation:
// membership around every id the tape touched, the record's invariants,
// and its cardinality.
func checkDeliveredIDs(t testing.TB, d *deliveredIDs, model map[int64]bool, probes []int64) {
	t.Helper()
	for _, id := range probes {
		for _, q := range []int64{id - 1, id, id + 1} {
			if got := d.has(q); got != model[q] {
				t.Fatalf("has(%d) = %v, model %v (floor %d, held %v)", q, got, model[q], d.floor, d.held)
			}
		}
	}
	n := d.floor
	for i, r := range d.held {
		if r.lo > r.hi {
			t.Fatalf("held run %d inverted: %v", i, d.held)
		}
		if i > 0 && d.held[i-1].hi+1 >= r.lo {
			t.Fatalf("held runs %d,%d overlap or touch: %v", i-1, i, d.held)
		}
		if r.hi >= 1 && r.lo <= d.floor+1 {
			t.Fatalf("held run %v touches the floor %d", r, d.floor)
		}
		n += r.hi - r.lo + 1
	}
	if n != int64(len(model)) {
		t.Fatalf("record holds %d ids, model %d (floor %d, held %v)", n, len(model), d.floor, d.held)
	}
}

// runIDTape marks every id of tape in order, checking each answer and
// the whole record against a map[int64]bool model.
func runIDTape(t testing.TB, tape []int64) {
	t.Helper()
	var d deliveredIDs
	model := make(map[int64]bool)
	for i, id := range tape {
		want := !model[id]
		model[id] = true
		if got := d.mark(id); got != want {
			t.Fatalf("op %d: mark(%d) = %v, model %v", i, id, got, want)
		}
		checkDeliveredIDs(t, &d, model, tape[:i+1])
	}
}

// TestDeliveredIDsMatchModel runs seeded tapes of marks against the
// map the record replaced: dense, reordered, duplicated and sparse id
// sequences, ids <= 0 included, must get the map's answers.
func TestDeliveredIDsMatchModel(t *testing.T) {
	gens := map[string]func(rng *rand.Rand, n int) []int64{
		"in-order": func(_ *rand.Rand, n int) []int64 {
			tape := make([]int64, n)
			for i := range tape {
				tape[i] = int64(i + 1)
			}
			return tape
		},
		"reordered": func(rng *rand.Rand, n int) []int64 {
			tape := make([]int64, n)
			for i := range tape {
				tape[i] = int64(i + 1)
			}
			// Swap within a small window: sequencing out of local order.
			for i := range tape {
				j := i + rng.Intn(6)
				if j < n {
					tape[i], tape[j] = tape[j], tape[i]
				}
			}
			return tape
		},
		"duplicated": func(rng *rand.Rand, n int) []int64 {
			var tape []int64
			for id := int64(1); len(tape) < n; id++ {
				tape = append(tape, id)
				if rng.Intn(3) == 0 {
					tape = append(tape, id-int64(rng.Intn(4)))
				}
			}
			return tape[:n]
		},
		"sparse": func(rng *rand.Rand, n int) []int64 {
			tape := make([]int64, n)
			start := int64(rng.Intn(50) + 2) // a late joiner: ids below never arrive
			for i := range tape {
				tape[i] = start + int64(i)
				if rng.Intn(4) == 0 {
					tape[i] = int64(rng.Intn(4 * n))
				}
			}
			return tape
		},
		"non-positive": func(rng *rand.Rand, n int) []int64 {
			tape := make([]int64, n)
			for i := range tape {
				tape[i] = int64(rng.Intn(24) - 12)
			}
			return tape
		},
	}
	for name, gen := range gens {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tape := gen(rng, 200)
			t.Run(fmt.Sprintf("%s/%d", name, seed), func(t *testing.T) { runIDTape(t, tape) })
		}
	}
}

// FuzzDeliveredIDs replays arbitrary mark tapes against the map model.
// Each input byte is one id, mostly in a small window so that runs meet,
// merge and get absorbed; two byte values stand for the int64 extremes.
func FuzzDeliveredIDs(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4})
	f.Add([]byte{3, 1, 2, 5, 5, 4})
	f.Add([]byte{40, 41, 42, 10, 1})
	f.Add([]byte{0x80, 0xff, 0xfe, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		tape := make([]int64, len(data))
		for i, b := range data {
			switch b {
			case 0xff:
				tape[i] = math.MaxInt64
			case 0xfe:
				tape[i] = math.MinInt64
			default:
				tape[i] = int64(int8(b)) // -128 .. 127
			}
		}
		runIDTape(t, tape)
	})
}

// TestInstallViewFlushDeliversDuplicateOnce: a resubmission sequenced
// twice can sit in the reorder buffer twice, behind a lost slot, when
// the view changes. The flush delivers the first copy only, as
// handleTotal would.
func TestInstallViewFlushDeliversDuplicateOnce(t *testing.T) {
	h := newHarness(t, 3)
	var got []string
	h.members["node02"].OnDeliver(func(m Message) {
		if m.Ordering == Total {
			got = append(got, m.Body.(string))
		}
	})
	h.startAll(t)
	m := h.members["node02"]
	v := m.View()
	// Slot 1 was lost; slots 2 and 3 carry the same (sender, local id).
	for _, seq := range []int64{2, 3} {
		m.handleTotal(totalMsg{Epoch: v.ID, Seq: seq, From: "node01", Batch: []orderEntry{{LocalID: 7, Body: "x"}}})
	}
	if len(got) != 0 {
		t.Fatalf("delivered %v behind a hole", got)
	}
	m.installView(View{ID: v.ID + 1, Members: v.Members})
	if len(got) != 1 || got[0] != "x" {
		t.Fatalf("flush delivered %v, want [x]", got)
	}
}

// TestTotalOrderReorderingWithFailover drives the coordinator's
// hold-back on a live group: latencies alternating 1 ms / 10 ms on every
// link make one sender's order requests, sent a round apart, reach the
// coordinator out of local-id order,
// and the coordinator crashes mid-stream, so requests in flight to it
// are resubmitted to the successor. Every survivor must deliver every
// message exactly once, all in the same order, each sender's messages
// in the order it broadcast them, and hold no dedup run once the stream
// is quiet.
func TestTotalOrderReorderingWithFailover(t *testing.T) {
	eng := sim.New(5)
	lat := make(map[[2]string]int)
	net := netsim.NewNetwork(eng, netsim.WithLatencyFunc(func(from, to string) time.Duration {
		link := [2]string{from, to}
		lat[link]++
		if lat[link]%2 == 0 {
			return 10 * time.Millisecond
		}
		return time.Millisecond
	}))
	h := &harness{eng: eng, net: net, dir: NewDirectory(), members: make(map[string]*Member)}
	for i := 0; i < 4; i++ {
		h.addMember(t, fmt.Sprintf("node%02d", i))
	}
	survivors := []string{"node01", "node02", "node03"}
	received := make(map[string][]string)
	for _, id := range survivors {
		id := id
		h.members[id].OnDeliver(func(m Message) {
			if m.Ordering == Total {
				received[id] = append(received[id], m.Body.(string))
			}
		})
	}
	h.startAll(t)

	const rounds = 60
	maxHeld := 0
	for i := 0; i < rounds; i++ {
		if i == rounds/2 {
			h.crashNode("node00")
		}
		// A round's broadcasts of one sender travel as one batch; the
		// next round's batch, 1 ms later on the alternate latency,
		// overtakes it every other round.
		for _, body := range []string{"node02-a", "node02-b", "node03"} {
			sender := body[:6]
			if err := h.members[sender].Broadcast(fmt.Sprintf("%s-%d", body, i), Total); err != nil {
				t.Fatal(err)
			}
		}
		h.eng.RunFor(time.Millisecond)
		for _, m := range h.members {
			if held := m.Stats().HeldBatches; held > maxHeld {
				maxHeld = held
			}
		}
	}
	h.eng.RunFor(3 * time.Second)

	if maxHeld == 0 {
		t.Fatal("no order request ever reached the coordinator ahead of its sender's earlier one: the hold-back never engaged")
	}
	ref := received[survivors[0]]
	if len(ref) != 3*rounds {
		t.Fatalf("%s delivered %d of %d", survivors[0], len(ref), 3*rounds)
	}
	seen := make(map[string]bool, len(ref))
	for _, body := range ref {
		if seen[body] {
			t.Fatalf("%s delivered %s twice", survivors[0], body)
		}
		seen[body] = true
	}
	for _, id := range survivors {
		got := received[id]
		if len(got) != len(ref) {
			t.Fatalf("%s delivered %d, %s %d", id, len(got), survivors[0], len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("total order differs at %s[%d]: %s vs %s", id, i, got[i], ref[i])
			}
		}
		if st := h.members[id].Stats(); st.DedupHeld != 0 || st.DedupSenders != 2 {
			t.Fatalf("%s dedup state after quiesce: %d senders, %d held runs", id, st.DedupSenders, st.DedupHeld)
		}
		// Per-sender FIFO: node02-a-i before node02-b-i in every round,
		// and each sender's rounds in order.
		pos := make(map[string]int, len(got))
		for i, body := range got {
			pos[body] = i
		}
		var node02, node03 []string
		for i := 0; i < rounds; i++ {
			node02 = append(node02, fmt.Sprintf("node02-a-%d", i), fmt.Sprintf("node02-b-%d", i))
			node03 = append(node03, fmt.Sprintf("node03-%d", i))
		}
		for _, chain := range [][]string{node02, node03} {
			for i := 1; i < len(chain); i++ {
				if pos[chain[i-1]] > pos[chain[i]] {
					t.Fatalf("%s delivered %s after %s", id, chain[i-1], chain[i])
				}
			}
		}
	}
}

// TestTotalOrderDedupStateBounded: the dedup state is one record per
// sender however many messages went through — not one entry per
// message, as the nested map it replaced held.
func TestTotalOrderDedupStateBounded(t *testing.T) {
	const total = 200_000
	h := newHarness(t, 3)
	delivered := 0
	for _, id := range h.dirIDs() {
		h.members[id].OnDeliver(func(m Message) { delivered++ })
	}
	h.startAll(t)
	senders := h.dirIDs()
	for sent := 0; sent < total; {
		for i := 0; i < 256 && sent < total; i++ {
			if err := h.members[senders[sent%len(senders)]].Broadcast(sent, Total); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		// One heartbeat interval a batch: the acks it carries keep the
		// coordinator's retransmission log pruned.
		h.eng.RunFor(50 * time.Millisecond)
		if delivered != len(senders)*sent {
			t.Fatalf("%d deliveries after %d broadcasts to %d members", delivered, sent, len(senders))
		}
	}
	for _, id := range senders {
		st := h.members[id].Stats()
		if st.DedupSenders > len(senders) || st.DedupHeld != 0 {
			t.Fatalf("%s dedup state after %d messages: %d senders, %d held runs", id, total, st.DedupSenders, st.DedupHeld)
		}
	}
}
