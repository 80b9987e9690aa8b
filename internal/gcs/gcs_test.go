package gcs

import (
	"fmt"
	"testing"
	"time"

	"dosgi/internal/netsim"
	"dosgi/internal/sim"
)

// harness wires n members over a simulated network.
type harness struct {
	eng     *sim.Engine
	net     *netsim.Network
	dir     *Directory
	members map[string]*Member
	tweak   func(*Config) // applied to every member's config
}

func newHarness(t *testing.T, n int) *harness {
	return newHarnessCfg(t, n, nil)
}

func newHarnessCfg(t *testing.T, n int, tweak func(*Config)) *harness {
	t.Helper()
	eng := sim.New(1)
	net := netsim.NewNetwork(eng, netsim.WithLatency(time.Millisecond))
	h := &harness{eng: eng, net: net, dir: NewDirectory(), members: make(map[string]*Member), tweak: tweak}
	for i := 0; i < n; i++ {
		h.addMember(t, fmt.Sprintf("node%02d", i))
	}
	return h
}

func (h *harness) addMember(t *testing.T, id string) *Member {
	t.Helper()
	nic := h.net.AttachNode(id)
	ip := netsim.IP("ip-" + id)
	if err := h.net.AssignIP(ip, id); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		NodeID:    id,
		Addr:      netsim.Addr{IP: ip, Port: 7000},
		NIC:       nic,
		Directory: h.dir,
	}
	if h.tweak != nil {
		h.tweak(&cfg)
	}
	m, err := NewMember(h.eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.members[id] = m
	return m
}

func (h *harness) startAll(t *testing.T) {
	t.Helper()
	for _, id := range h.dirIDs() {
		if err := h.members[id].Start(); err != nil {
			t.Fatalf("start %s: %v", id, err)
		}
	}
	// Let membership settle.
	h.eng.RunFor(2 * time.Second)
}

func (h *harness) dirIDs() []string {
	ids := make([]string, 0, len(h.members))
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("node%02d", i)
		if _, ok := h.members[id]; ok {
			ids = append(ids, id)
		}
	}
	return ids
}

func (h *harness) crashNode(id string) {
	h.members[id].Crash()
	if nic, ok := h.net.NIC(id); ok {
		nic.SetUp(false)
	}
}

func sameView(t *testing.T, members []*Member, wantSize int) View {
	t.Helper()
	var ref View
	for i, m := range members {
		v := m.View()
		if i == 0 {
			ref = v
			continue
		}
		if v.ID != ref.ID || len(v.Members) != len(ref.Members) {
			t.Fatalf("views diverge: %v vs %v", ref, v)
		}
		for j := range v.Members {
			if v.Members[j] != ref.Members[j] {
				t.Fatalf("views diverge: %v vs %v", ref, v)
			}
		}
	}
	if wantSize > 0 && len(ref.Members) != wantSize {
		t.Fatalf("view size = %d, want %d (%v)", len(ref.Members), wantSize, ref)
	}
	return ref
}

func TestSingletonView(t *testing.T) {
	h := newHarness(t, 1)
	h.startAll(t)
	v := h.members["node00"].View()
	if len(v.Members) != 1 || v.Members[0] != "node00" {
		t.Fatalf("view = %v", v)
	}
	if !h.members["node00"].IsCoordinator() {
		t.Fatal("singleton is not coordinator")
	}
}

func TestGroupFormation(t *testing.T) {
	h := newHarness(t, 5)
	h.startAll(t)
	var ms []*Member
	for _, id := range h.dirIDs() {
		ms = append(ms, h.members[id])
	}
	v := sameView(t, ms, 5)
	if v.Coordinator() != "node00" {
		t.Fatalf("coordinator = %s", v.Coordinator())
	}
	if !h.members["node00"].IsCoordinator() || h.members["node01"].IsCoordinator() {
		t.Fatal("IsCoordinator inconsistent")
	}
}

func TestLateJoin(t *testing.T) {
	h := newHarness(t, 3)
	h.startAll(t)
	late := h.addMember(t, "node99")
	if err := late.Start(); err != nil {
		t.Fatal(err)
	}
	h.eng.RunFor(time.Second)
	ms := []*Member{h.members["node00"], h.members["node01"], h.members["node02"], late}
	sameView(t, ms, 4)
}

func TestGracefulLeave(t *testing.T) {
	h := newHarness(t, 3)
	h.startAll(t)
	if err := h.members["node01"].Stop(); err != nil {
		t.Fatal(err)
	}
	h.eng.RunFor(time.Second)
	ms := []*Member{h.members["node00"], h.members["node02"]}
	v := sameView(t, ms, 2)
	if v.Contains("node01") {
		t.Fatal("leaver still in view")
	}
}

func TestCoordinatorGracefulLeave(t *testing.T) {
	h := newHarness(t, 3)
	h.startAll(t)
	if err := h.members["node00"].Stop(); err != nil {
		t.Fatal(err)
	}
	h.eng.RunFor(time.Second)
	ms := []*Member{h.members["node01"], h.members["node02"]}
	v := sameView(t, ms, 2)
	if v.Coordinator() != "node01" {
		t.Fatalf("coordinator = %s", v.Coordinator())
	}
}

func TestCrashDetection(t *testing.T) {
	h := newHarness(t, 4)
	h.startAll(t)
	crashedAt := h.eng.Now()
	h.crashNode("node02")
	h.eng.RunFor(2 * time.Second)
	var ms []*Member
	for _, id := range []string{"node00", "node01", "node03"} {
		ms = append(ms, h.members[id])
	}
	v := sameView(t, ms, 3)
	if v.Contains("node02") {
		t.Fatal("crashed node still in view")
	}
	_ = crashedAt
}

func TestCoordinatorCrashFailover(t *testing.T) {
	h := newHarness(t, 4)
	h.startAll(t)
	h.crashNode("node00")
	h.eng.RunFor(2 * time.Second)
	var ms []*Member
	for _, id := range []string{"node01", "node02", "node03"} {
		ms = append(ms, h.members[id])
	}
	v := sameView(t, ms, 3)
	if v.Coordinator() != "node01" {
		t.Fatalf("new coordinator = %s", v.Coordinator())
	}
	if !h.members["node01"].IsCoordinator() {
		t.Fatal("node01 does not believe it coordinates")
	}
}

func TestCascadedCrashes(t *testing.T) {
	h := newHarness(t, 5)
	h.startAll(t)
	h.crashNode("node00")
	h.crashNode("node01")
	h.eng.RunFor(3 * time.Second)
	var ms []*Member
	for _, id := range []string{"node02", "node03", "node04"} {
		ms = append(ms, h.members[id])
	}
	v := sameView(t, ms, 3)
	if v.Coordinator() != "node02" {
		t.Fatalf("coordinator = %s", v.Coordinator())
	}
}

func TestViewChangeNotifications(t *testing.T) {
	h := newHarness(t, 2)
	var views []View
	h.members["node00"].OnViewChange(func(v View) { views = append(views, v) })
	h.startAll(t)
	if len(views) == 0 {
		t.Fatal("no view notifications")
	}
	last := views[len(views)-1]
	if len(last.Members) != 2 {
		t.Fatalf("last view = %v", last)
	}
	// IDs strictly increase.
	for i := 1; i < len(views); i++ {
		if views[i].ID <= views[i-1].ID {
			t.Fatalf("view ids not monotonic: %v", views)
		}
	}
}

func TestFIFOBroadcast(t *testing.T) {
	h := newHarness(t, 3)
	received := make(map[string][]int)
	for _, id := range h.dirIDs() {
		id := id
		h.members[id].OnDeliver(func(m Message) {
			received[id] = append(received[id], m.Body.(int))
		})
	}
	h.startAll(t)
	for i := 0; i < 10; i++ {
		if err := h.members["node01"].Broadcast(i, FIFO); err != nil {
			t.Fatal(err)
		}
	}
	h.eng.RunFor(time.Second)
	for _, id := range h.dirIDs() {
		got := received[id]
		if len(got) != 10 {
			t.Fatalf("%s received %d messages", id, len(got))
		}
		for i := range got {
			if got[i] != i {
				t.Fatalf("%s out of order: %v", id, got)
			}
		}
	}
}

func TestFIFOOrderWithReorderingNetwork(t *testing.T) {
	// Alternating per-message latencies cannot reorder per-sender delivery.
	eng := sim.New(3)
	lat := 0
	net := netsim.NewNetwork(eng, netsim.WithLatencyFunc(func(from, to string) time.Duration {
		lat++
		if lat%2 == 0 {
			return 10 * time.Millisecond
		}
		return time.Millisecond
	}))
	h := &harness{eng: eng, net: net, dir: NewDirectory(), members: make(map[string]*Member)}
	h.addMember(t, "node00")
	h.addMember(t, "node01")
	var got []int
	h.members["node01"].OnDeliver(func(m Message) { got = append(got, m.Body.(int)) })
	h.startAll(t)
	for i := 0; i < 8; i++ {
		if err := h.members["node00"].Broadcast(i, FIFO); err != nil {
			t.Fatal(err)
		}
	}
	h.eng.RunFor(time.Second)
	if len(got) != 8 {
		t.Fatalf("received %d", len(got))
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated under reordering: %v", got)
		}
	}
}

func TestTotalOrderBroadcast(t *testing.T) {
	h := newHarness(t, 4)
	received := make(map[string][]string)
	for _, id := range h.dirIDs() {
		id := id
		h.members[id].OnDeliver(func(m Message) {
			received[id] = append(received[id], m.Body.(string))
		})
	}
	h.startAll(t)
	// Two senders interleaving: all members must deliver the identical
	// global sequence.
	for i := 0; i < 5; i++ {
		if err := h.members["node01"].Broadcast(fmt.Sprintf("a%d", i), Total); err != nil {
			t.Fatal(err)
		}
		if err := h.members["node03"].Broadcast(fmt.Sprintf("b%d", i), Total); err != nil {
			t.Fatal(err)
		}
	}
	h.eng.RunFor(time.Second)
	ref := received["node00"]
	if len(ref) != 10 {
		t.Fatalf("node00 received %d of 10", len(ref))
	}
	for _, id := range h.dirIDs() {
		got := received[id]
		if len(got) != len(ref) {
			t.Fatalf("%s received %d, ref %d", id, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("total order differs at %s[%d]: %v vs %v", id, i, got, ref)
			}
		}
	}
}

func TestTotalOrderSurvivesCoordinatorCrash(t *testing.T) {
	h := newHarness(t, 4)
	received := make(map[string][]string)
	for _, id := range h.dirIDs() {
		id := id
		h.members[id].OnDeliver(func(m Message) {
			if m.Ordering == Total {
				received[id] = append(received[id], m.Body.(string))
			}
		})
	}
	h.startAll(t)

	// Crash the coordinator, then immediately broadcast from a survivor:
	// the request targets the dead coordinator and must be resubmitted to
	// the new one after failover.
	h.crashNode("node00")
	if err := h.members["node02"].Broadcast("after-crash", Total); err != nil {
		t.Fatal(err)
	}
	h.eng.RunFor(3 * time.Second)

	for _, id := range []string{"node01", "node02", "node03"} {
		got := received[id]
		if len(got) != 1 || got[0] != "after-crash" {
			t.Fatalf("%s received %v, want exactly [after-crash]", id, got)
		}
	}
}

func TestBroadcastBeforeJoinFails(t *testing.T) {
	h := newHarness(t, 1)
	if err := h.members["node00"].Broadcast("x", FIFO); err != ErrNotRunning {
		t.Fatalf("err = %v", err)
	}
}

func TestViewChangesCounterAndDetectionLatency(t *testing.T) {
	h := newHarness(t, 3)
	h.startAll(t)
	before := h.members["node00"].ViewChanges()
	crashAt := h.eng.Now()
	h.crashNode("node02")

	var detectedAt time.Duration
	h.members["node00"].OnViewChange(func(v View) {
		if !v.Contains("node02") && detectedAt == 0 {
			detectedAt = h.eng.Now()
		}
	})
	h.eng.RunFor(2 * time.Second)
	if h.members["node00"].ViewChanges() <= before {
		t.Fatal("no view change after crash")
	}
	latency := detectedAt - crashAt
	// Default detector: 50ms heartbeats, 200ms timeout; detection should
	// land within ~400ms.
	if latency <= 0 || latency > 500*time.Millisecond {
		t.Fatalf("detection latency = %v", latency)
	}
}

func TestRejoinAfterFalseExclusion(t *testing.T) {
	h := newHarness(t, 3)
	h.startAll(t)
	// Partition node02 from everyone long enough to be excluded...
	h.net.Partition("node00", "node02")
	h.net.Partition("node01", "node02")
	h.eng.RunFor(time.Second)
	v := h.members["node00"].View()
	if v.Contains("node02") {
		t.Fatal("partitioned node still in primary view")
	}
	// ... then heal: node02 must rejoin.
	h.net.HealAll()
	h.eng.RunFor(2 * time.Second)
	ms := []*Member{h.members["node00"], h.members["node01"], h.members["node02"]}
	sameView(t, ms, 3)
}

func TestDirectory(t *testing.T) {
	d := NewDirectory()
	d.Register("b", netsim.Addr{IP: "ip-b", Port: 1})
	d.Register("a", netsim.Addr{IP: "ip-a", Port: 1})
	if got := d.All(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("All = %v", got)
	}
	addr, ok := d.Lookup("a")
	if !ok || addr.IP != "ip-a" {
		t.Fatalf("Lookup = %v, %v", addr, ok)
	}
	d.Unregister("a")
	if _, ok := d.Lookup("a"); ok {
		t.Fatal("unregister failed")
	}
}

// TestTotalOrderGapRetransmission: a totalMsg lost during a partition
// blip too short to change the view leaves a hole in one member's
// sequence stream. The next arrival exposes the gap and the member asks
// the coordinator to retransmit from its epoch log — the stream unwedges
// without any view change.
func TestTotalOrderGapRetransmission(t *testing.T) {
	h := newHarness(t, 3)
	received := make(map[string][]string)
	for _, id := range h.dirIDs() {
		id := id
		h.members[id].OnDeliver(func(m Message) {
			received[id] = append(received[id], m.Body.(string))
		})
	}
	h.startAll(t)
	viewsBefore := h.members["node02"].ViewChanges()

	// node02 loses the coordinator's fan-out for two broadcasts.
	h.net.Partition("node00", "node02")
	if err := h.members["node01"].Broadcast("lost1", Total); err != nil {
		t.Fatal(err)
	}
	if err := h.members["node01"].Broadcast("lost2", Total); err != nil {
		t.Fatal(err)
	}
	h.eng.RunFor(50 * time.Millisecond)
	h.net.Heal("node00", "node02")

	// The next broadcast arrives above node02's expected sequence: the
	// gap request fetches the lost slots and everything delivers in order.
	if err := h.members["node01"].Broadcast("after", Total); err != nil {
		t.Fatal(err)
	}
	h.eng.RunFor(500 * time.Millisecond)

	want := []string{"lost1", "lost2", "after"}
	got := received["node02"]
	if len(got) != len(want) {
		t.Fatalf("node02 received %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("node02 order = %v, want %v", got, want)
		}
	}
	if h.members["node02"].ViewChanges() != viewsBefore {
		t.Fatal("gap healed through a view change instead of retransmission")
	}
}

// TestTotalOrderRetransmissionBeyondFixedCap is the regression for the
// old fixed 1024-entry retransmission log: a member stalled further back
// than the cap could only recover at the next view change. The log is
// now pruned exactly to the minimum per-member ack watermark
// (piggybacked on heartbeats), so a member that acked nothing holds the
// whole epoch retransmittable — here 1500 messages, well past the old
// cap — and the stall heals in place.
func TestTotalOrderRetransmissionBeyondFixedCap(t *testing.T) {
	h := newHarness(t, 3)
	received := make(map[string][]int)
	for _, id := range h.dirIDs() {
		id := id
		h.members[id].OnDeliver(func(m Message) {
			if m.Ordering == Total {
				received[id] = append(received[id], m.Body.(int))
			}
		})
	}
	h.startAll(t)
	viewsBefore := h.members["node02"].ViewChanges()

	// node02 loses the coordinator's fan-out for 1500 broadcasts — a
	// blip kept inside the failure-detector window.
	h.net.Partition("node00", "node02")
	const stalled = 1500
	for i := 0; i < stalled; i++ {
		if err := h.members["node01"].Broadcast(i, Total); err != nil {
			t.Fatal(err)
		}
	}
	h.eng.RunFor(100 * time.Millisecond)
	// The whole backlog is still retransmittable: node02 never acked.
	if got := h.members["node00"].Stats().TotalLogSize; got < stalled {
		t.Fatalf("coordinator log holds %d of %d unacked messages", got, stalled)
	}
	h.net.Heal("node00", "node02")

	// The next arrival exposes the gap; iterative retransmission rounds
	// (64 messages each) drain the backlog without any view change.
	if err := h.members["node01"].Broadcast(stalled, Total); err != nil {
		t.Fatal(err)
	}
	h.eng.RunFor(2 * time.Second)

	got := received["node02"]
	if len(got) != stalled+1 {
		t.Fatalf("node02 received %d of %d", len(got), stalled+1)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("node02 out of order at %d: %d", i, got[i])
		}
	}
	if h.members["node02"].ViewChanges() != viewsBefore {
		t.Fatal("stall healed through a view change instead of retransmission")
	}
	// Exact pruning: once every member's heartbeat acked the full
	// stream, the coordinator's log drains completely — no fixed floor.
	h.eng.RunFor(500 * time.Millisecond)
	if got := h.members["node00"].Stats().TotalLogSize; got != 0 {
		t.Fatalf("log holds %d entries after all members acked", got)
	}
}

// TestTotalOrderLogPrunesToWatermark: in steady state (everyone live and
// acking), the retransmission log shrinks to the un-acked in-flight tail
// within a heartbeat round rather than accumulating an epoch of history.
func TestTotalOrderLogPrunesToWatermark(t *testing.T) {
	h := newHarness(t, 3)
	h.startAll(t)
	for i := 0; i < 200; i++ {
		if err := h.members["node01"].Broadcast(i, Total); err != nil {
			t.Fatal(err)
		}
	}
	h.eng.RunFor(time.Second)
	if got := h.members["node00"].Stats().TotalLogSize; got != 0 {
		t.Fatalf("log holds %d entries in steady state, want 0", got)
	}
}

// TestTotalOrderLogBoundedInSingletonView: heartbeat acks never arrive
// in a one-member view, so log pruning must also ride the coordinator's
// own sequencing and delivery path — a lone survivor's log drains
// instead of growing for the lifetime of the epoch.
func TestTotalOrderLogBoundedInSingletonView(t *testing.T) {
	h := newHarness(t, 1)
	h.startAll(t)
	for i := 0; i < 500; i++ {
		if err := h.members["node00"].Broadcast(i, Total); err != nil {
			t.Fatal(err)
		}
	}
	h.eng.RunFor(time.Second)
	if got := h.members["node00"].Stats().TotalLogSize; got != 0 {
		t.Fatalf("singleton log holds %d entries after deliveries, want 0", got)
	}
}

// TestStaleViewHeartbeatRepair: a member that misses the viewMsg
// installing the current view (partitioned from the coordinator at just
// the wrong moment, but healed before the failure detector fires) keeps
// heartbeating from its stale view. The coordinator notices the stale
// view id on the heartbeat and re-sends the current view.
func TestStaleViewHeartbeatRepair(t *testing.T) {
	h := newHarness(t, 4)
	h.startAll(t)
	sameView(t, []*Member{h.members["node00"], h.members["node01"],
		h.members["node02"], h.members["node03"]}, 4)

	// node03 crashes; while the failure detector converges, node01 is cut
	// off from the coordinator so the successor viewMsg never reaches it.
	h.crashNode("node03")
	h.eng.RunFor(120 * time.Millisecond)
	h.net.Partition("node00", "node01")
	h.eng.RunFor(150 * time.Millisecond) // view [n0,n1,n2] issued meanwhile
	h.net.Heal("node00", "node01")

	// One heartbeat round later the straggler has the current view.
	h.eng.RunFor(time.Second)
	sameView(t, []*Member{h.members["node00"], h.members["node01"],
		h.members["node02"]}, 3)
}

// oneWayTotalLoss cuts coordinator→victim total-order traffic only:
// every other message — heartbeats, views, joins, the victim's own
// sends — still flows, so the failure detector never fires. This is the
// asymmetric fault Partition cannot model.
func oneWayTotalLoss(h *harness, coord, victim string) {
	h.net.SetFilter(func(from, to string, msg netsim.Message) bool {
		if from == coord && to == victim {
			if _, isTotal := msg.Payload.(totalMsg); isTotal {
				return false
			}
		}
		return true
	})
}

// TestOneWayLossGrowsLogUnbounded pins the failure mode: with the cap
// disabled, a victim whose inbound total-order traffic is lost (but
// whose heartbeats still arrive, acking nothing) holds the prune
// watermark at zero forever, and the coordinator's retransmission log
// grows one entry per broadcast with no alarm raised.
func TestOneWayLossGrowsLogUnbounded(t *testing.T) {
	h := newHarnessCfg(t, 3, func(c *Config) { c.MaxTotalLog = -1 })
	h.startAll(t)
	coord := h.members["node00"]
	if !coord.IsCoordinator() {
		t.Fatal("node00 is not the coordinator")
	}
	oneWayTotalLoss(h, "node00", "node02")
	for i := 0; i < 120; i++ {
		if err := h.members["node01"].Broadcast(i, Total); err != nil {
			t.Fatal(err)
		}
		h.eng.RunFor(5 * time.Millisecond)
	}
	h.eng.RunFor(time.Second)
	st := coord.Stats()
	if st.TotalLogSize < 120 {
		t.Fatalf("log holds %d entries, want >= 120 (the unbounded-growth baseline)", st.TotalLogSize)
	}
	if st.LogOverflows != 0 {
		t.Fatalf("alarm fired %d times with the cap disabled", st.LogOverflows)
	}
	if v := coord.View(); len(v.Members) != 3 {
		t.Fatalf("membership changed to %v; one-way loss must be invisible to the failure detector", v.Members)
	}
}

// TestOneWayLossLogOverflowForcesViewChange is the fix: past MaxTotalLog
// the coordinator raises the LogOverflows alarm and forces a view change
// excluding the pinned member, so the epoch reset bounds the log while
// the healthy majority keeps delivering.
func TestOneWayLossLogOverflowForcesViewChange(t *testing.T) {
	const cap = 32
	h := newHarnessCfg(t, 3, func(c *Config) { c.MaxTotalLog = cap })
	h.startAll(t)
	coord := h.members["node00"]
	if !coord.IsCoordinator() {
		t.Fatal("node00 is not the coordinator")
	}

	var delivered []int
	h.members["node01"].OnDeliver(func(msg Message) {
		if msg.Ordering == Total {
			delivered = append(delivered, msg.Body.(int))
		}
	})

	oneWayTotalLoss(h, "node00", "node02")
	logPeak := 0
	for i := 0; i < 120; i++ {
		if err := h.members["node01"].Broadcast(i, Total); err != nil {
			t.Fatal(err)
		}
		h.eng.RunFor(5 * time.Millisecond)
		if n := coord.Stats().TotalLogSize; n > logPeak {
			logPeak = n
		}
	}
	h.eng.RunFor(time.Second)

	st := coord.Stats()
	if st.LogOverflows == 0 {
		t.Fatal("log overflow alarm never fired")
	}
	// The forced view change resets the epoch, so the log can never grow
	// past the cap plus the single append that trips it.
	if logPeak > cap+1 {
		t.Fatalf("log peaked at %d entries, want <= %d", logPeak, cap+1)
	}
	// The pinned member was excluded at least once: the healthy pair kept
	// a working group.
	v := coord.View()
	if !v.Contains("node00") || !v.Contains("node01") {
		t.Fatalf("healthy members missing from view %v", v.Members)
	}
	// The healthy subscriber kept receiving the stream across the forced
	// epoch changes (resubmission covers the boundary; duplicates are
	// deduped on sender+local id).
	if len(delivered) < 110 {
		t.Fatalf("healthy member delivered only %d/120 broadcasts", len(delivered))
	}
	seen := make(map[int]bool)
	for _, b := range delivered {
		if seen[b] {
			t.Fatalf("duplicate delivery of %d", b)
		}
		seen[b] = true
	}
}
