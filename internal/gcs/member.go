package gcs

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/netsim"
)

// Errors returned by membership operations.
var (
	// ErrNotRunning is returned when broadcasting before a view is
	// installed.
	ErrNotRunning = errors.New("gcs: member not running")
	// ErrStopped is returned after Stop or Crash.
	ErrStopped = errors.New("gcs: member stopped")
)

type memberState int

const (
	stateNew memberState = iota + 1
	stateJoining
	stateRunning
	stateStopped
)

// Config configures a group member.
type Config struct {
	// NodeID is the member's unique identifier; it also determines
	// coordinator election order.
	NodeID string
	// Addr is the member's group-communication endpoint; its IP must be
	// owned by the node behind NIC.
	Addr netsim.Addr
	// NIC is the node's network attachment.
	NIC *netsim.NIC
	// Directory is the shared address book.
	Directory *Directory
	// HeartbeatInterval defaults to 50ms.
	HeartbeatInterval time.Duration
	// FailTimeout is the suspicion threshold; defaults to 4x the heartbeat
	// interval. Twice it bounds the wait for an existing group before
	// Start forms a singleton view.
	FailTimeout time.Duration
	// MaxTotalLog caps the coordinator's total-order retransmission log.
	// The log is normally exact — pruned to the slowest member's
	// acknowledged watermark — and the failure detector bounds the lag,
	// because a member too partitioned to ack gets excluded. But a
	// ONE-DIRECTIONAL fault defeats that: when coordinator→member
	// traffic is lost while the member's heartbeats (carrying its stale
	// ack) still arrive, the member looks alive forever, its watermark
	// pins the prune point, and the log grows without bound. Past the
	// cap the coordinator raises the LogOverflows alarm and forces a
	// view change excluding the most-lagged member(s), which resets the
	// epoch and the log. Defaults to 4096 entries; negative disables
	// the cap (the pre-alarm behaviour).
	MaxTotalLog int
}

func (c *Config) applyDefaults() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 50 * time.Millisecond
	}
	if c.FailTimeout <= 0 {
		c.FailTimeout = 4 * c.HeartbeatInterval
	}
	if c.MaxTotalLog == 0 {
		c.MaxTotalLog = 4096
	}
}

// Member is one process participating in the group.
type Member struct {
	sched clock.Scheduler
	cfg   Config

	// mu guards all mutable state; callbacks (view handlers, deliveries)
	// always run with it released.
	mu       sync.Mutex
	state    memberState
	view     View
	lastSeen map[string]time.Duration

	// onView and onMsg are copy-on-write: a register installs a new
	// slice, so a slice read under mu stays valid while its handlers run
	// with mu released.
	onView []func(View)
	onMsg  []func(Message)

	hbTimer    clock.Timer
	checkTimer clock.Timer
	joinTimer  clock.Timer

	// FIFO broadcast state.
	fifoSendSeq int64
	fifoNext    map[string]int64
	fifoBuf     map[string]map[int64]fifoMsg

	// Total-order broadcast state, sender side. pending holds this
	// member's broadcasts not yet delivered back to it, in LocalID order;
	// pending[unsent:] waits for the turn's flush. Wire batches are capped
	// subslices of pending, so an entry is never written after its append
	// (appendPending moves to a fresh array when full, and consuming only
	// reslices). lastSent is the last LocalID sent in this view, the Prev
	// of the next batch. pendingSince is when the oldest pending id was
	// last sent or the previous oldest came back; a heartbeat re-sends
	// everything pending when it is older than FailTimeout.
	localSeq     int64
	pending      []orderEntry
	unsent       int
	lastSent     int64
	pendingSince time.Duration
	flushArmed   bool
	flushFn      func()

	// Total-order state, sequencing side: one chain per sender in this
	// epoch, and the number of batches held back over all of them
	// (capped at maxHeldBatches).
	globalSeq     int64 // coordinator: last assigned sequence
	chains        map[string]*chain
	heldCount     int
	holdOverflows int

	// Total-order state, delivery side. totalBuf holds the slots that
	// arrived above a hole, by sequence.
	totalNext int64 // next global sequence to deliver
	totalBuf  map[int64]slot
	// delivered dedups total-order messages on (sender, local id): a
	// resubmission after coordinator failover may be sequenced twice.
	delivered deliveredSet
	// totalLog retains the coordinator's sequenced slots of the current
	// epoch to serve gap retransmission requests. It is pruned exactly:
	// ackSeqs collects each member's delivery watermark (piggybacked on
	// heartbeats), and every slot at or below min(watermark) over the
	// view is dropped.
	totalLog seqLog
	ackSeqs  map[string]int64
	// gapReqSeq/gapReqAt throttle gap requests: one per stalled sequence
	// number per heartbeat interval.
	gapReqSeq int64
	gapReqAt  time.Duration

	// viewChanges counts installed views (experiment metric).
	viewChanges int
	// logOverflows counts forced view changes raised by the MaxTotalLog
	// cap — each one is a one-directional-fault alarm.
	logOverflows int

	// msgsSent/msgsReceived count wire messages through this member —
	// heartbeats, views, order requests, sequenced broadcasts, gap
	// retransmissions — the per-member traffic numbers the directory
	// sharding experiment (E13) aggregates per node. Atomics: sendTo
	// runs both under and outside mu.
	msgsSent     atomic.Int64
	msgsReceived atomic.Int64
}

// MemberStats is a point-in-time snapshot of a member's health counters,
// the numbers an operator watches to catch asymmetric network faults the
// failure detector cannot see.
type MemberStats struct {
	ViewChanges  int
	TotalLogSize int // retransmission-log entries currently held
	// DedupSenders and DedupHeld size the total-order dedup state: one
	// delivered-id record per sender heard from, plus the id runs held
	// above a gap in those records, summed over senders. DedupHeld is 0
	// in steady state; it stays up after this member missed a stretch of
	// some sender's stream (late join, exclusion), one run per stretch.
	DedupSenders int
	DedupHeld    int
	LogOverflows int // forced view changes raised by the MaxTotalLog cap
	// HeldBatches counts the order requests waiting in this coordinator's
	// hold-back for an earlier batch of their sender; HoldOverflows the
	// requests dropped because the hold-back was full (their senders
	// re-send them on stall).
	HeldBatches   int
	HoldOverflows int
	MsgsSent      int64 // wire messages transmitted by this member
	MsgsReceived  int64 // wire messages handled by this member
}

// Stats returns the member's health counters.
func (m *Member) Stats() MemberStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemberStats{
		ViewChanges:   m.viewChanges,
		TotalLogSize:  m.totalLog.n,
		DedupSenders:  len(m.delivered),
		DedupHeld:     m.delivered.held(),
		LogOverflows:  m.logOverflows,
		HeldBatches:   m.heldCount,
		HoldOverflows: m.holdOverflows,
		MsgsSent:      m.msgsSent.Load(),
		MsgsReceived:  m.msgsReceived.Load(),
	}
}

// NewMember builds a member; call Start to join the group.
func NewMember(sched clock.Scheduler, cfg Config) (*Member, error) {
	cfg.applyDefaults()
	if cfg.NodeID == "" {
		return nil, errors.New("gcs: empty node id")
	}
	if cfg.NIC == nil || cfg.Directory == nil {
		return nil, errors.New("gcs: nic and directory are required")
	}
	m := &Member{
		sched:     sched,
		cfg:       cfg,
		state:     stateNew,
		lastSeen:  make(map[string]time.Duration),
		fifoNext:  make(map[string]int64),
		fifoBuf:   make(map[string]map[int64]fifoMsg),
		chains:    make(map[string]*chain),
		totalBuf:  make(map[int64]slot),
		delivered: make(deliveredSet),
		ackSeqs:   make(map[string]int64),
	}
	m.flushFn = m.flush
	return m, nil
}

// ID returns the member's node id.
func (m *Member) ID() string { return m.cfg.NodeID }

// View returns the currently installed view.
func (m *Member) View() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view.clone()
}

// HasNode reports whether the current view holds a member running on node,
// compared on the plain node id (NodeOf), so ranked ids match too. Unlike
// View it copies nothing.
func (m *Member) HasNode(node string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range m.view.Members {
		if NodeOf(id) == node {
			return true
		}
	}
	return false
}

// ViewChanges returns the number of views installed so far.
func (m *Member) ViewChanges() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.viewChanges
}

// IsCoordinator reports whether this member currently coordinates.
func (m *Member) IsCoordinator() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state == stateRunning && m.view.Coordinator() == m.cfg.NodeID
}

// OnViewChange registers a view handler. Register before Start.
func (m *Member) OnViewChange(fn func(View)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onView = append(m.onView[:len(m.onView):len(m.onView)], fn)
}

// OnDeliver registers a broadcast delivery handler. Register before Start.
func (m *Member) OnDeliver(fn func(Message)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onMsg = append(m.onMsg[:len(m.onMsg):len(m.onMsg)], fn)
}

// Start binds the endpoint, contacts the group and joins. If no existing
// group answers within twice FailTimeout, the member forms a singleton
// view.
func (m *Member) Start() error {
	m.mu.Lock()
	if m.state != stateNew {
		m.mu.Unlock()
		return fmt.Errorf("gcs: Start in state %d", m.state)
	}
	m.state = stateJoining
	m.mu.Unlock()

	if err := m.cfg.NIC.Listen(m.cfg.Addr, m.handle); err != nil {
		m.mu.Lock()
		m.state = stateNew
		m.mu.Unlock()
		return err
	}
	m.cfg.Directory.Register(m.cfg.NodeID, m.cfg.Addr)
	m.announceJoin()

	m.mu.Lock()
	m.joinTimer = m.sched.After(2*m.cfg.FailTimeout, m.joinDeadline)
	m.hbTimer = m.sched.Every(m.cfg.HeartbeatInterval, m.heartbeat)
	m.checkTimer = m.sched.Every(m.cfg.HeartbeatInterval, m.checkFailures)
	m.mu.Unlock()
	return nil
}

// Stop leaves the group gracefully: a coordinator issues the successor view
// itself; others notify the coordinator.
func (m *Member) Stop() error {
	m.mu.Lock()
	if m.state == stateStopped {
		m.mu.Unlock()
		return nil
	}
	running := m.state == stateRunning
	isCoord := running && m.view.Coordinator() == m.cfg.NodeID
	view := m.view.clone()
	m.mu.Unlock()

	if running {
		if isCoord {
			var rest []string
			for _, id := range view.Members {
				if id != m.cfg.NodeID {
					rest = append(rest, id)
				}
			}
			if len(rest) > 0 {
				m.issueView(rest, view.ID+1, view.Members)
			}
		} else {
			m.sendTo(view.Coordinator(), leaveMsg{From: m.cfg.NodeID})
		}
	}
	m.teardown()
	return nil
}

// Crash halts the member without any notification — the GCS-level effect
// of a node failure; peers find out via the failure detector.
func (m *Member) Crash() { m.teardown() }

func (m *Member) teardown() {
	m.mu.Lock()
	m.state = stateStopped
	for _, t := range []clock.Timer{m.hbTimer, m.checkTimer, m.joinTimer} {
		if t != nil {
			t.Cancel()
		}
	}
	m.hbTimer, m.checkTimer, m.joinTimer = nil, nil, nil
	m.mu.Unlock()
	m.cfg.NIC.Close(m.cfg.Addr)
	m.cfg.Directory.Unregister(m.cfg.NodeID)
}

// Broadcast sends body to every member of the current view (including this
// one) with the requested ordering. Total-order broadcasts of one
// scheduler turn travel to the coordinator as one batch.
func (m *Member) Broadcast(body any, ordering Ordering) error {
	m.mu.Lock()
	if m.state != stateRunning {
		m.mu.Unlock()
		return ErrNotRunning
	}
	switch ordering {
	case Total:
		m.localSeq++
		if len(m.pending) == 0 {
			m.pendingSince = m.sched.Now()
		}
		m.appendPending(orderEntry{LocalID: m.localSeq, Body: body})
		arm := !m.flushArmed
		m.flushArmed = true
		m.mu.Unlock()
		if arm {
			m.sched.After(0, m.flushFn)
		}
		return nil
	default: // FIFO
		m.fifoSendSeq++
		msg := fifoMsg{From: m.cfg.NodeID, Seq: m.fifoSendSeq, Body: body}
		members := append([]string(nil), m.view.Members...)
		// Self-delivery bookkeeping happens through the same path as remote
		// delivery to keep ordering uniform.
		m.mu.Unlock()
		for _, id := range members {
			m.sendTo(id, msg)
		}
		return nil
	}
}

// appendPending adds a broadcast to the pending list. A full list moves
// to a fresh array rather than growing in place, and an array is never
// reused for later entries, so the batches already sent stay intact.
func (m *Member) appendPending(e orderEntry) {
	if len(m.pending) == cap(m.pending) {
		grown := make([]orderEntry, len(m.pending), 2*len(m.pending)+16)
		copy(grown, m.pending)
		m.pending = grown
	}
	m.pending = append(m.pending, e)
}

// flush sends the turn's total-order broadcasts to the coordinator as
// one batch chained to the previous one.
func (m *Member) flush() {
	m.mu.Lock()
	m.flushArmed = false
	if m.state != stateRunning || m.unsent == len(m.pending) {
		m.mu.Unlock()
		return
	}
	n := len(m.pending)
	req := orderReq{From: m.cfg.NodeID, Prev: m.lastSent, Batch: m.pending[m.unsent:n:n]}
	m.unsent, m.lastSent = n, m.pending[n-1].LocalID
	coord := m.view.Coordinator()
	m.mu.Unlock()
	m.sendTo(coord, req)
}

// resendPendingLocked makes a chain-start batch (Prev 0) of everything
// pending: every id below the oldest pending one was delivered back to
// this member, so the coordinator may sequence it at once. Callers hold
// m.mu and send the batch when ok.
func (m *Member) resendPendingLocked() (req orderReq, ok bool) {
	n := len(m.pending)
	if n == 0 {
		m.lastSent = 0
		return orderReq{}, false
	}
	m.unsent, m.lastSent = n, m.pending[n-1].LocalID
	m.pendingSince = m.sched.Now()
	return orderReq{From: m.cfg.NodeID, Batch: m.pending[:n:n]}, true
}

// consumeOwnLocked drops a broadcast of this member that came back
// sequenced from the head of the pending list. Within a view they come
// back in LocalID order. One that comes back early, delivered by a
// view-change flush past a lost slot, stays pending: the new view's
// re-send brings it back again behind the ids before it.
func (m *Member) consumeOwnLocked(id int64) {
	if len(m.pending) == 0 || m.pending[0].LocalID != id {
		return
	}
	m.pending = m.pending[1:]
	if m.unsent > 0 {
		m.unsent--
	}
	m.pendingSince = m.sched.Now()
}

// announceJoin sends a join request to every directory member.
func (m *Member) announceJoin() {
	m.mu.Lock()
	viewID := m.view.ID
	m.mu.Unlock()
	for _, id := range m.cfg.Directory.All() {
		if id != m.cfg.NodeID {
			m.sendTo(id, joinMsg{From: m.cfg.NodeID, ViewID: viewID})
		}
	}
}

// joinDeadline forms a singleton view when nobody answered.
func (m *Member) joinDeadline() {
	m.mu.Lock()
	if m.state != stateJoining {
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()
	m.installView(View{ID: 1, Members: []string{m.cfg.NodeID}})
}

// heartbeat fans out liveness probes; a joining member re-announces
// instead. A running member whose oldest pending total-order broadcast
// has not come back within FailTimeout re-sends everything pending: the
// request or its sequenced run was lost, and nothing else would repair
// that before the next view change.
func (m *Member) heartbeat() {
	m.mu.Lock()
	st := m.state
	viewID := m.view.ID
	members := append([]string(nil), m.view.Members...)
	ackSeq := m.totalNext - 1
	if ackSeq < 0 {
		ackSeq = 0
	}
	var stalled orderReq
	resend := false
	if st == stateRunning && len(m.pending) > 0 && m.sched.Now()-m.pendingSince > m.cfg.FailTimeout {
		stalled, resend = m.resendPendingLocked()
	}
	coord := m.view.Coordinator()
	m.mu.Unlock()
	if resend {
		m.sendTo(coord, stalled)
	}
	switch st {
	case stateJoining:
		m.announceJoin()
	case stateRunning:
		hb := hbMsg{From: m.cfg.NodeID, ViewID: viewID, AckSeq: ackSeq}
		for _, id := range members {
			if id != m.cfg.NodeID {
				m.sendTo(id, hb)
			}
		}
		// Partition-merge rule: a coordinator that can see a lower-id node
		// in the directory outside its view asks to be absorbed by it.
		// Concurrent singleton views formed at startup (or after a healed
		// partition) converge onto the lowest live id this way.
		if len(members) > 0 && members[0] == m.cfg.NodeID {
			for _, id := range m.cfg.Directory.All() {
				if id < m.cfg.NodeID && !containsID(members, id) {
					m.sendTo(id, joinMsg{From: m.cfg.NodeID, ViewID: viewID})
				}
			}
		}
	}
}

func containsID(sorted []string, id string) bool {
	for _, v := range sorted {
		if v == id {
			return true
		}
	}
	return false
}

// checkFailures suspects silent members and, when this member is the
// lowest live id, issues the successor view.
func (m *Member) checkFailures() {
	m.mu.Lock()
	if m.state != stateRunning {
		m.mu.Unlock()
		return
	}
	now := m.sched.Now()
	var alive []string
	suspects := 0
	for _, id := range m.view.Members {
		if id == m.cfg.NodeID {
			alive = append(alive, id)
			continue
		}
		if now-m.lastSeen[id] > m.cfg.FailTimeout {
			suspects++
		} else {
			alive = append(alive, id)
		}
	}
	if suspects == 0 {
		m.mu.Unlock()
		return
	}
	sort.Strings(alive)
	amNewCoord := len(alive) > 0 && alive[0] == m.cfg.NodeID
	viewID := m.view.ID
	oldMembers := append([]string(nil), m.view.Members...)
	m.mu.Unlock()
	if amNewCoord {
		m.issueView(alive, viewID+1, oldMembers)
	}
}

// issueView broadcasts (and locally installs) a new view. notify lists the
// recipients — usually the union of old and new membership so excluded
// members learn of their exclusion.
func (m *Member) issueView(members []string, id int64, notify []string) {
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	v := View{ID: id, Members: sorted}
	sent := map[string]bool{m.cfg.NodeID: true}
	for _, peer := range notify {
		if !sent[peer] {
			sent[peer] = true
			m.sendTo(peer, viewMsg{View: v.clone()})
		}
	}
	for _, peer := range sorted {
		if !sent[peer] {
			sent[peer] = true
			m.sendTo(peer, viewMsg{View: v.clone()})
		}
	}
	m.installView(v)
}

// installView adopts a view with a higher id than the current one.
func (m *Member) installView(v View) {
	m.mu.Lock()
	if m.state == stateStopped || v.ID <= m.view.ID {
		m.mu.Unlock()
		return
	}
	if !v.Contains(m.cfg.NodeID) {
		// Excluded (false suspicion or partition): rejoin.
		m.state = stateJoining
		m.view = View{}
		m.mu.Unlock()
		m.announceJoin()
		return
	}
	m.state = stateRunning
	if m.joinTimer != nil {
		m.joinTimer.Cancel()
		m.joinTimer = nil
	}
	m.view = v.clone()
	m.viewChanges++
	now := m.sched.Now()
	for _, id := range v.Members {
		m.lastSeen[id] = now
	}
	// Flush the old epoch's buffered total-order messages in sequence
	// order, then reset the stream: sequence numbers are scoped per view
	// epoch and restart at 1 under the new coordinator. Consuming them
	// marks them delivered before resubmissions are computed, so a flushed
	// own message is not sent to the new coordinator again, and a
	// resubmission sequenced twice is flushed once. The buffer starts
	// above a lost slot; if that slot's broadcast is re-sent in the new
	// view, consumeLocked drops it wherever a later id of its sender was
	// flushed here, so the sender's order holds.
	var flush []Message
	if len(m.totalBuf) > 0 {
		keys := make([]int64, 0, len(m.totalBuf))
		for k := range m.totalBuf {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			flush = m.consumeLocked(k, m.totalBuf[k], flush)
		}
		m.totalBuf = make(map[int64]slot)
	}
	m.totalNext = 1
	m.globalSeq = 0
	m.totalLog = seqLog{}
	clear(m.chains)
	m.heldCount = 0
	m.ackSeqs = make(map[string]int64)
	m.gapReqSeq = 0
	m.gapReqAt = 0
	// Re-submit unacknowledged total-order requests to the new
	// coordinator as one chain-start batch; receivers dedupe on (sender,
	// local id).
	resend, ok := m.resendPendingLocked()
	coord := v.Coordinator()
	handlers, deliver := m.onView, m.onMsg
	installed := m.view.clone()
	m.mu.Unlock()

	deliverAll(flush, deliver)
	if ok {
		m.sendTo(coord, resend)
	}
	for _, fn := range handlers {
		fn(installed)
	}
}

// handle processes inbound wire messages on the event loop.
func (m *Member) handle(nm netsim.Message) {
	m.msgsReceived.Add(1)
	switch p := nm.Payload.(type) {
	case hbMsg:
		m.mu.Lock()
		m.lastSeen[p.From] = m.sched.Now()
		isCoord := m.state == stateRunning && m.view.Coordinator() == m.cfg.NodeID &&
			m.view.Contains(p.From)
		// The heartbeat doubles as the member's total-order delivery
		// acknowledgement: the coordinator prunes its retransmission log
		// to min(watermark) over the view, so the log holds exactly the
		// messages some member may still need — no fixed cap a stalled
		// member can fall past.
		if isCoord && p.ViewID == m.view.ID {
			if p.AckSeq > m.ackSeqs[p.From] {
				m.ackSeqs[p.From] = p.AckSeq
			}
			m.pruneTotalLogLocked()
		}
		// A member heartbeating with a stale view id lost the viewMsg
		// that installed the current view (partitioned away mid-issue).
		// Without repair it would stay divergent forever — heartbeats
		// keep flowing, so no failure is ever suspected. The coordinator
		// re-sends the current view and the straggler catches up.
		resend := isCoord && p.ViewID < m.view.ID
		var v View
		if resend {
			v = m.view.clone()
		}
		m.mu.Unlock()
		if resend {
			m.sendTo(p.From, viewMsg{View: v})
		}
	case joinMsg:
		m.handleJoin(p)
	case leaveMsg:
		m.handleLeave(p)
	case viewMsg:
		m.installView(p.View)
	case fifoMsg:
		m.handleFIFO(p)
	case orderReq:
		m.handleOrderReq(p)
	case totalMsg:
		m.handleTotal(p)
	case gapReq:
		m.handleGapReq(p)
	}
}

func (m *Member) handleJoin(p joinMsg) {
	m.mu.Lock()
	if m.state != stateRunning || m.view.Coordinator() != m.cfg.NodeID {
		m.mu.Unlock()
		return
	}
	if m.view.Contains(p.From) {
		// Rejoin after restart or a lost view message: resend the view.
		v := m.view.clone()
		m.mu.Unlock()
		m.sendTo(p.From, viewMsg{View: v})
		return
	}
	members := append(append([]string(nil), m.view.Members...), p.From)
	id := m.view.ID + 1
	if p.ViewID >= id {
		id = p.ViewID + 1
	}
	old := append([]string(nil), m.view.Members...)
	m.mu.Unlock()
	m.issueView(members, id, old)
}

func (m *Member) handleLeave(p leaveMsg) {
	m.mu.Lock()
	if m.state != stateRunning || m.view.Coordinator() != m.cfg.NodeID || !m.view.Contains(p.From) {
		m.mu.Unlock()
		return
	}
	var rest []string
	for _, id := range m.view.Members {
		if id != p.From {
			rest = append(rest, id)
		}
	}
	id := m.view.ID + 1
	old := append([]string(nil), m.view.Members...)
	m.mu.Unlock()
	m.issueView(rest, id, old)
}

func (m *Member) handleFIFO(p fifoMsg) {
	m.mu.Lock()
	if m.state != stateRunning {
		m.mu.Unlock()
		return
	}
	next, ok := m.fifoNext[p.From]
	if !ok {
		next = 1
	}
	if p.Seq < next {
		m.mu.Unlock()
		return // duplicate
	}
	if p.Seq > next {
		buf := m.fifoBuf[p.From]
		if buf == nil {
			buf = make(map[int64]fifoMsg)
			m.fifoBuf[p.From] = buf
		}
		buf[p.Seq] = p
		m.mu.Unlock()
		return
	}
	// In order: deliver p and drain the buffer.
	var ready []fifoMsg
	ready = append(ready, p)
	next++
	for {
		buf := m.fifoBuf[p.From]
		if buf == nil {
			break
		}
		q, ok := buf[next]
		if !ok {
			break
		}
		delete(buf, next)
		ready = append(ready, q)
		next++
	}
	m.fifoNext[p.From] = next
	deliver := m.onMsg
	m.mu.Unlock()
	for _, msg := range ready {
		ev := Message{From: msg.From, Ordering: FIFO, Seq: msg.Seq, Body: msg.Body}
		for _, fn := range deliver {
			fn(ev)
		}
	}
}

// maxHeldBatches caps the coordinator's hold-back. A batch past the cap
// is dropped and counted; its sender re-sends it once it stalls.
const maxHeldBatches = 256

// chain is the coordinator's sequencing state for one sender in the
// current epoch.
type chain struct {
	high int64      // highest LocalID sequenced
	held []orderReq // hold-back: batches whose Prev is not sequenced yet
}

// ready reports whether batch p may be sequenced now: it starts its
// sender's chain, or the batch before it was sequenced in this epoch. A
// batch chained to one of an earlier view waits for the sender's
// chain-start re-send of the new view, which carries every id the
// sender has not seen delivered, so nothing it missed is overtaken.
func (c *chain) ready(p orderReq) bool {
	return p.Prev == 0 || p.Prev <= c.high
}

func (m *Member) handleOrderReq(p orderReq) {
	m.mu.Lock()
	if m.state != stateRunning || m.view.Coordinator() != m.cfg.NodeID || len(p.Batch) == 0 {
		m.mu.Unlock()
		return
	}
	c := m.chains[p.From]
	if c == nil {
		c = &chain{}
		m.chains[p.From] = c
	}
	if !c.ready(p) {
		// An earlier batch of the sender is still on its way: sequencing
		// this one first would let it overtake that batch.
		if m.heldCount < maxHeldBatches {
			c.held = append(c.held, p)
			m.heldCount++
		} else {
			m.holdOverflows++
		}
		m.mu.Unlock()
		return
	}
	var one [1]totalMsg
	runs := append(one[:0], m.sequenceLocked(c, p))
	// Sequencing p may release the sender's held batches, in chain order.
	for len(c.held) > 0 {
		i := 0
		for i < len(c.held) && !c.ready(c.held[i]) {
			i++
		}
		if i == len(c.held) {
			break
		}
		runs = append(runs, m.sequenceLocked(c, c.held[i]))
		c.held = append(c.held[:i], c.held[i+1:]...)
		m.heldCount--
	}
	// Prune on append too: heartbeat acks never arrive in a singleton
	// view (heartbeats go only to peers), so without this the log of a
	// lone survivor would grow for the lifetime of the epoch.
	m.pruneTotalLogLocked()
	// Views are replaced on install, never mutated: the slice stays
	// valid after mu is released.
	members := m.view.Members
	// The exact prune just ran; a log still past the cap means some
	// member's watermark is pinned while its heartbeats keep it alive —
	// the one-directional fault. Raise the alarm and force a view change
	// excluding the most-lagged peer(s); the epoch reset empties the log
	// and the excluded member rejoins through the normal path (where a
	// still-broken link will trip the alarm again rather than silently
	// eat memory).
	var survivors, oldMembers []string
	var overflowViewID int64
	if m.cfg.MaxTotalLog > 0 && m.totalLog.n > m.cfg.MaxTotalLog {
		minAck := int64(-1)
		for _, id := range members {
			if id == m.cfg.NodeID {
				continue
			}
			if ack := m.ackSeqs[id]; minAck < 0 || ack < minAck {
				minAck = ack
			}
		}
		for _, id := range members {
			if id == m.cfg.NodeID || m.ackSeqs[id] > minAck {
				survivors = append(survivors, id)
			}
		}
		if len(survivors) < len(members) {
			m.logOverflows++
			overflowViewID = m.view.ID + 1
			oldMembers = members
		} else {
			survivors = nil
		}
	}
	m.mu.Unlock()
	for _, tm := range runs {
		var wire any = tm // boxed once: receivers only read it
		for _, id := range members {
			m.sendTo(id, wire)
		}
	}
	if survivors != nil {
		m.issueView(survivors, overflowViewID, oldMembers)
	}
}

// sequenceLocked assigns batch p of chain c the next contiguous run of
// sequence numbers and logs it. Entries sequenced before (a re-send
// crossing its original) get a slot again; receivers drop them as
// duplicates.
func (m *Member) sequenceLocked(c *chain, p orderReq) totalMsg {
	tm := totalMsg{Epoch: m.view.ID, Seq: m.globalSeq + 1, From: p.From, Batch: p.Batch}
	for _, e := range p.Batch {
		m.globalSeq++
		m.totalLog.push(m.globalSeq, slot{From: p.From, orderEntry: e})
	}
	c.high = max(c.high, p.Batch[len(p.Batch)-1].LocalID)
	return tm
}

// pruneTotalLogLocked drops every retransmission-log entry all current
// members have delivered: the prune watermark is the minimum ack over
// the view (the coordinator's own watermark is its delivery cursor). A
// member that has not acked anything this epoch holds the watermark at
// zero, so nothing it may still need is ever dropped — the log is exact,
// bounded by the slowest member's lag instead of a fixed cap, and the
// failure detector bounds that lag: a member too partitioned to ack is
// eventually excluded, which resets the epoch and the log with it.
// Callers hold m.mu and are the current coordinator.
func (m *Member) pruneTotalLogLocked() {
	if m.totalLog.n == 0 {
		return
	}
	min := m.totalNext - 1 // own delivery watermark
	for _, id := range m.view.Members {
		if id == m.cfg.NodeID {
			continue
		}
		if ack := m.ackSeqs[id]; ack < min {
			min = ack
		}
	}
	m.totalLog.dropThrough(min)
}

// totalLogSize reports the retransmission log's current size (tests).
func (m *Member) totalLogSize() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalLog.n
}

// handleGapReq retransmits up to 64 logged slots a stalled member is
// missing, one message per run of consecutive slots from one sender.
func (m *Member) handleGapReq(p gapReq) {
	m.mu.Lock()
	if m.state != stateRunning || m.view.Coordinator() != m.cfg.NodeID ||
		p.Epoch != m.view.ID || !m.view.Contains(p.From) {
		m.mu.Unlock()
		return
	}
	var resend []totalMsg
	found := 0
	for seq := max(p.FromSeq, m.totalLog.min); seq <= m.globalSeq && found < 64; seq++ {
		s, ok := m.totalLog.at(seq)
		if !ok {
			continue
		}
		found++
		if n := len(resend); n > 0 && resend[n-1].From == s.From && resend[n-1].Seq+int64(len(resend[n-1].Batch)) == seq {
			resend[n-1].Batch = append(resend[n-1].Batch, s.orderEntry)
			continue
		}
		resend = append(resend, totalMsg{Epoch: m.view.ID, Seq: seq, From: s.From, Batch: []orderEntry{s.orderEntry}})
	}
	m.mu.Unlock()
	for _, tm := range resend {
		m.sendTo(p.From, tm)
	}
}

func (m *Member) handleTotal(p totalMsg) {
	m.mu.Lock()
	if m.state != stateRunning {
		m.mu.Unlock()
		return
	}
	if p.Epoch != m.view.ID {
		// Stale (or premature) epoch: senders resubmit on view change, so
		// dropping is safe and keeps sequence numbers unambiguous.
		m.mu.Unlock()
		return
	}
	if m.totalNext == 0 {
		m.totalNext = 1
	}
	next := m.totalNext
	if p.Seq+int64(len(p.Batch)) <= next {
		m.mu.Unlock()
		return // every slot already consumed
	}
	// Every sequence slot must be consumed even when its content turns out
	// to be a duplicate (a resubmission sequenced twice); otherwise the
	// stream wedges at the duplicate's slot. A run that covers the next
	// slot is consumed in place when nothing is buffered — the steady
	// state; anything else waits in totalBuf, slot by slot, until the
	// slots below it fill.
	var buf [16]Message
	ready := buf[:0]
	if p.Seq <= next && len(m.totalBuf) == 0 {
		for i := next - p.Seq; i < int64(len(p.Batch)); i++ {
			ready = m.consumeLocked(next, slot{From: p.From, orderEntry: p.Batch[i]}, ready)
			next++
		}
	} else {
		for i, e := range p.Batch {
			if seq := p.Seq + int64(i); seq >= next {
				m.totalBuf[seq] = slot{From: p.From, orderEntry: e}
			}
		}
		for {
			q, ok := m.totalBuf[next]
			if !ok {
				break
			}
			delete(m.totalBuf, next)
			ready = m.consumeLocked(next, q, ready)
			next++
		}
	}
	m.totalNext = next
	if m.globalSeq < next-1 {
		m.globalSeq = next - 1
	}
	// A coordinator's own delivery advance can move the prune watermark
	// (it IS the minimum in a singleton view); non-coordinators hold an
	// empty log and return immediately.
	m.pruneTotalLogLocked()
	// Still buffering means a hole: a totalMsg for a slot below the
	// buffered ones was lost. Ask the coordinator to retransmit (at most
	// once per stalled slot per heartbeat interval), or the stream stays
	// wedged until the next view change.
	var nack *gapReq
	if len(m.totalBuf) > 0 {
		now := m.sched.Now()
		if m.gapReqSeq != m.totalNext || now-m.gapReqAt > m.cfg.HeartbeatInterval {
			m.gapReqSeq = m.totalNext
			m.gapReqAt = now
			nack = &gapReq{From: m.cfg.NodeID, Epoch: m.view.ID, FromSeq: m.totalNext}
		}
	}
	coord := m.view.Coordinator()
	deliver := m.onMsg
	m.mu.Unlock()
	if nack != nil && coord != m.cfg.NodeID {
		m.sendTo(coord, *nack)
	}
	deliverAll(ready, deliver)
}

// consumeLocked takes slot seq off the stream: it joins ready unless its
// (sender, local id) was already delivered or lies below an id of that
// sender delivered before (markInOrder), and an own broadcast stops
// being pending either way.
func (m *Member) consumeLocked(seq int64, s slot, ready []Message) []Message {
	if m.delivered.markInOrder(s.From, s.LocalID) {
		ready = append(ready, Message{From: s.From, Ordering: Total, Seq: seq, Body: s.Body})
	}
	if s.From == m.cfg.NodeID {
		m.consumeOwnLocked(s.LocalID)
	}
	return ready
}

func deliverAll(msgs []Message, deliver []func(Message)) {
	for _, ev := range msgs {
		for _, fn := range deliver {
			fn(ev)
		}
	}
}

// sendTo resolves a member address and transmits.
func (m *Member) sendTo(id string, payload any) {
	addr, ok := m.cfg.Directory.Lookup(id)
	if !ok {
		return
	}
	m.msgsSent.Add(1)
	_ = m.cfg.NIC.Send(m.cfg.Addr, addr, payload, 128)
}
