// Package gcs implements the group communication system the paper's
// Migration Module relies on (§3.2): "Using a GCS and more particularly its
// membership service we have for free the knowledge of all the available
// nodes". It provides
//
//   - a membership service with monotonically numbered views, driven by a
//     deterministic coordinator (the lowest-id live member);
//   - an all-to-all heartbeat failure detector whose timeout trades
//     detection latency against false suspicion (ablation A3);
//   - FIFO-ordered reliable broadcast (per-sender order);
//   - total-order broadcast via a coordinator sequencer, with
//     resubmission and duplicate suppression across coordinator failover —
//     the property that makes decentralized redeployment decisions
//     replica-consistent (ablation A4).
//
// Total order is also FIFO per sender: every member delivers one
// sender's broadcasts in the order that sender made them, so a
// directory snapshot cannot overtake its own sender's earlier put. A
// member's total-order broadcasts of one scheduler turn travel to the
// coordinator as one batch, which the coordinator sequences as one
// contiguous run and sends on as one message per member. Each batch
// names the last id of its sender's previous batch in the view; the
// coordinator holds a batch back (in a capped hold-back) until that
// predecessor is sequenced, however the network reorders the requests.
// A sender re-sends everything still pending as a fresh chain when the
// view changes, and also when its oldest pending broadcast has not come
// back within FailTimeout, so a request lost inside a view costs a
// delay, never a wedged stream. The order also holds across a view
// change: a member that lost a sequenced slot when the coordinator
// failed delivers the buffered slots above it, and if the lost
// broadcast comes back in the new view behind a later one of its sender
// already delivered, the member drops it instead of delivering it late.
// Such a member misses that broadcast, as it does when nobody re-sends
// it; the directory's resync repairs what it misses.
//
// Duplicate suppression is keyed by (node id, local id): every member
// keeps one delivered-id record per sender, a floor below which all ids
// were delivered plus the runs held above a gap, so its cost does not
// grow with history. The same record drops an id below the sender's
// highest delivered one. It assumes one incarnation per node id. A member
// restarted under the same id numbers its broadcasts from 1 again, and
// its peers would suppress those first broadcasts as duplicates. Nothing
// restarts a member today; whatever adds a restart must give the new
// incarnation a fresh id or carry its local sequence across.
//
// The implementation favours reproducing the *interface and behaviour* the
// paper's modules consume over Byzantine-grade robustness: concurrent
// partitions produce independent sub-views (split brain) exactly as a 2008
// view-synchronous stack without quorums would.
package gcs

import (
	"fmt"
	"sort"
	"sync"

	"dosgi/internal/netsim"
)

// Ordering selects broadcast delivery ordering.
type Ordering int

// Broadcast orderings.
const (
	// FIFO guarantees per-sender delivery order.
	FIFO Ordering = iota + 1
	// Total guarantees a single global delivery order across members.
	Total
)

func (o Ordering) String() string {
	switch o {
	case FIFO:
		return "fifo"
	case Total:
		return "total"
	}
	return "unknown"
}

// View is an installed membership view.
type View struct {
	ID      int64
	Members []string // sorted
}

// Coordinator returns the deterministic coordinator: the lowest member id.
func (v View) Coordinator() string {
	if len(v.Members) == 0 {
		return ""
	}
	return v.Members[0]
}

// Contains reports whether id is a member.
func (v View) Contains(id string) bool {
	for _, m := range v.Members {
		if m == id {
			return true
		}
	}
	return false
}

// clone returns a deep copy.
func (v View) clone() View {
	out := View{ID: v.ID, Members: make([]string, len(v.Members))}
	copy(out.Members, v.Members)
	return out
}

// String implements fmt.Stringer.
func (v View) String() string {
	return fmt.Sprintf("view{%d %v}", v.ID, v.Members)
}

// Message is a delivered broadcast.
type Message struct {
	From     string
	Ordering Ordering
	Seq      int64 // global sequence for Total, per-sender for FIFO
	Body     any
}

// Directory is the address book members use to find each other — the
// static configuration a 2008 GCS would read from a deployment descriptor.
type Directory struct {
	mu    sync.RWMutex
	addrs map[string]netsim.Addr
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{addrs: make(map[string]netsim.Addr)}
}

// Register adds or updates a member address.
func (d *Directory) Register(id string, addr netsim.Addr) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.addrs[id] = addr
}

// Unregister removes a member.
func (d *Directory) Unregister(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.addrs, id)
}

// Lookup resolves a member address.
func (d *Directory) Lookup(id string) (netsim.Addr, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	a, ok := d.addrs[id]
	return a, ok
}

// All returns a copy of the directory, ids sorted.
func (d *Directory) All() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.addrs))
	for id := range d.addrs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Wire messages.

type hbMsg struct {
	From   string
	ViewID int64
	// AckSeq is the sender's total-order delivery watermark in the epoch
	// named by ViewID (highest contiguously delivered sequence number).
	// The coordinator collects these to prune its retransmission log
	// exactly: entries every current member has delivered are dropped.
	AckSeq int64
}

type joinMsg struct {
	From string
	// ViewID is the joiner's current view id, so the absorbing coordinator
	// can issue a view that supersedes both groups' histories.
	ViewID int64
}

type leaveMsg struct {
	From string
}

type viewMsg struct {
	View View
}

type fifoMsg struct {
	From string
	Seq  int64
	Body any
}

// orderEntry is one total-order broadcast as its sender numbered it.
type orderEntry struct {
	LocalID int64
	Body    any
}

// orderReq asks the coordinator to sequence a batch of one sender's
// total-order broadcasts: everything it submitted in one scheduler turn,
// in LocalID order. Prev chains the sender's batches within a view: it
// is the last LocalID of the sender's previous batch, or 0 when every
// earlier id was already delivered back to the sender (the first batch
// of a view, a re-send of everything pending). The coordinator sequences
// a batch only once its Prev is 0, sequenced or delivered, so one
// sender's broadcasts keep their submission order however the network
// reorders the requests. Batch is shared with the sender's pending list
// and with every totalMsg sequenced from it: nobody writes it.
type orderReq struct {
	From  string
	Prev  int64
	Batch []orderEntry
}

// totalMsg is a run of sequenced total-order broadcasts from one sender:
// Batch[i] holds global sequence Seq+i. Sequences are scoped by the view
// epoch in which the coordinator assigned them; receivers drop messages
// from other epochs and senders resubmit unacknowledged requests on
// every view change.
type totalMsg struct {
	Epoch int64 // view id at sequencing time
	Seq   int64 // sequence of Batch[0]
	From  string
	Batch []orderEntry
}

// gapReq asks the coordinator to retransmit the sequenced messages the
// requester is missing: a totalMsg lost inside an epoch (a partition blip
// too short to change the view) would otherwise stall the requester's
// delivery stream — everything later buffers behind the hole — until the
// next view change.
type gapReq struct {
	From    string
	Epoch   int64
	FromSeq int64 // first missing sequence number
}
