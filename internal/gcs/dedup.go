package gcs

import "sort"

// deliveredIDs is the set of local ids under which one sender's
// total-order messages were delivered: every id in [1, floor], plus the
// runs held above a gap. A sender numbers its broadcasts densely from 1,
// so in steady state each delivery lands on floor+1, the floor moves up
// and nothing is held. A run appears when an id lands above a gap (a
// slot lost before a view change, whose later ids the change's flush
// delivered) and is absorbed once the gap below it fills, as the lost
// ids come back and are recorded. A gap that never fills — this member missed a stretch
// of the sender's stream because it joined late or was excluded for a
// while — leaves one run that later ids extend in place, so the record
// costs one entry per gap, never one per id.
//
// mark is an exact set operation over any id sequence: dense, reordered,
// duplicated or sparse, ids <= 0 included.
type deliveredIDs struct {
	floor int64
	// held: sorted, disjoint, non-adjacent runs, none overlapping
	// [1, floor+1].
	held []idRun
}

type idRun struct{ lo, hi int64 }

// run returns the index of the first held run ending at or after id.
func (d *deliveredIDs) run(id int64) int {
	return sort.Search(len(d.held), func(i int) bool { return d.held[i].hi >= id })
}

// mark adds id to the set and reports whether it was new.
func (d *deliveredIDs) mark(id int64) bool {
	if id == d.floor+1 {
		d.floor = id
		if len(d.held) > 0 {
			if i := d.run(id + 1); i < len(d.held) && d.held[i].lo == id+1 {
				d.floor = d.held[i].hi
				d.dropRun(i)
			}
		}
		return true
	}
	if id >= 1 && id <= d.floor {
		return false
	}
	i := d.run(id) // runs before i end below id; run i, if any, ends at or above it
	if i < len(d.held) && d.held[i].lo <= id {
		return false
	}
	joinsBelow := i > 0 && d.held[i-1].hi == id-1
	joinsAbove := i < len(d.held) && d.held[i].lo == id+1
	switch {
	case joinsBelow && joinsAbove:
		d.held[i-1].hi = d.held[i].hi
		d.dropRun(i)
	case joinsBelow:
		d.held[i-1].hi = id
	case joinsAbove:
		d.held[i].lo = id
	default:
		d.held = append(d.held, idRun{})
		copy(d.held[i+1:], d.held[i:])
		d.held[i] = idRun{id, id}
	}
	return true
}

// top returns the highest id in the set, or the floor when no held run
// lies above it (nothing is held, or only ids <= 0 are).
func (d *deliveredIDs) top() int64 {
	if n := len(d.held); n > 0 && d.held[n-1].hi > d.floor {
		return d.held[n-1].hi
	}
	return d.floor
}

// dropRun removes held run i, releasing the slice once it is empty.
func (d *deliveredIDs) dropRun(i int) {
	d.held = append(d.held[:i], d.held[i+1:]...)
	if len(d.held) == 0 {
		d.held = nil
	}
}

// deliveredSet is a member's total-order dedup state: one deliveredIDs
// record per sender, keyed by node id.
type deliveredSet map[string]*deliveredIDs

// markInOrder records (from, id) as delivered and reports whether to
// deliver it: only when it is new and above every id delivered from that
// sender before. An id below one already delivered is one this member
// missed (a slot lost before a view change, whose later ids the change's
// flush delivered); delivering it now would apply the sender's messages
// out of order, so it is recorded and dropped.
func (s deliveredSet) markInOrder(from string, id int64) bool {
	d := s[from]
	if d == nil {
		d = &deliveredIDs{}
		s[from] = d
	}
	top := d.top()
	return d.mark(id) && id > top
}

// held counts the runs held above a gap, summed over senders.
func (s deliveredSet) held() int {
	n := 0
	for _, d := range s {
		n += len(d.held)
	}
	return n
}
