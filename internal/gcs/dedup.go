package gcs

import "sort"

// deliveredIDs is the set of local ids under which one sender's
// total-order messages were delivered: every id in [1, floor], plus the
// runs held above a gap. A sender numbers its broadcasts densely from 1,
// so in steady state each delivery lands on floor+1, the floor moves up
// and nothing is held. A run appears when the sender's ids are
// sequenced out of local order (order requests reordered in flight, a
// resubmission after coordinator failover) and is absorbed once the gap
// below it fills. A gap that never fills — this member missed a stretch
// of the sender's stream because it joined late or was excluded for a
// while — leaves one run that later ids extend in place, so the record
// costs one entry per gap, never one per id.
//
// has and mark are exact set operations over any id sequence: dense,
// reordered, duplicated or sparse, ids <= 0 included.
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

func (d *deliveredIDs) has(id int64) bool {
	if id >= 1 && id <= d.floor {
		return true
	}
	i := d.run(id)
	return i < len(d.held) && d.held[i].lo <= id
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

func (s deliveredSet) has(from string, id int64) bool {
	d := s[from]
	return d != nil && d.has(id)
}

// mark records (from, id) as delivered and reports whether it was new.
func (s deliveredSet) mark(from string, id int64) bool {
	d := s[from]
	if d == nil {
		d = &deliveredIDs{}
		s[from] = d
	}
	return d.mark(id)
}

// held counts the runs held above a gap, summed over senders.
func (s deliveredSet) held() int {
	n := 0
	for _, d := range s {
		n += len(d.held)
	}
	return n
}
