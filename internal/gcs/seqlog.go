package gcs

// slot is the content of one global sequence number: who sent it and
// what.
type slot struct {
	From string
	orderEntry
}

// seqLog is the coordinator's retransmission log: the slots
// [min, min+n) of the current epoch in a ring, slot seq at
// buf[(head + seq - min) % len(buf)]. The coordinator logs every
// sequence it assigns, in order, so the retained slots are contiguous.
type seqLog struct {
	buf  []slot
	head int
	n    int
	min  int64 // lowest sequence retained, when n > 0
}

// push logs seq, which follows the last logged sequence (any sequence
// when the log is empty).
func (l *seqLog) push(seq int64, s slot) {
	if l.n == 0 {
		l.min = seq
	}
	if l.n == len(l.buf) {
		grown := make([]slot, 2*len(l.buf)+16)
		for i := 0; i < l.n; i++ {
			grown[i] = l.buf[(l.head+i)%len(l.buf)]
		}
		l.buf, l.head = grown, 0
	}
	l.buf[(l.head+l.n)%len(l.buf)] = s
	l.n++
}

// at returns the slot logged under seq.
func (l *seqLog) at(seq int64) (slot, bool) {
	if seq < l.min || seq >= l.min+int64(l.n) {
		return slot{}, false
	}
	return l.buf[(l.head+int(seq-l.min))%len(l.buf)], true
}

// dropThrough forgets every slot at or below seq.
func (l *seqLog) dropThrough(seq int64) {
	for ; l.n > 0 && l.min <= seq; l.min++ {
		l.buf[l.head] = slot{}
		l.head = (l.head + 1) % len(l.buf)
		l.n--
	}
}
