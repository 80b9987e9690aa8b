package gcs

import "time"

// evidenceProbes is how many probes confirm a piece of evidence; they go
// out HeartbeatInterval/10 apart and the decision falls one spacing after
// the last (see the package comment).
const evidenceProbes = 3

// Suspect reports evidence that member id stopped answering: a client
// call to its node timed out. The member that would coordinate without
// id probes it and excludes it only if the probes stay unanswered.
// Evidence against this member, or against one outside the view, is
// dropped.
func (m *Member) Suspect(id string) {
	m.mu.Lock()
	if m.state != stateRunning || id == m.cfg.NodeID || !m.view.Contains(id) {
		m.mu.Unlock()
		return
	}
	coord := coordinatorWithout(m.view, id)
	m.mu.Unlock()
	p := suspectMsg{From: m.cfg.NodeID, Suspect: id}
	if coord == m.cfg.NodeID {
		m.handleSuspect(p)
		return
	}
	m.sendTo(coord, p)
}

// coordinatorWithout returns the member that coordinates v once id has
// left it: the lowest other member id.
func coordinatorWithout(v View, id string) string {
	for _, member := range v.Members {
		if member != id {
			return member
		}
	}
	return ""
}

// handleSuspect starts a confirmation of the evidence unless one is under
// way, this member would not coordinate without the suspect, or the
// suspect was heard from within the last heartbeat interval.
func (m *Member) handleSuspect(p suspectMsg) {
	m.mu.Lock()
	m.suspicions++
	if m.state != stateRunning || m.confirming[p.Suspect] || !m.view.Contains(p.Suspect) ||
		coordinatorWithout(m.view, p.Suspect) != m.cfg.NodeID ||
		m.sched.Now()-m.lastSeen[p.Suspect] <= m.cfg.HeartbeatInterval {
		m.mu.Unlock()
		return
	}
	m.confirming[p.Suspect] = true
	viewID := m.view.ID
	m.mu.Unlock()
	spacing := m.cfg.HeartbeatInterval / 10
	m.probe(p.Suspect)
	for i := 1; i < evidenceProbes; i++ {
		m.sched.After(time.Duration(i)*spacing, func() { m.probe(p.Suspect) })
	}
	m.sched.After(evidenceProbes*spacing, func() { m.confirmEvidence(p.Suspect, viewID) })
}

// probe asks a suspect for an immediate heartbeat.
func (m *Member) probe(id string) {
	m.mu.Lock()
	ok := m.state == stateRunning && m.view.Contains(id)
	if ok {
		m.evidenceProbes++
	}
	m.mu.Unlock()
	if ok {
		m.sendTo(id, probeMsg{From: m.cfg.NodeID})
	}
}

// answerProbe sends the prober a heartbeat at once.
func (m *Member) answerProbe(p probeMsg) {
	m.mu.Lock()
	running := m.state == stateRunning
	hb := hbMsg{From: m.cfg.NodeID, ViewID: m.view.ID, AckSeq: max(m.totalNext-1, 0)}
	m.mu.Unlock()
	if running {
		m.sendTo(p.From, hb)
	}
}

// evidenceSilence is how long a suspect must have been silent for
// evidence to exclude it: two heartbeat intervals, or half of FailTimeout
// when that is longer, and never more than FailTimeout. A long timeout
// says the link is trusted to stay quiet that long, so evidence waits
// for a proportionate silence instead of excluding a live member whose
// heartbeats a lossy link dropped. For every FailTimeout up to four
// intervals (the default among them) it is min(2·interval, FailTimeout).
func (m *Member) evidenceSilence() time.Duration {
	return min(m.cfg.FailTimeout, max(2*m.cfg.HeartbeatInterval, m.cfg.FailTimeout/2))
}

// confirmEvidence decides a confirmation started in view viewID: the
// suspect leaves the view if its silence exceeds evidenceSilence. The
// decision falls 3/10 of an interval after the evidence, so anything
// that arrived since then, a probe's answer among it, keeps the suspect.
func (m *Member) confirmEvidence(id string, viewID int64) {
	m.mu.Lock()
	if m.state != stateRunning || m.view.ID != viewID {
		m.mu.Unlock() // installView dropped the confirmation
		return
	}
	delete(m.confirming, id)
	if m.sched.Now()-m.lastSeen[id] <= m.evidenceSilence() {
		m.mu.Unlock()
		return
	}
	m.evidenceExclusions++
	rest, old := without(m.view.Members, id), m.view.Members
	m.mu.Unlock()
	m.issueView(rest, viewID+1, old)
}
