package gcs

import (
	"fmt"
	"testing"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/netsim"
)

// TestEvidenceExcludesCrashedMemberAfterProbes: evidence against a
// crashed member, forwarded to the member that would coordinate without
// it, excludes it three probe spacings later instead of at FailTimeout.
func TestEvidenceExcludesCrashedMemberAfterProbes(t *testing.T) {
	h := newHarness(t, 3)
	h.startAll(t)
	h.crashNode("node00") // the coordinator: node01 takes over
	h.eng.RunFor(120 * time.Millisecond)
	evidenceAt := h.eng.Now()
	var excludedAt time.Duration
	h.members["node01"].OnViewChange(func(v View) {
		if excludedAt == 0 && !v.Contains("node00") {
			excludedAt = h.eng.Now()
		}
	})
	h.members["node02"].Suspect("node00")
	h.eng.RunFor(50 * time.Millisecond)

	spacing := 50 * time.Millisecond / 10 // default heartbeat / 10
	// The suspectMsg takes one 1 ms hop to node01; the view is installed
	// one spacing after its last probe.
	if want := evidenceAt + time.Millisecond + evidenceProbes*spacing; excludedAt != want {
		t.Fatalf("node00 excluded at %v, want %v (evidence at %v)", excludedAt, want, evidenceAt)
	}
	st := h.members["node01"].Stats()
	if st.Suspicions != 1 || st.EvidenceProbes != evidenceProbes || st.EvidenceExclusions != 1 {
		t.Fatalf("node01 stats %+v, want 1 suspicion, %d probes, 1 exclusion", st, evidenceProbes)
	}
	sameView(t, []*Member{h.members["node01"], h.members["node02"]}, 2)
}

// TestAnsweredProbeKeepsMember: a member silent for longer than two
// heartbeat intervals, but reachable again when the evidence comes,
// answers the probes and stays in the view.
func TestAnsweredProbeKeepsMember(t *testing.T) {
	h := newHarness(t, 3)
	h.startAll(t)
	views := h.members["node00"].ViewChanges()
	h.net.Partition("node00", "node02")
	h.eng.RunFor(150 * time.Millisecond) // silent past two intervals, not past FailTimeout
	h.net.HealAll()
	h.members["node01"].Suspect("node02")
	h.eng.RunFor(time.Second)

	st := h.members["node00"].Stats()
	if st.Suspicions != 1 || st.EvidenceProbes != evidenceProbes || st.EvidenceExclusions != 0 {
		t.Fatalf("node00 stats %+v, want 1 suspicion, %d probes, no exclusion", st, evidenceProbes)
	}
	if got := h.members["node00"].ViewChanges(); got != views {
		t.Fatalf("view changes %d -> %d, want none", views, got)
	}
	sameView(t, []*Member{h.members["node00"], h.members["node01"], h.members["node02"]}, 3)
}

// TestEvidenceSilenceFollowsFailTimeout: with a FailTimeout of forty
// heartbeat intervals, a live member that a partition from the
// coordinator silenced past two intervals, but not past half the
// timeout, stays in the view although the probes the evidence starts go
// unanswered.
func TestEvidenceSilenceFollowsFailTimeout(t *testing.T) {
	h := newHarnessCfg(t, 3, func(c *Config) {
		c.HeartbeatInterval = 50 * time.Millisecond
		c.FailTimeout = 2 * time.Second
	})
	h.startAll(t)
	h.eng.RunFor(4 * time.Second) // formation waits out the long timeout
	views := h.members["node00"].ViewChanges()
	h.net.Partition("node00", "node02")
	h.eng.RunFor(120 * time.Millisecond)
	h.members["node01"].Suspect("node02") // node00 coordinates without node02
	h.eng.RunFor(30 * time.Millisecond)   // every probe goes out and is lost
	h.net.HealAll()
	h.eng.RunFor(time.Second)

	st := h.members["node00"].Stats()
	if st.Suspicions != 1 || st.EvidenceProbes != evidenceProbes || st.EvidenceExclusions != 0 {
		t.Fatalf("node00 stats %+v, want 1 suspicion, %d probes, no exclusion", st, evidenceProbes)
	}
	if got := h.members["node00"].ViewChanges(); got != views {
		t.Fatalf("view changes %d -> %d, want none", views, got)
	}
	sameView(t, []*Member{h.members["node00"], h.members["node01"], h.members["node02"]}, 3)
}

// TestEvidenceAgainstRecentlyHeardMemberIsDropped: within one heartbeat
// interval of the suspect's last message the evidence starts no probe.
func TestEvidenceAgainstRecentlyHeardMemberIsDropped(t *testing.T) {
	h := newHarness(t, 3)
	h.startAll(t)
	h.members["node00"].Suspect("node02") // node00 coordinates without node02 too
	h.members["node00"].Suspect("node00") // evidence against oneself
	h.eng.RunFor(time.Second)
	st := h.members["node00"].Stats()
	if st.Suspicions != 1 || st.EvidenceProbes != 0 || st.EvidenceExclusions != 0 {
		t.Fatalf("node00 stats %+v, want 1 suspicion and nothing else", st)
	}
}

// TestRealClockEvidenceAgainstLiveMembers: on the real clock, with
// deliveries and timers on concurrent goroutines, every member reports
// evidence against every other one every 10 ms for 2 s. Live members
// answer (or were heard from recently), so no view changes.
func TestRealClockEvidenceAgainstLiveMembers(t *testing.T) {
	sched := clock.NewReal()
	t.Cleanup(sched.Stop)
	net := netsim.NewNetwork(sched, netsim.WithLatency(200*time.Microsecond))
	dir := NewDirectory()
	members := make([]*Member, 3)
	for i := range members {
		id := fmt.Sprintf("node%02d", i)
		ip := netsim.IP("ip-" + id)
		nic := net.AttachNode(id)
		if err := net.AssignIP(ip, id); err != nil {
			t.Fatal(err)
		}
		m, err := NewMember(sched, Config{NodeID: id, Addr: netsim.Addr{IP: ip, Port: 7000}, NIC: nic, Directory: dir})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = m
	}
	for _, m := range members {
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for !formed(members) {
		if time.Now().After(deadline) {
			t.Fatal("group did not form")
		}
		time.Sleep(5 * time.Millisecond)
	}
	views := make([]int, len(members))
	for i, m := range members {
		views[i] = m.ViewChanges()
	}
	for end := time.Now().Add(2 * time.Second); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		for _, m := range members {
			for _, peer := range members {
				m.Suspect(peer.ID())
			}
		}
	}
	suspicions := 0
	for i, m := range members {
		st := m.Stats()
		suspicions += st.Suspicions
		if st.ViewChanges != views[i] || st.EvidenceExclusions != 0 {
			t.Errorf("%s: %d view changes during the evidence (%d exclusions), want none; view %v",
				m.ID(), st.ViewChanges-views[i], st.EvidenceExclusions, m.View())
		}
	}
	if suspicions == 0 {
		t.Fatal("no evidence reached a member")
	}
}

// formed reports whether every member has installed the same full view.
func formed(members []*Member) bool {
	id := members[0].View().ID
	for _, m := range members {
		if v := m.View(); len(v.Members) != len(members) || v.ID != id {
			return false
		}
	}
	return true
}
