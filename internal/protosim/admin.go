package protosim

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dosgi/internal/admin"
	"dosgi/internal/provision"
	"dosgi/internal/services"
)

// The simulator's admin plane is internal/admin's server over the shared
// verb table (QUIT EXPORTS CALL SUBSCRIBE METRICS TRACE HEALTH ALERTS —
// the code dosgid serves them with), so dosgictl drives a simulator with
// no code changes. What the simulator adds: STATUS and REPO over its
// synthetic state, NODES, the FAULT directive family (docs/PROTOCOL.md
// annex A), and an ERR pointing at dosgid for the lifecycle verbs that
// need a real framework.

// verbs is the simulator's own half of the admin verb table.
func (s *Sim) verbs() []admin.Verb {
	vs := []admin.Verb{
		{Name: "STATUS", Run: s.status},
		{Name: "NODES", Usage: "NODES [count]", Max: 1, Run: s.nodesVerb},
		{Name: "REPO", Usage: "REPO [LIST]", Max: 1, Run: s.repoVerb},
		{Name: "FAULT", Usage: faultUsage, Min: 1, Max: -1, Run: s.fault},
	}
	for _, name := range []string{"LIST", "CREATE", "START", "STOP", "DESTROY", "BUNDLES", "DEPLOY", "LOG"} {
		vs = append(vs, admin.Verb{Name: name, Hidden: true,
			Run: func([]string, *admin.Reply) (string, error) {
				return "", fmt.Errorf("%s needs a real framework; dosgi-sim serves directory state only (supported: %s)",
					name, strings.Join(s.admin.Names(), " "))
			}})
	}
	return vs
}

func (s *Sim) status(_ []string, out *admin.Reply) (string, error) {
	s.mu.Lock()
	live, eps := s.liveCountsLocked()
	row := fmt.Sprintf("sim seed=%d nodes=%d live=%d services=%d endpoints=%d artifacts=%d shards=%d storm=%.1f/s remote=%s",
		s.cfg.Seed, len(s.nodes), live, len(s.serviceNames), eps,
		len(s.arts), s.router.Shards(), s.stormRate, s.remoteAddr)
	s.mu.Unlock()
	out.Row("%s", row)
	return "", nil
}

func (s *Sim) nodesVerb(args []string, out *admin.Reply) (string, error) {
	limit := -1
	if len(args) == 1 {
		var err error
		if limit, err = admin.Count(args[0]); err != nil {
			return "", err
		}
	}
	s.mu.Lock()
	rows := make([]string, 0, len(s.nodes))
	for _, n := range s.nodes {
		if limit >= 0 && len(rows) >= limit {
			break
		}
		rows = append(rows, fmt.Sprintf("%s addr=%s state=%s services=%d artifacts=%d listener=%v",
			n.name, n.addr, n.state, len(n.services), len(n.digests), n.listener))
	}
	total := len(s.nodes)
	s.mu.Unlock()
	for _, row := range rows {
		out.Row("%s", row)
	}
	return admin.OKf("%d of %d node(s)", len(rows), total)
}

func (s *Sim) repoVerb(args []string, out *admin.Reply) (string, error) {
	if len(args) == 1 && !strings.EqualFold(args[0], "LIST") {
		return "", admin.ErrUsage
	}
	arts := s.store.List()
	for _, art := range arts {
		out.Row("%s", admin.RepoListLine(art, s.ArtifactHolders(art.Digest)))
	}
	return admin.OKf("%d artifact(s)", len(arts))
}

const faultUsage = "FAULT KILL|REVIVE|PARTITION|HEAL <node> | FAULT DROP <n> | FAULT ROLL | FAULT STORM <rate> | FAULT HEALTH <node> <component> <status> [cause]"

// fault dispatches the FAULT directive family (PROTOCOL.md annex A).
func (s *Sim) fault(args []string, _ *admin.Reply) (string, error) {
	directive, args := strings.ToUpper(args[0]), args[1:]
	nodeOps := map[string]func(string) error{
		"KILL": s.KillNode, "REVIVE": s.ReviveNode, "PARTITION": s.PartitionNode, "HEAL": s.HealNode,
	}
	if op, ok := nodeOps[directive]; ok {
		if len(args) != 1 {
			return "", fmt.Errorf("usage: FAULT %s <node>", directive)
		}
		if err := op(args[0]); err != nil {
			return "", err
		}
		return admin.OKf("%s %s", strings.ToLower(directive), args[0])
	}
	switch directive {
	case "DROP":
		if len(args) != 1 {
			return "", errors.New("usage: FAULT DROP <n>")
		}
		n, err := admin.Count(args[0])
		if err != nil {
			return "", err
		}
		s.DropPushes(n)
		return admin.OKf("next %d push(es) will drop", n)
	case "ROLL":
		if len(args) != 0 {
			return "", errors.New("usage: FAULT ROLL")
		}
		return admin.OKf("rolled replay windows past %d suppressed event(s)", s.RollWindows())
	case "STORM":
		if len(args) != 1 {
			return "", errors.New("usage: FAULT STORM <eventsPerSecond>")
		}
		rate, err := strconv.ParseFloat(args[0], 64)
		if err != nil || rate < 0 {
			return "", errors.New("rate must be a non-negative number")
		}
		s.SetStormRate(rate)
		return admin.OKf("storm at %.1f event(s)/s", rate)
	case "HEALTH":
		if len(args) < 3 {
			return "", errors.New("usage: FAULT HEALTH <node> <component> <status> [cause]")
		}
		status := args[2]
		if strings.EqualFold(status, "CLEAR") {
			status = ""
		}
		s.SetHealth(args[0], args[1], status, strings.Trim(strings.Join(args[3:], " "), `"`))
		return admin.OKf("health %s@%s", args[1], args[0])
	default:
		return "", admin.ErrUsage
	}
}

// exportNames lists every service the primary listener serves, sorted:
// the simulator's own exports plus the live synthetic population.
func (s *Sim) exportNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.serviceNames)+3)
	for _, svc := range s.serviceNames {
		if len(s.endpoints[svc]) > 0 {
			names = append(names, svc)
		}
	}
	names = append(names, "echo", services.MetricsRemoteName, provision.ServiceName)
	sort.Strings(names)
	return names
}
