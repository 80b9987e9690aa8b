package cluster

import (
	"fmt"
	"strings"
	"time"

	"dosgi/internal/autonomic"
	"dosgi/internal/core"
	"dosgi/internal/migrate"
	"dosgi/internal/policy"
	"dosgi/internal/services"
	"dosgi/internal/sla"
	"dosgi/internal/vjvm"
)

// instanceEnv exposes one running instance, its node and the cluster to
// policy expressions, plus the enforcement verbs (§3.3: "stopping a bad
// behaved customer or migrating it to another node").
type instanceEnv struct {
	cluster *Cluster
	node    *Node
	inst    *core.Instance
}

var _ policy.Env = (*instanceEnv)(nil)

// Resolve implements policy.Env.
func (e *instanceEnv) Resolve(key string) (any, error) {
	desc := e.inst.Descriptor()
	switch key {
	case "instance.id":
		return string(desc.ID), nil
	case "instance.customer":
		return desc.Customer, nil
	case "instance.running":
		return e.inst.State() == core.InstanceRunning, nil
	case "instance.cpu.rate":
		if d, ok := e.node.vm.Domain(domainID(desc.ID)); ok {
			return int64(d.CPURate()), nil
		}
		return int64(0), nil
	case "instance.cpu.limit":
		if d, ok := e.node.vm.Domain(domainID(desc.ID)); ok {
			return int64(d.CPULimit()), nil
		}
		return int64(0), nil
	case "instance.cpu.time":
		if d, ok := e.node.vm.Domain(domainID(desc.ID)); ok {
			return d.CPUTime(), nil
		}
		return time.Duration(0), nil
	case "instance.memory.used":
		if d, ok := e.node.vm.Domain(domainID(desc.ID)); ok {
			return d.MemUsed(), nil
		}
		return int64(0), nil
	case "instance.tasks":
		if d, ok := e.node.vm.Domain(domainID(desc.ID)); ok {
			return int64(d.RunningTasks()), nil
		}
		return int64(0), nil
	case "instance.sla.cpu":
		agr, _ := e.cluster.Agreement(desc.ID)
		return agr.CPUMillicores, nil
	case "instance.sla.memory":
		agr, _ := e.cluster.Agreement(desc.ID)
		return agr.MemoryBytes, nil
	case "instance.sla.priority":
		agr, _ := e.cluster.Agreement(desc.ID)
		return int64(agr.Priority), nil
	case "node.id":
		return e.node.ID(), nil
	case "node.cpu.used":
		used, _, _, _ := e.node.mon.NodeUsage()
		return int64(used), nil
	case "node.cpu.total":
		_, total, _, _ := e.node.mon.NodeUsage()
		return int64(total), nil
	case "node.cpu.free":
		used, total, _, _ := e.node.mon.NodeUsage()
		return int64(total - used), nil
	case "node.memory.used":
		_, _, used, _ := e.node.mon.NodeUsage()
		return used, nil
	case "node.memory.total":
		_, _, _, total := e.node.mon.NodeUsage()
		return total, nil
	case "node.memory.free":
		_, _, used, total := e.node.mon.NodeUsage()
		if total == 0 {
			return 0.0, nil
		}
		return float64(total-used) / float64(total), nil
	case "node.instances":
		return int64(len(e.node.Instances())), nil
	case "cluster.nodes":
		return int64(len(e.cluster.PoweredNodes())), nil
	}
	return nil, fmt.Errorf("cluster: unknown policy selector %q", key)
}

// Call implements policy.Env: the action verbs.
func (e *instanceEnv) Call(name []string, args []any) (any, error) {
	key := strings.Join(name, ".")
	id := e.inst.ID()
	switch key {
	case "throttle":
		if len(args) != 1 {
			return nil, fmt.Errorf("cluster: throttle(millicores) takes one argument")
		}
		mc, ok := toInt(args[0])
		if !ok {
			return nil, fmt.Errorf("cluster: throttle argument %v is not a number", args[0])
		}
		d, found := e.node.vm.Domain(domainID(id))
		if !found {
			return nil, fmt.Errorf("cluster: no domain for %s", id)
		}
		d.SetCPULimit(vjvm.Millicores(mc))
		e.logf("autonomic: throttled %s to %dmc", id, mc)
		return nil, nil
	case "unthrottle":
		if d, found := e.node.vm.Domain(domainID(id)); found {
			d.SetCPULimit(0)
		}
		return nil, nil
	case "stop":
		e.logf("autonomic: stopping %s", id)
		return nil, e.node.manager.Stop(id)
	case "migrateAway":
		target := e.leastLoadedOther()
		if target == "" {
			return nil, fmt.Errorf("cluster: no target node for %s", id)
		}
		e.logf("autonomic: migrating %s to %s", id, target)
		return target, e.node.mod.Migrate(id, target)
	case "migrate":
		if len(args) != 1 {
			return nil, fmt.Errorf("cluster: migrate(node) takes one argument")
		}
		target, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("cluster: migrate target %v is not a node id", args[0])
		}
		return nil, e.node.mod.Migrate(id, target)
	case "leastLoaded":
		return e.leastLoadedOther(), nil
	case "log":
		if len(args) == 1 {
			e.logf("policy[%s]: %v", id, args[0])
		}
		return nil, nil
	case "recordViolation":
		agr, _ := e.cluster.Agreement(id)
		rate := int64(0)
		if d, found := e.node.vm.Domain(domainID(id)); found {
			rate = int64(d.CPURate())
		}
		e.cluster.tracker.Record(sla.Violation{
			Instance: string(id), Customer: agr.Customer, Resource: "cpu",
			Limit: float64(agr.CPUMillicores), Observed: float64(rate),
			At: e.cluster.eng.Now(),
		})
		return nil, nil
	}
	return nil, fmt.Errorf("cluster: unknown policy action %q", key)
}

func (e *instanceEnv) leastLoadedOther() string {
	var others []string
	for _, n := range e.cluster.Nodes() {
		if n.Powered() && n.ID() != e.node.ID() {
			others = append(others, n.ID())
		}
	}
	loads := e.node.mod.Directory().Loads(others)
	return migrate.LeastLoaded(loads)
}

func (e *instanceEnv) logf(format string, args ...any) {
	if e.node.logSvc != nil {
		e.node.logSvc.Log(services.LogInfo, "autonomic", format, args...)
	}
}

func toInt(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int:
		return int64(x), true
	case float64:
		return int64(x), true
	case time.Duration:
		return int64(x), true
	}
	return 0, false
}

// AutonomicSubjects yields one policy subject per running instance across
// the powered nodes — the provider a cluster-level autonomic engine
// evaluates.
func (c *Cluster) AutonomicSubjects() []autonomic.Subject {
	var out []autonomic.Subject
	for _, n := range c.Nodes() {
		if !n.Powered() {
			continue
		}
		for _, inst := range n.manager.List() {
			if inst.State() != core.InstanceRunning {
				continue
			}
			out = append(out, autonomic.Subject{
				ID:  string(inst.ID()),
				Env: &instanceEnv{cluster: c, node: n, inst: inst},
			})
		}
	}
	return out
}

// NewAutonomicEngine builds an engine over the cluster's instances with
// the given policy source.
func (c *Cluster) NewAutonomicEngine(policySrc string, interval time.Duration) (*autonomic.Engine, error) {
	eng := autonomic.New(c.eng, autonomic.WithInterval(interval))
	if err := eng.LoadPolicies(policySrc); err != nil {
		return nil, err
	}
	eng.SetSubjects(c.AutonomicSubjects)
	return eng, nil
}
