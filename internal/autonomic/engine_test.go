package autonomic

import (
	"errors"
	"testing"
	"time"

	"dosgi/internal/policy"
	"dosgi/internal/sim"
)

// tenantEnv builds a mutable environment for one fake instance.
type tenantEnv struct {
	vars    map[string]any
	actions *[]string
}

func (t *tenantEnv) Resolve(key string) (any, error) {
	if v, ok := t.vars[key]; ok {
		return v, nil
	}
	return nil, errors.New("unknown: " + key)
}

func (t *tenantEnv) Call(name []string, args []any) (any, error) {
	*t.actions = append(*t.actions, join(name))
	return nil, nil
}

func join(path []string) string {
	out := path[0]
	for _, p := range path[1:] {
		out += "." + p
	}
	return out
}

func TestEngineFiresWhenConditionHolds(t *testing.T) {
	eng := sim.New(1)
	var actions []string
	env := &tenantEnv{vars: map[string]any{"cpu": int64(900), "limit": int64(500)}, actions: &actions}
	e := New(eng, WithInterval(10*time.Millisecond))
	if err := e.LoadPolicies(`when cpu > limit { throttle() }`); err != nil {
		t.Fatal(err)
	}
	e.SetSubjects(func() []Subject { return []Subject{{ID: "t1", Env: env}} })
	var events []ActionEvent
	e.OnAction(func(ev ActionEvent) { events = append(events, ev) })
	e.Start()
	eng.RunFor(50 * time.Millisecond)
	e.Stop()

	if len(actions) != 1 || actions[0] != "throttle" {
		t.Fatalf("actions = %v, want one throttle (fire once per episode)", actions)
	}
	if len(events) != 1 || events[0].Subject != "t1" || events[0].Err != nil {
		t.Fatalf("events = %+v", events)
	}
}

func TestEngineSustain(t *testing.T) {
	eng := sim.New(1)
	var actions []string
	env := &tenantEnv{vars: map[string]any{"cpu": int64(100), "limit": int64(500)}, actions: &actions}
	e := New(eng, WithInterval(10*time.Millisecond))
	if err := e.LoadPolicies(`when cpu > limit for 100ms { throttle() }`); err != nil {
		t.Fatal(err)
	}
	e.SetSubjects(func() []Subject { return []Subject{{ID: "t1", Env: env}} })
	e.Start()

	// Over the limit for only 50ms: no firing.
	env.vars["cpu"] = int64(900)
	eng.RunFor(50 * time.Millisecond)
	env.vars["cpu"] = int64(100)
	eng.RunFor(100 * time.Millisecond)
	if len(actions) != 0 {
		t.Fatalf("fired on a blip: %v", actions)
	}

	// Over the limit continuously: fires after ~100ms.
	env.vars["cpu"] = int64(900)
	eng.RunFor(200 * time.Millisecond)
	if len(actions) != 1 {
		t.Fatalf("actions = %v", actions)
	}
}

func TestEngineRefiresAfterClear(t *testing.T) {
	eng := sim.New(1)
	var actions []string
	env := &tenantEnv{vars: map[string]any{"cpu": int64(900), "limit": int64(500)}, actions: &actions}
	e := New(eng, WithInterval(10*time.Millisecond))
	if err := e.LoadPolicies(`when cpu > limit { act() }`); err != nil {
		t.Fatal(err)
	}
	e.SetSubjects(func() []Subject { return []Subject{{ID: "t", Env: env}} })
	e.Start()
	eng.RunFor(50 * time.Millisecond)
	env.vars["cpu"] = int64(100) // clears
	eng.RunFor(50 * time.Millisecond)
	env.vars["cpu"] = int64(900) // breaches again
	eng.RunFor(50 * time.Millisecond)
	if len(actions) != 2 {
		t.Fatalf("actions = %v, want 2 firings across 2 episodes", actions)
	}
}

func TestEngineMultipleSubjects(t *testing.T) {
	eng := sim.New(1)
	var actionsA, actionsB []string
	envA := &tenantEnv{vars: map[string]any{"cpu": int64(900), "limit": int64(500)}, actions: &actionsA}
	envB := &tenantEnv{vars: map[string]any{"cpu": int64(100), "limit": int64(500)}, actions: &actionsB}
	e := New(eng, WithInterval(10*time.Millisecond))
	if err := e.LoadPolicies(`when cpu > limit { act() }`); err != nil {
		t.Fatal(err)
	}
	e.SetSubjects(func() []Subject {
		return []Subject{{ID: "a", Env: envA}, {ID: "b", Env: envB}}
	})
	e.Start()
	eng.RunFor(50 * time.Millisecond)
	if len(actionsA) != 1 || len(actionsB) != 0 {
		t.Fatalf("a=%v b=%v", actionsA, actionsB)
	}
}

func TestEngineErrorReporting(t *testing.T) {
	eng := sim.New(1)
	var actions []string
	env := &tenantEnv{vars: map[string]any{}, actions: &actions} // 'cpu' unresolvable
	e := New(eng, WithInterval(10*time.Millisecond))
	if err := e.LoadPolicies(`when cpu > 1 { act() }`); err != nil {
		t.Fatal(err)
	}
	e.SetSubjects(func() []Subject { return []Subject{{ID: "t", Env: env}} })
	var errCount int
	e.OnError(func(subject string, err error) {
		if subject == "t" && err != nil {
			errCount++
		}
	})
	e.Start()
	eng.RunFor(25 * time.Millisecond)
	if errCount == 0 {
		t.Fatal("evaluation errors not reported")
	}
	if len(actions) != 0 {
		t.Fatal("actions ran despite errors")
	}
}

func TestEngineBadPolicyRejected(t *testing.T) {
	e := New(sim.New(1))
	if err := e.LoadPolicies("when { }"); err == nil {
		t.Fatal("bad policy accepted")
	}
	if err := e.LoadPolicies(`when 1 > 0 { a() }`); err != nil {
		t.Fatal(err)
	}
	if e.RuleCount() != 1 {
		t.Fatalf("RuleCount = %d", e.RuleCount())
	}
}

func TestControllerCascade(t *testing.T) {
	eng := sim.New(1)
	var order []string

	mkEngine := func(name string) *Engine {
		e := New(eng)
		env := &policy.MapEnv{
			Vars: map[string]any{"go": true},
			Funcs: map[string]func([]any) (any, error){
				"mark": func([]any) (any, error) {
					order = append(order, name)
					return nil, nil
				},
			},
		}
		if err := e.LoadPolicies(`when go { mark() }`); err != nil {
			t.Fatal(err)
		}
		e.SetSubjects(func() []Subject { return []Subject{{ID: name, Env: env}} })
		return e
	}

	parent := NewController("cluster", mkEngine("cluster"))
	childA := NewController("node-a", mkEngine("node-a"))
	childB := NewController("node-b", mkEngine("node-b"))
	parent.AddChild(childA)
	parent.AddChild(childB)

	parent.TickAll()
	if len(order) != 3 || order[0] != "node-a" || order[1] != "node-b" || order[2] != "cluster" {
		t.Fatalf("order = %v, want children before parent", order)
	}

	names := []string{}
	parent.Walk(func(c *Controller) { names = append(names, c.Name()) })
	if len(names) != 3 || names[0] != "cluster" {
		t.Fatalf("Walk = %v", names)
	}
}

func TestControllerStartStop(t *testing.T) {
	eng := sim.New(1)
	fired := 0
	e := New(eng, WithInterval(10*time.Millisecond))
	env := &policy.MapEnv{
		Vars: map[string]any{"go": true},
		Funcs: map[string]func([]any) (any, error){
			"mark": func([]any) (any, error) { fired++; return nil, nil },
		},
	}
	if err := e.LoadPolicies(`when go { mark() }`); err != nil {
		t.Fatal(err)
	}
	e.SetSubjects(func() []Subject { return []Subject{{ID: "x", Env: env}} })
	c := NewController("root", e)
	c.Start()
	eng.RunFor(25 * time.Millisecond)
	c.Stop()
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	at := fired
	eng.RunFor(50 * time.Millisecond)
	if fired != at {
		t.Fatal("engine ran after Stop")
	}
}

func TestVanishedSubjectStateCleared(t *testing.T) {
	eng := sim.New(1)
	var actions []string
	env := &tenantEnv{vars: map[string]any{"cpu": int64(900), "limit": int64(500)}, actions: &actions}
	subjects := []Subject{{ID: "t", Env: env}}
	e := New(eng, WithInterval(10*time.Millisecond))
	if err := e.LoadPolicies(`when cpu > limit { act() }`); err != nil {
		t.Fatal(err)
	}
	e.SetSubjects(func() []Subject { return subjects })
	e.Start()
	eng.RunFor(25 * time.Millisecond)
	if len(actions) != 1 {
		t.Fatalf("actions = %v", actions)
	}
	// Subject disappears (instance migrated away), then reappears: the
	// rule fires afresh.
	subjects = nil
	eng.RunFor(25 * time.Millisecond)
	subjects = []Subject{{ID: "t", Env: env}}
	eng.RunFor(25 * time.Millisecond)
	if len(actions) != 2 {
		t.Fatalf("actions = %v, want refire after subject churn", actions)
	}
}
