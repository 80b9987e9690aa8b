package policy

import (
	"strings"
	"testing"
	"time"
)

func env(vars map[string]any, funcs map[string]func([]any) (any, error)) *MapEnv {
	if vars == nil {
		vars = map[string]any{}
	}
	if funcs == nil {
		funcs = map[string]func([]any) (any, error){}
	}
	return &MapEnv{Vars: vars, Funcs: funcs}
}

func evalSrc(t *testing.T, exprSrc string, e Env) any {
	t.Helper()
	rules, err := Parse("when " + exprSrc + " { noop() }")
	if err != nil {
		t.Fatalf("Parse(%q): %v", exprSrc, err)
	}
	v, err := Eval(rules[0].Cond, e)
	if err != nil {
		t.Fatalf("Eval(%q): %v", exprSrc, err)
	}
	return v
}

func TestLiteralUnits(t *testing.T) {
	e := env(nil, nil)
	tests := []struct {
		src  string
		want any
	}{
		{"10 == 10", true},
		{"10ms == 10ms", true},
		{"1s > 999ms", true},
		{"2m == 120s", true},
		{"1h == 60m", true},
		{"50% == 0.5", true},
		{"1KB == 1024", true},
		{"2MB == 2097152", true},
		{"1GB > 1MB", true},
		{"500mc == 500", true},
		{"1.5 > 1", true},
		{"-3 < 0", true},
	}
	for _, tt := range tests {
		if got := evalSrc(t, tt.src, e); got != tt.want {
			t.Errorf("%s = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestSelectorsAndArithmetic(t *testing.T) {
	e := env(map[string]any{
		"instance.cpu.rate": int64(900),
		"instance.sla.cpu":  int64(500),
		"node.memory.free":  0.05,
		"instance.name":     "tenant-a",
		"instance.running":  true,
	}, nil)

	tests := []struct {
		src  string
		want any
	}{
		{"instance.cpu.rate > instance.sla.cpu", true},
		{"instance.cpu.rate - instance.sla.cpu == 400", true},
		{"instance.cpu.rate > instance.sla.cpu * 2", false},
		{"node.memory.free < 10%", true},
		{`instance.name == "tenant-a"`, true},
		{`instance.name != "tenant-b"`, true},
		{"instance.running && node.memory.free < 50%", true},
		{"!instance.running || instance.cpu.rate > 0", true},
		{"(instance.cpu.rate + 100) / 2 == 500", true},
	}
	for _, tt := range tests {
		if got := evalSrc(t, tt.src, e); got != tt.want {
			t.Errorf("%s = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestFunctionCalls(t *testing.T) {
	called := map[string][]any{}
	e := env(map[string]any{"x": int64(3)}, map[string]func([]any) (any, error){
		"max": func(args []any) (any, error) {
			called["max"] = args
			a, _ := toFloat(args[0])
			b, _ := toFloat(args[1])
			if a > b {
				return a, nil
			}
			return b, nil
		},
		"cluster.leastLoaded": func(args []any) (any, error) {
			return "node3", nil
		},
	})
	if got := evalSrc(t, "max(x, 10) == 10", e); got != true {
		t.Errorf("max call = %v", got)
	}
	if got := evalSrc(t, `cluster.leastLoaded() == "node3"`, e); got != true {
		t.Errorf("namespaced call = %v", got)
	}
	if len(called["max"]) != 2 {
		t.Errorf("max args = %v", called["max"])
	}
}

func TestRuleParsing(t *testing.T) {
	src := `
# protect the SLA of every instance
when instance.cpu.rate > instance.sla.cpu for 10s {
    throttle(instance.id, instance.sla.cpu)
    log("throttled")
}

// consolidate idle nodes
when node.idle && node.instances == 0 {
    powerOff(node.id);
}
`
	rules, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("rules = %d", len(rules))
	}
	if rules[0].Sustain != 10*time.Second {
		t.Errorf("sustain = %v", rules[0].Sustain)
	}
	if len(rules[0].Actions) != 2 {
		t.Errorf("actions = %d", len(rules[0].Actions))
	}
	if rules[1].Sustain != 0 {
		t.Errorf("rule 2 sustain = %v", rules[1].Sustain)
	}
	if got := rules[0].Actions[0].String(); got != "throttle(instance.id, instance.sla.cpu)" {
		t.Errorf("action string = %q", got)
	}
}

func TestRuleExecution(t *testing.T) {
	var throttled []any
	e := env(map[string]any{
		"instance.cpu": int64(900),
		"instance.id":  "tenant-a",
		"instance.sla": int64(500),
	}, map[string]func([]any) (any, error){
		"throttle": func(args []any) (any, error) {
			throttled = args
			return nil, nil
		},
	})
	rules := MustParse(`when instance.cpu > instance.sla { throttle(instance.id, instance.sla) }`)
	ok, err := EvalBool(rules[0].Cond, e)
	if err != nil || !ok {
		t.Fatalf("cond = %v, %v", ok, err)
	}
	for _, a := range rules[0].Actions {
		if _, err := Eval(a, e); err != nil {
			t.Fatal(err)
		}
	}
	if len(throttled) != 2 || throttled[0] != "tenant-a" || throttled[1] != int64(500) {
		t.Fatalf("throttle args = %v", throttled)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                                // no rules is fine? -> Parse returns empty; see below
		"when { x() }",                    // missing condition
		"when x > 1 { }",                  // no actions
		"when x > 1 { 42 }",               // action not a call
		"when x > 1 for 10 { a() }",       // for needs a duration
		"when x > 1 { a( }",               // bad args
		"when x > { a() }",                // missing operand
		`when x == "unterminated { a() }`, // bad string
		"when x > 1 { a() ",               // unterminated body
		"when x > 1e { a() }",             // bad unit
	}
	for _, src := range bad[1:] {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
	rules, err := Parse("")
	if err != nil || len(rules) != 0 {
		t.Errorf("empty source: %v, %v", rules, err)
	}
}

func TestEvalErrors(t *testing.T) {
	e := env(map[string]any{"s": "str", "b": true}, nil)
	bads := []string{
		"missing.selector",
		"unknownFn()",
		"s > 1",
		"b + 1",
		"1 / 0",
		`s == 1`,
	}
	for _, src := range bads {
		rules, err := Parse("when " + src + " { noop() }")
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Eval(rules[0].Cond, e); err == nil {
			t.Errorf("Eval(%q) succeeded", src)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	calls := 0
	e := env(map[string]any{"t": true, "f": false}, map[string]func([]any) (any, error){
		"boom": func([]any) (any, error) {
			calls++
			return true, nil
		},
	})
	if got := evalSrc(t, "f && boom()", e); got != false {
		t.Fatal("&& did not short-circuit value")
	}
	if got := evalSrc(t, "t || boom()", e); got != true {
		t.Fatal("|| did not short-circuit value")
	}
	if calls != 0 {
		t.Fatalf("boom evaluated %d times", calls)
	}
}

func TestDurationArithmetic(t *testing.T) {
	e := env(map[string]any{"elapsed": 30 * time.Second}, nil)
	if got := evalSrc(t, "elapsed + 30s == 1m", e); got != true {
		t.Error("duration addition failed")
	}
	if got := evalSrc(t, "elapsed * 2 == 1m", e); got != true {
		t.Error("duration scaling failed")
	}
}

func TestRuleString(t *testing.T) {
	rules := MustParse(`when a.b > 5 for 3s { act(a.b) }`)
	s := rules[0].String()
	for _, frag := range []string{"when", "a.b", "3s", "act(a.b)"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestComments(t *testing.T) {
	rules, err := Parse("# leading comment\nwhen 1 > 0 { a() } // trailing\n# end\n")
	if err != nil || len(rules) != 1 {
		t.Fatalf("rules = %v, err = %v", rules, err)
	}
}

// MustParse panics on error; for statically known policies.
func MustParse(src string) []*Rule {
	rules, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return rules
}
