// Package policy implements the small interpreted language in which
// business policies are written — the role JSR-223 scripting plays in the
// paper's Autonomic Module ("allowing the policies to be defined in a
// programmatic approach by means of the Scripting for the Java Platform",
// §3.3). A policy source is a list of rules:
//
//	when instance.cpu.rate > instance.sla.cpu for 10s {
//	    throttle(instance.id, instance.sla.cpu)
//	}
//	when node.memory.free < 10% {
//	    migrate(smallest(), cluster.leastLoaded())
//	}
//
// Numbers carry units: durations (10ms, 5s, 2m, 1h), sizes (64KB, 2MB,
// 1GB), percentages (10% = 0.10) and millicores (500mc). Selectors and
// calls resolve through an Env supplied by the embedder, which is also how
// actions (migrate, throttle, stop, ...) execute.
package policy

import (
	"fmt"
	"strings"
	"time"
)

// Expr is an evaluable expression node.
type Expr interface {
	exprNode()
	String() string
}

// Literal is a constant value: int64, float64, time.Duration, bool or
// string.
type Literal struct {
	Value any
}

func (*Literal) exprNode() {}

func (l *Literal) String() string { return fmt.Sprintf("%v", l.Value) }

// Selector resolves a dotted path through the environment. The parser
// joins the path once, so an evaluation builds no key.
type Selector struct {
	Path string // "instance.cpu.rate"
}

func (*Selector) exprNode() {}

func (s *Selector) String() string { return s.Path }

// Call invokes a function (or action) through the environment.
type Call struct {
	Name []string
	Args []Expr
}

func (*Call) exprNode() {}

func (c *Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return strings.Join(c.Name, ".") + "(" + strings.Join(args, ", ") + ")"
}

// Unary is !x or -x.
type Unary struct {
	Op string
	X  Expr
}

func (*Unary) exprNode() {}

func (u *Unary) String() string { return u.Op + u.X.String() }

// Binary is a binary operation.
type Binary struct {
	Op   string
	L, R Expr
}

func (*Binary) exprNode() {}

func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

// Rule is one "when <cond> [for <duration>] { actions }" clause.
type Rule struct {
	Cond    Expr
	Sustain time.Duration
	Actions []*Call
}

// String renders the rule source-like.
func (r *Rule) String() string {
	var b strings.Builder
	b.WriteString("when ")
	b.WriteString(r.Cond.String())
	if r.Sustain > 0 {
		fmt.Fprintf(&b, " for %v", r.Sustain)
	}
	b.WriteString(" { ")
	for _, a := range r.Actions {
		b.WriteString(a.String())
		b.WriteString("; ")
	}
	b.WriteString("}")
	return b.String()
}

// Env supplies values and functions to expressions. Implementations are
// provided by the embedder (the autonomic module binds instance.*, node.*,
// cluster.* and the action verbs).
type Env interface {
	// Resolve returns the value of a dotted selector path.
	Resolve(path string) (any, error)
	// Call invokes a named function with evaluated arguments.
	Call(name []string, args []any) (any, error)
}

// MapEnv is a convenience Env over maps, used in tests and simple
// embeddings.
type MapEnv struct {
	Vars  map[string]any // keyed by dotted path
	Funcs map[string]func(args []any) (any, error)
}

var _ Env = (*MapEnv)(nil)

// Resolve implements Env.
func (m *MapEnv) Resolve(path string) (any, error) {
	if v, ok := m.Vars[path]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("policy: unknown selector %q", path)
}

// Call implements Env.
func (m *MapEnv) Call(name []string, args []any) (any, error) {
	key := strings.Join(name, ".")
	if fn, ok := m.Funcs[key]; ok {
		return fn(args)
	}
	return nil, fmt.Errorf("policy: unknown function %q", key)
}
