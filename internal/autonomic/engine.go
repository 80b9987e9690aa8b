// Package autonomic implements the paper's Autonomic Module (§3.3): it
// evaluates administrator-defined business policies against the state
// exposed by the Monitoring and Migration modules and executes enforcement
// actions — stopping, throttling or migrating virtual instances. Policies
// are written in the policy DSL (the JSR-223 analog) and engines compose
// hierarchically, mirroring Serpentine's "hierarchization capabilities …
// supporting different levels of control of the system".
package autonomic

import (
	"sync"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/policy"
)

// Subject is one entity policies are evaluated against (an instance, a
// node, the cluster). Env exposes its attributes and the action verbs.
type Subject struct {
	ID  string
	Env policy.Env
}

// ActionEvent reports one executed (or failed) policy action.
type ActionEvent struct {
	Subject string
	Rule    int
	Action  string
	Err     error
	At      time.Duration
}

// Option configures an Engine.
type Option func(*Engine)

// WithInterval sets the evaluation period (default 100ms).
func WithInterval(d time.Duration) Option {
	return func(e *Engine) { e.interval = d }
}

// ruleSubject keys the engine's per-rule, per-subject state.
type ruleSubject struct {
	rule    int
	subject string
}

// Engine periodically evaluates rules over subjects.
type Engine struct {
	sched    clock.Scheduler
	interval time.Duration

	mu        sync.Mutex
	rules     []*policy.Rule
	subjects  func() []Subject
	holdSince map[ruleSubject]time.Duration
	fired     map[ruleSubject]bool
	// live is the set of pairs the current tick evaluated, cleared and
	// refilled by every tick.
	live     map[ruleSubject]bool
	onAction []func(ActionEvent)
	onError  []func(subject string, err error)
	timer    clock.Timer
	running  bool
}

// New builds an engine driven by sched.
func New(sched clock.Scheduler, opts ...Option) *Engine {
	e := &Engine{
		sched:     sched,
		interval:  100 * time.Millisecond,
		holdSince: make(map[ruleSubject]time.Duration),
		fired:     make(map[ruleSubject]bool),
		live:      make(map[ruleSubject]bool),
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// LoadPolicies parses source and appends its rules.
func (e *Engine) LoadPolicies(source string) error {
	rules, err := policy.Parse(source)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rules = append(e.rules, rules...)
	return nil
}

// RuleCount returns the number of loaded rules.
func (e *Engine) RuleCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.rules)
}

// SetSubjects installs the subject provider consulted on every tick.
func (e *Engine) SetSubjects(fn func() []Subject) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.subjects = fn
}

// OnAction subscribes to action executions.
func (e *Engine) OnAction(fn func(ActionEvent)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onAction = append(e.onAction, fn)
}

// OnError subscribes to evaluation errors.
func (e *Engine) OnError(fn func(subject string, err error)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onError = append(e.onError, fn)
}

// Start begins periodic evaluation.
func (e *Engine) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running {
		return
	}
	e.running = true
	e.timer = e.sched.Every(e.interval, e.TickNow)
}

// Stop halts evaluation.
func (e *Engine) Stop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.running = false
	if e.timer != nil {
		e.timer.Cancel()
		e.timer = nil
	}
}

// TickNow evaluates every rule against every subject once. Exposed for
// tests and for parent controllers that drive children explicitly.
func (e *Engine) TickNow() {
	e.mu.Lock()
	provider := e.subjects
	rules := append(make([]*policy.Rule, 0, len(e.rules)), e.rules...)
	e.mu.Unlock()
	if provider == nil {
		return
	}
	now := e.sched.Now()
	subjects := provider()

	type firing struct {
		subject Subject
		rule    int
	}
	var firings []firing
	e.mu.Lock()
	clear(e.live)
	for _, subj := range subjects {
		for idx, rule := range rules {
			key := ruleSubject{rule: idx, subject: subj.ID}
			e.live[key] = true
			cond, err := policy.EvalBool(rule.Cond, subj.Env)
			if err != nil {
				e.queueErrorLocked(subj.ID, err)
				cond = false
			}
			if !cond {
				delete(e.holdSince, key)
				e.fired[key] = false
				continue
			}
			since, holding := e.holdSince[key]
			if !holding {
				e.holdSince[key] = now
				since = now
			}
			if now-since >= rule.Sustain && !e.fired[key] {
				e.fired[key] = true
				firings = append(firings, firing{subject: subj, rule: idx})
			}
		}
	}
	// Drop state of vanished subjects.
	for key := range e.holdSince {
		if !e.live[key] {
			delete(e.holdSince, key)
		}
	}
	for key := range e.fired {
		if !e.live[key] {
			delete(e.fired, key)
		}
	}
	e.mu.Unlock()

	for _, f := range firings {
		for _, action := range rules[f.rule].Actions {
			_, err := policy.Eval(action, f.subject.Env)
			e.emitAction(ActionEvent{
				Subject: f.subject.ID,
				Rule:    f.rule,
				Action:  action.String(),
				Err:     err,
				At:      now,
			})
		}
	}
}

func (e *Engine) queueErrorLocked(subject string, err error) {
	handlers := append(make([]func(string, error), 0, len(e.onError)), e.onError...)
	e.sched.After(0, func() {
		for _, fn := range handlers {
			fn(subject, err)
		}
	})
}

func (e *Engine) emitAction(ev ActionEvent) {
	e.mu.Lock()
	handlers := append(make([]func(ActionEvent), 0, len(e.onAction)), e.onAction...)
	e.mu.Unlock()
	for _, fn := range handlers {
		fn(ev)
	}
}
