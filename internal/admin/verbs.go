package admin

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/obs"
	"dosgi/internal/remote"
	"dosgi/internal/services"
)

// Backend is what the shared verbs need from the process serving them.
type Backend struct {
	// Invoker carries CALL through the full remote stack; its pool also
	// carries the METRICS/TRACE peer sweep.
	Invoker *remote.Invoker
	// Transport, Sched and Self (this process's remote listener address)
	// open the dosgi.events / dosgi.health subscriptions behind SUBSCRIBE
	// and ALERTS FOLLOW.
	Transport remote.Transport
	Sched     clock.Scheduler
	Self      string
	// Exports lists the exported service names, one EXPORTS row each.
	Exports func() []string
	// Metrics and Tracer are the local half of METRICS and TRACE; Peers
	// (remote listener addresses, may be empty) are swept for the rest.
	Metrics *services.MetricsRemote
	Tracer  *obs.Tracer
	Peers   []string
	// Health backs HEALTH and ALERTS.
	Health *HealthView
}

// Verbs returns the verbs every backend serves.
func (b *Backend) Verbs() []Verb {
	return []Verb{
		{Name: "QUIT", Run: func(_ []string, out *Reply) (string, error) {
			out.quit = true
			return "bye", nil
		}},
		{Name: "EXPORTS", Run: b.exports},
		{Name: "CALL", Usage: "CALL <service> <method> [args...]", Min: 2, Max: -1, Run: b.call},
		{Name: "SUBSCRIBE", Usage: "SUBSCRIBE <count> [filter] [addr] [window]", Min: 1, Max: 4, Run: b.subscribe},
		{Name: "METRICS", Usage: "METRICS [provider]", Max: 1, Run: b.metrics},
		{Name: "TRACE", Usage: "TRACE [id]", Max: 1, Run: b.trace},
		{Name: "HEALTH", Usage: "HEALTH [node]", Max: 1, Run: b.health},
		{Name: "ALERTS", Usage: "ALERTS [FOLLOW [count]]", Max: 2, Run: b.alerts},
	}
}

func (b *Backend) exports(_ []string, out *Reply) (string, error) {
	names := b.Exports()
	for _, name := range names {
		out.Row("%s", name)
	}
	return OKf("%d export(s)", len(names))
}

func (b *Backend) call(args []string, out *Reply) (string, error) {
	callArgs := make([]any, 0, len(args)-2)
	for _, tok := range args[2:] {
		callArgs = append(callArgs, ParseCallArg(tok))
	}
	results, err := b.Invoker.Call(args[0], args[1], callArgs...)
	if err != nil {
		return "", err
	}
	// "= " keeps result values out of the OK/ERR status channel (a
	// service returning "OK" or "ERR ..." must not terminate the
	// response early), and embedded newlines are quoted so one
	// result stays one protocol line.
	for _, res := range results {
		text := fmt.Sprintf("%v", res)
		if strings.ContainsAny(text, "\n\r") {
			text = strconv.Quote(text)
		}
		out.Row("= %s", text)
	}
	return OKf("%d result(s)", len(results))
}

func (b *Backend) subscribe(args []string, out *Reply) (string, error) {
	count, err := Count(args[0])
	if err != nil {
		return "", err
	}
	filter := ""
	if len(args) >= 2 {
		filter = strings.Trim(args[1], `"`)
	}
	addr := b.Self
	if len(args) >= 3 {
		addr = args[2]
	}
	window := int64(0) // 0 → the subscriber's default credit window
	if len(args) == 4 {
		w, werr := strconv.ParseInt(args[3], 10, 64)
		if werr != nil || w < 0 {
			return "", errors.New("window must be a non-negative integer")
		}
		if w == 0 {
			window = -1 // explicit 0 disables flow control
		} else {
			window = w
		}
	}
	n, err := b.streamEvents("", "EVENT", addr, filter, count, window, out)
	if err != nil {
		return "", err
	}
	return OKf("%d event(s)", n)
}

// subscribeTimeout bounds how long SUBSCRIBE and ALERTS FOLLOW wait for
// the requested count before answering with what arrived.
const subscribeTimeout = 30 * time.Second

// streamEvents subscribes to addr's event stream — service "" for
// dosgi.events, remote.HealthServiceName for the alert stream — and
// emits up to count events as "<label> ..." rows, returning how many
// arrived before the timeout or the client's hang-up. window is the
// advertised credit window (0 = subscriber default, negative = flow
// control off).
func (b *Backend) streamEvents(service, label, addr, filter string, count int, window int64, out *Reply) (int, error) {
	// Resync bursts are absorbed here while a row is being written.
	events := make(chan remote.ServiceEvent, 64)
	sub, err := remote.NewSubscriber(remote.SubscriberConfig{
		Transport: b.Transport,
		Sched:     b.Sched,
		Service:   service,
		Addrs:     []string{addr},
		Filter:    filter,
		Window:    window,
		OnEvent: func(ev remote.ServiceEvent) {
			select {
			case events <- ev:
			default: // an overwhelmed admin client drops, not deadlocks
			}
		},
	})
	if err != nil {
		return 0, err
	}
	defer sub.Close()
	deadline := time.NewTimer(subscribeTimeout)
	defer deadline.Stop()
	received := 0
	for received < count && out.err == nil {
		select {
		case ev := <-events:
			out.Row("%s %s %s node=%s addr=%s instance=%s seq=%d",
				label, ev.Type, ev.Service, ev.Node, ev.Addr, ev.Instance, ev.Seq)
			received++
		case <-deadline.C:
			return received, nil
		case <-out.gone:
			return received, nil
		}
	}
	return received, nil
}

func (b *Backend) health(args []string, out *Reply) (string, error) {
	var rows []remote.ServiceEvent
	for _, ev := range b.Health.Snapshot() {
		if len(args) == 0 || ev.Node == args[0] {
			rows = append(rows, ev)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { // component-major, as one key "component@node"
		return rows[i].Service+"@"+rows[i].Node < rows[j].Service+"@"+rows[j].Node
	})
	for _, ev := range rows {
		out.Row("%s node=%s status=%s cause=%s", ev.Service, ev.Node, ev.Addr, ev.Instance)
	}
	return OKf("%d record(s)", len(rows))
}

func (b *Backend) alerts(args []string, out *Reply) (string, error) {
	if len(args) == 0 {
		recent := b.Health.Alerts()
		for _, row := range recent {
			out.Row("%s", row)
		}
		return OKf("%d alert(s)", len(recent))
	}
	if !strings.EqualFold(args[0], "FOLLOW") {
		return "", ErrUsage
	}
	count := 16
	if len(args) == 2 {
		var err error
		if count, err = Count(args[1]); err != nil {
			return "", err
		}
	}
	n, err := b.streamEvents(remote.HealthServiceName, "ALERT", b.Self, "", count, 0, out)
	if err != nil {
		return "", err
	}
	return OKf("%d alert(s)", n)
}

// metrics prints this process's metrics and every peer's, one row per
// attribute prefixed with the serving origin ("local" or the peer's
// remote address) — the one-stop pull: any daemon answers for the whole
// fleet it knows. A provider argument narrows the sweep to one provider
// name. Unreachable peers become a single annotated row instead of an
// error, so a partitioned fleet still reports what it can see.
func (b *Backend) metrics(args []string, out *Reply) (string, error) {
	n := 0
	emit := func(origin string, lines []any) {
		for _, l := range lines {
			if s, ok := l.(string); ok {
				out.Row("%s %s", origin, s)
				n++
			}
		}
	}
	method, margs := "Snapshot", []any(nil)
	if len(args) == 0 {
		emit("local", b.Metrics.Snapshot())
	} else {
		emit("local", b.Metrics.Read(args[0]))
		method, margs = "Read", []any{args[0]}
	}
	for _, addr := range b.Peers {
		lines, err := b.askMetrics(addr, method, margs...)
		if err != nil {
			out.Row("%s unreachable: %v", addr, err)
			n++
			continue
		}
		emit(addr, lines)
	}
	return OKf("%d line(s)", n)
}

// askMetrics invokes one method of a specific peer's dosgi.metrics
// service — no failover, the answer must come from that peer — and
// returns its line list.
func (b *Backend) askMetrics(addr, method string, args ...any) ([]any, error) {
	resp, err := b.Invoker.Pool().Call(addr,
		&remote.Request{Service: services.MetricsRemoteName, Method: method, Args: args})
	if err != nil {
		return nil, err
	}
	if resp.Status != remote.StatusOK {
		return nil, errors.New(resp.Err)
	}
	if len(resp.Results) == 0 {
		return nil, nil
	}
	lines, _ := resp.Results[0].([]any)
	return lines, nil
}

// trace lists recent locally initiated traces, or — given an id — merges
// that trace's spans from the local store and every peer's (shipped as
// wire tuples over dosgi.metrics) into one deterministic start-time
// order: failover attempts and the server executions they reached side
// by side. Start offsets are each process's own monotonic clock, so
// cross-process ordering is approximate; within a process it is exact.
func (b *Backend) trace(args []string, out *Reply) (string, error) {
	if len(args) == 0 {
		lines := b.Metrics.Recent(16)
		for _, l := range lines {
			out.Row("%v", l)
		}
		return OKf("%d trace(s)", len(lines))
	}
	tid, err := strconv.ParseUint(strings.TrimPrefix(args[0], "0x"), 16, 64)
	if err != nil || tid == 0 {
		return "", errors.New("trace id must be hex (run TRACE with no argument for recent ids)")
	}
	spans := append([]obs.Span(nil), b.Tracer.Trace(tid)...)
	for _, addr := range b.Peers {
		tuples, err := b.askMetrics(addr, "Trace", int64(tid))
		if err != nil {
			out.Row("%s unreachable: %v", addr, err)
			continue
		}
		for _, t := range tuples {
			if tup, ok := t.([]any); ok {
				if sp, ok := obs.SpanFromTuple(tup); ok {
					spans = append(spans, sp)
				}
			}
		}
	}
	obs.SortSpans(spans)
	for _, sp := range spans {
		out.Row("= %s", sp.String())
	}
	return OKf("%d span(s)", len(spans))
}
