package services

import (
	"fmt"
	"strings"
	"time"
)

// Echo is the built-in exported probe service both protocol backends
// register as "echo": dosgid's demo export (and the object behind every
// CREATEd instance's app.<id>), and the implementation behind the
// simulator's whole synthetic population — a simulated service fakes its
// existence, not its business logic. The method set is the one the
// conformance suite drives (PROTOCOL.md §5, §7).
type Echo struct{}

func (Echo) Upper(s string) string { return strings.ToUpper(s) }

func (Echo) Reverse(s string) string {
	runes := []rune(s)
	for i, j := 0, len(runes)-1; i < j; i, j = i+1, j-1 {
		runes[i], runes[j] = runes[j], runes[i]
	}
	return string(runes)
}

func (Echo) Add(a, b int64) int64 { return a + b }

// Sleep blocks the handler for ms milliseconds and returns ms — the
// latency-fault injector: CALL echo Sleep 120 against a daemon records a
// breaching sample in the caller's invoker-call window, flipping its
// remote-path health record. It is also the pipelining probe: a Sleep
// issued before a fast call completes after it on one connection.
func (Echo) Sleep(ms int64) int64 {
	time.Sleep(time.Duration(ms) * time.Millisecond)
	return ms
}

// Echo returns its arguments unchanged — the conformance suite's codec
// round-trip probe (PROTOCOL.md §5): every wire value shape must survive
// request decode and response encode.
func (Echo) Echo(vs ...any) []any { return vs }

// Boom panics — the §7 containment probe: the dispatcher must degrade
// the panic to an application error on this correlation id, not kill the
// connection.
func (Echo) Boom() string { panic("echo: boom") }

// Weird returns a value the wire codec cannot encode — the §7
// degradation probe: the reply must be an application error, never a
// silently dropped response.
func (Echo) Weird() map[string]string { return map[string]string{"un": "encodable"} }

// Blob returns n bytes — past the frame limit, the §7 response-size
// probe: an executed call whose result cannot travel must still answer
// its correlation id with an application error.
func (Echo) Blob(n int64) ([]byte, error) {
	const maxBlob = 24 << 20
	if n < 0 || n > maxBlob {
		return nil, fmt.Errorf("blob size %d out of range [0, %d]", n, maxBlob)
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)
	}
	return b, nil
}
