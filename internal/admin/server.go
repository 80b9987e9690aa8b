package admin

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
)

// Verb is one row of a server's verb table.
type Verb struct {
	// Name is the command word, upper case; commands are case-folded
	// before lookup.
	Name string
	// Usage is printed as "ERR usage: <Usage>" when the argument count is
	// outside [Min, Max] (Max < 0: unbounded) or Run returns ErrUsage. A
	// verb without a usage string takes no arguments and ignores any.
	Usage    string
	Min, Max int
	// Hidden keeps the verb out of the unknown-command list: it is
	// answered, not advertised.
	Hidden bool
	// Run serves one command. args excludes the verb. It writes result
	// rows to out and returns the text after the terminator's OK, or an
	// error that becomes the ERR terminator — the server writes exactly
	// one terminator per command.
	Run func(args []string, out *Reply) (ok string, err error)
}

// ErrUsage makes the server answer with the verb's usage line.
var ErrUsage = errors.New("usage")

// Server serves the admin line protocol from a verb table. It tracks its
// live connections so Close can end them.
type Server struct {
	verbs map[string]*Verb
	names []string // advertised, in registration order

	mu     sync.Mutex
	lns    []net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds a server over the concatenation of the verb groups —
// typically a backend's own verbs and Backend.Verbs. A duplicate name is
// a programming error and panics.
func NewServer(groups ...[]Verb) *Server {
	s := &Server{verbs: make(map[string]*Verb), conns: make(map[net.Conn]struct{})}
	for _, group := range groups {
		for i := range group {
			v := &group[i]
			if _, dup := s.verbs[v.Name]; dup {
				panic("admin: verb " + v.Name + " registered twice")
			}
			s.verbs[v.Name] = v
			if !v.Hidden {
				s.names = append(s.names, v.Name)
			}
		}
	}
	return s
}

// Names lists the advertised verbs in registration order — what an
// unknown command is answered with.
func (s *Server) Names() []string { return append([]string(nil), s.names...) }

// Serve accepts connections on ln until it closes, then returns the
// accept error. Each connection is served on its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return net.ErrClosed
	}
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			continue // the closed listener ends the loop
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(2) // the command loop and its line reader
		s.mu.Unlock()
		go s.serve(conn)
	}
}

// Close stops the listeners, closes every live connection — which also
// cancels streaming verbs in flight — and returns once the connection
// goroutines have exited. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for _, ln := range s.lns {
		_ = ln.Close()
	}
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// serve runs one connection's command loop. Lines are read on a second
// goroutine so that a client hanging up while a verb is still streaming
// is noticed when it happens (Reply.gone), not at the verb's next write
// — there may never be one.
func (s *Server) serve(conn net.Conn) {
	lines := make(chan string)
	gone := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer s.wg.Done()
		defer close(gone)
		sc := newScanner(conn)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-done:
				return
			}
		}
	}()
	defer func() {
		close(done)
		_ = conn.Close() // unblocks the reader
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	out := &Reply{w: bufio.NewWriter(conn), gone: gone}
	for !out.quit && out.err == nil {
		select {
		case line := <-lines:
			s.dispatch(line, out)
		case <-gone:
			return
		}
	}
}

// dispatch serves one command line and writes its terminator.
func (s *Server) dispatch(line string, out *Reply) {
	fields := SplitCommand(line)
	if len(fields) == 0 {
		return
	}
	name := strings.ToUpper(fields[0])
	v, ok := s.verbs[name]
	if !ok {
		out.Row("ERR unknown command %s (supported: %s)", name, strings.Join(s.names, " "))
		return
	}
	args := fields[1:]
	var msg string
	err := ErrUsage
	if v.Usage == "" || len(args) >= v.Min && (v.Max < 0 || len(args) <= v.Max) {
		msg, err = v.Run(args, out)
	}
	switch {
	case errors.Is(err, ErrUsage):
		out.Row("ERR usage: %s", v.Usage)
	case err != nil:
		out.Row("ERR %v", err)
	case msg == "":
		out.Row("OK")
	default:
		out.Row("OK %s", msg)
	}
}

// OKf formats the text after a terminator's OK; a handler returns it.
func OKf(format string, args ...any) (string, error) {
	return fmt.Sprintf(format, args...), nil
}
