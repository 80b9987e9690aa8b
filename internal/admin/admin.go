// Package admin is the one implementation of the admin line protocol
// (docs/PROTOCOL.md annex B) that dosgictl speaks: cmd/dosgid and
// internal/protosim are thin configurations of it, so a client cannot
// tell the simulator from a daemon on any verb they share.
//
// The package owns the format (one command per line, a quote-aware
// tokenizer, result rows, the OK/ERR terminator, the line caps, and the
// client half of the same rule), a verb table a Server dispatches from,
// the verbs both backends serve (Backend.Verbs) and the fleet health
// view behind HEALTH and ALERTS (HealthView). What a backend adds is a
// slice of its own Verbs.
package admin

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dosgi/internal/provision"
)

// A CALL argument or result line may be as large as a frame of the
// remote protocol allows; bufio.Scanner's 64 KiB default cap would drop
// the connection mid-response. Both ends scan with these bounds.
const (
	lineBufInitial = 64 << 10
	maxLine        = 32 << 20
)

func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, lineBufInitial), maxLine)
	return sc
}

// SplitCommand tokenizes an admin line like strings.Fields but keeps
// double-quoted segments — quotes included, so ParseCallArg still sees
// them — intact: `CALL echo Upper "hello world"` is four tokens.
func SplitCommand(line string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	for _, r := range line {
		switch {
		case r == '"':
			inQuote = !inQuote
			cur.WriteRune(r)
		case !inQuote && (r == ' ' || r == '\t'):
			if cur.Len() > 0 {
				out = append(out, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// ParseCallArg maps a CLI token to a wire value: int64, float64, bool,
// then string. Double quotes force string (`"42"` stays "42") and allow
// embedded spaces.
func ParseCallArg(tok string) any {
	if v, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return v
	}
	if v, err := strconv.ParseFloat(tok, 64); err == nil {
		return v
	}
	if v, err := strconv.ParseBool(tok); err == nil {
		return v
	}
	return strings.Trim(tok, `"`)
}

// Count parses a verb's count argument.
func Count(tok string) (int, error) {
	n, err := strconv.Atoi(tok)
	if err != nil || n <= 0 {
		return 0, errors.New("count must be a positive integer")
	}
	return n, nil
}

// RepoListLine formats one REPO LIST row. holders names every known
// holder of the artifact — "local" plus peer addresses on a daemon, fake
// node names on the simulator.
func RepoListLine(art provision.Artifact, holders []string) string {
	return fmt.Sprintf("%s %.12s %dB chunks=%d signer=%s holders=%s",
		art.Location, art.Digest, art.Size, art.Chunks, art.Signer,
		strings.Join(holders, ","))
}

// Reply writes one connection's response lines. The first write error
// sticks: later rows are dropped and the server hangs up after the
// command, so a handler never needs to check every row — only the event
// pump, which waits between rows, consults err and gone.
type Reply struct {
	w    *bufio.Writer
	err  error           // first write error; nil while the client is reading
	gone <-chan struct{} // closed once the client's side of the connection ended
	quit bool            // hang up after this command's terminator
}

// Row writes one response line and flushes it, so a streaming verb's
// rows reach the client as they happen.
func (r *Reply) Row(format string, args ...any) {
	if r.err != nil {
		return
	}
	if _, r.err = fmt.Fprintf(r.w, format+"\n", args...); r.err == nil {
		r.err = r.w.Flush()
	}
}

// isTerminator reports whether line ends a response: the status channel
// is any line starting with OK or ERR, which is why handlers keep
// free-form values behind a "= " prefix.
func isTerminator(line string) bool {
	return strings.HasPrefix(line, "OK") || strings.HasPrefix(line, "ERR")
}

// Exchange is the client half of the protocol: it sends one command and
// hands every response line, the terminator last, to line as it
// arrives. It returns the terminator — an "ERR ..." answer is a
// response, not an error; err reports a connection that failed or ended
// before one arrived.
func Exchange(conn io.ReadWriter, command string, line func(string)) (string, error) {
	if _, err := fmt.Fprintf(conn, "%s\n", command); err != nil {
		return "", err
	}
	sc := newScanner(conn)
	for sc.Scan() {
		l := sc.Text()
		line(l)
		if isTerminator(l) {
			return l, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}
