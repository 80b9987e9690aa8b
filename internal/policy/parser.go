package policy

import (
	"fmt"
	"strings"
	"time"
)

// Parse compiles a policy source into rules.
func Parse(src string) ([]*Rule, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var rules []*Rule
	for p.cur.kind != tokEOF {
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

type parser struct {
	lex *lexer
	cur token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.cur = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.cur.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expectPunct(text string) error {
	if p.cur.kind != tokPunct || p.cur.text != text {
		return p.errf("expected %q, found %q", text, p.cur.text)
	}
	return p.advance()
}

func (p *parser) parseRule() (*Rule, error) {
	if p.cur.kind != tokIdent || p.cur.text != "when" {
		return nil, p.errf("expected 'when', found %q", p.cur.text)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	rule := &Rule{Cond: cond}
	if p.cur.kind == tokIdent && p.cur.text == "for" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.cur.kind != tokNumber {
			return nil, p.errf("expected duration after 'for'")
		}
		d, ok := p.cur.val.(time.Duration)
		if !ok {
			return nil, p.errf("'for' needs a duration literal (e.g. 10s), found %q", p.cur.text)
		}
		rule.Sustain = d
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for !(p.cur.kind == tokPunct && p.cur.text == "}") {
		if p.cur.kind == tokEOF {
			return nil, p.errf("unterminated rule body")
		}
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		call, ok := expr.(*Call)
		if !ok {
			return nil, p.errf("rule actions must be calls, found %s", expr.String())
		}
		rule.Actions = append(rule.Actions, call)
		// Optional separator.
		if p.cur.kind == tokPunct && p.cur.text == ";" {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.advance(); err != nil { // consume '}'
		return nil, err
	}
	if len(rule.Actions) == 0 {
		return nil, p.errf("rule has no actions")
	}
	return rule, nil
}

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == tokPunct && p.cur.text == "||" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "||", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == tokPunct && p.cur.text == "&&" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: "&&", L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.cur.kind == tokPunct && p.cur.text == "!" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "!", X: x}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.cur.kind == tokPunct {
		switch p.cur.text {
		case "==", "!=", ">", "<", ">=", "<=":
			op := p.cur.text
			if err := p.advance(); err != nil {
				return nil, err
			}
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: left, R: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdd() (Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == tokPunct && (p.cur.text == "+" || p.cur.text == "-") {
		op := p.cur.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseMul() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == tokPunct && (p.cur.text == "*" || p.cur.text == "/") {
		op := p.cur.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.cur.kind == tokPunct && p.cur.text == "-" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	switch p.cur.kind {
	case tokNumber:
		lit := &Literal{Value: p.cur.val}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return lit, nil
	case tokString:
		lit := &Literal{Value: p.cur.text}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return lit, nil
	case tokIdent:
		switch p.cur.text {
		case "true", "false":
			lit := &Literal{Value: p.cur.text == "true"}
			if err := p.advance(); err != nil {
				return nil, err
			}
			return lit, nil
		}
		return p.parseSelectorOrCall()
	case tokPunct:
		if p.cur.text == "(" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return inner, nil
		}
	}
	return nil, p.errf("unexpected token %q", p.cur.text)
}

func (p *parser) parseSelectorOrCall() (Expr, error) {
	path := []string{p.cur.text}
	if err := p.advance(); err != nil {
		return nil, err
	}
	for p.cur.kind == tokPunct && p.cur.text == "." {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.cur.kind != tokIdent {
			return nil, p.errf("expected identifier after '.'")
		}
		path = append(path, p.cur.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.cur.kind == tokPunct && p.cur.text == "(" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		call := &Call{Name: path}
		for !(p.cur.kind == tokPunct && p.cur.text == ")") {
			if p.cur.kind == tokEOF {
				return nil, p.errf("unterminated argument list")
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, arg)
			if p.cur.kind == tokPunct && p.cur.text == "," {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.advance(); err != nil { // consume ')'
			return nil, err
		}
		return call, nil
	}
	return &Selector{Path: strings.Join(path, ".")}, nil
}
