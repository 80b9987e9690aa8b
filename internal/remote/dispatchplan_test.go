package remote

import (
	"errors"
	"reflect"
	"sync"
	"testing"
)

// joiner shares the method name Add with calculator, with other types.
type joiner struct{ sep string }

func (j *joiner) Add(a, b string) string { return a + j.sep + b }

func (j *joiner) Total(base int64, ns ...int8) int64 {
	for _, n := range ns {
		base += int64(n)
	}
	return base
}

func (j *joiner) Boom() { panic("kaboom") }

// firstUse is dispatched to by nothing but TestDispatchPlanConcurrentFirstUse.
type firstUse struct{}

func (firstUse) Twice(n int32) int32 { return 2 * n }

// TestInvokeServiceTable pins reflection dispatch through the cached
// plans: results, and every error text, are what the uncached
// MethodByName walk produced.
func TestInvokeServiceTable(t *testing.T) {
	calc, join := calculator{}, &joiner{sep: "-"}
	cases := []struct {
		name    string
		svc     any
		method  string
		args    []any
		want    []any
		wantErr string
		is      error
	}{
		{name: "ints", svc: calc, method: "Add", args: []any{int64(40), int64(2)}, want: []any{int64(42)}},
		{name: "same name, other type", svc: join, method: "Add", args: []any{"a", "b"}, want: []any{"a-b"}},
		{name: "error result nil", svc: calc, method: "Div", args: []any{6.0, 3.0}, want: []any{2.0}},
		{name: "error result set", svc: calc, method: "Div", args: []any{1.0, 0.0}, wantErr: "division by zero"},
		{name: "int widens to float", svc: calc, method: "Div", args: []any{int64(6), 3.0}, want: []any{2.0}},
		{name: "variadic none", svc: calc, method: "Sum", want: []any{int64(0)}},
		{name: "variadic many", svc: calc, method: "Sum", args: []any{int64(1), int64(2), int64(3)}, want: []any{int64(6)}},
		{name: "fixed then variadic", svc: join, method: "Total", args: []any{int64(10), int64(1), int64(2)}, want: []any{int64(13)}},
		{name: "no results", svc: join, method: "Total", args: []any{int64(10)}, want: []any{int64(10)}},
		{name: "no such method", svc: calc, method: "Nope", is: ErrNoSuchMethod,
			wantErr: "remote: no such method: Nope on remote.calculator"},
		{name: "unexported-looking name", svc: join, method: "sep", is: ErrNoSuchMethod,
			wantErr: "remote: no such method: sep on *remote.joiner"},
		{name: "too few", svc: calc, method: "Add", args: []any{int64(1)}, is: ErrBadArguments,
			wantErr: "remote: arguments do not match method: Add wants 2 args, got 1"},
		{name: "too many", svc: calc, method: "Upper", args: []any{"a", "b"}, is: ErrBadArguments,
			wantErr: "remote: arguments do not match method: Upper wants 1 args, got 2"},
		{name: "variadic too few", svc: join, method: "Total", is: ErrBadArguments,
			wantErr: "remote: arguments do not match method: Total wants at least 1 args, got 0"},
		{name: "wrong type", svc: calc, method: "Add", args: []any{int64(1), "x"}, is: ErrBadArguments,
			wantErr: "remote: arguments do not match method: Add arg 1: cannot use string as int64"},
		{name: "wrong type on the other Add", svc: join, method: "Add", args: []any{int64(1), "x"}, is: ErrBadArguments,
			wantErr: "remote: arguments do not match method: Add arg 0: cannot use int64 as string"},
		{name: "variadic overflow", svc: join, method: "Total", args: []any{int64(1), int64(300)}, is: ErrBadArguments,
			wantErr: "remote: arguments do not match method: Total arg 1: 300 overflows int8"},
		{name: "nil for value", svc: calc, method: "Upper", args: []any{nil}, is: ErrBadArguments,
			wantErr: "remote: arguments do not match method: Upper arg 0: nil for string"},
	}
	for _, tc := range cases {
		for pass := 0; pass < 2; pass++ { // cold plan, then cached
			got, err := InvokeService(tc.svc, tc.method, tc.args)
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr || (tc.is != nil && !errors.Is(err, tc.is)) {
					t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
				}
				continue
			}
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s: = %v, %v; want %v", tc.name, got, err, tc.want)
			}
		}
	}

	// A panicking method is still contained by the dispatcher.
	d := NewDispatcher(tableSource{"j": join})
	resp := d.Serve(&Request{Corr: 9, Service: "j", Method: "Boom"})
	if resp.Status != StatusAppError || resp.Err != "panic in j.Boom: kaboom" || resp.Corr != 9 {
		t.Errorf("panic containment: %+v", resp)
	}
}

// TestDispatchPlanConcurrentFirstUse: goroutines racing to build the plan
// of a type nobody dispatched to yet all get a working one (run under
// -race).
func TestDispatchPlanConcurrentFirstUse(t *testing.T) {
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got, err := InvokeService(firstUse{}, "Twice", []any{int64(g)})
			if err != nil || len(got) != 1 || got[0] != int64(2*g) {
				t.Errorf("Twice(%d) = %v, %v", g, got, err)
			}
		}(g)
	}
	close(start)
	wg.Wait()
}

func BenchmarkDispatchServe(b *testing.B) {
	d := NewDispatcher(tableSource{"calc": calculator{}})
	req := &Request{Corr: 7, Service: "calc", Method: "Add", Args: []any{int64(2), int64(3)}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.Serve(req)
	}
}
