package migrate

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// modelTable is the plain nested-map record table (key → holder →
// record): slow, but obviously right. recordTable must give the same
// answers, in the same order, on every tape.
type modelTable[V comparable] struct {
	*family[V]
	recs map[string]map[string]V
}

func (t *modelTable[V]) put(v V) bool {
	if t.recs[t.key(v)] == nil {
		t.recs[t.key(v)] = make(map[string]V)
	}
	_, existed := t.recs[t.key(v)][t.holder(v)]
	t.recs[t.key(v)][t.holder(v)] = v
	return existed
}

func (t *modelTable[V]) remove(key, holder string) (V, bool) {
	v, ok := t.recs[key][holder]
	delete(t.recs[key], holder)
	if len(t.recs[key]) == 0 {
		delete(t.recs, key)
	}
	return v, ok
}

func (t *modelTable[V]) prune(live map[string]bool) []V {
	var removed []V
	for key, byHolder := range t.recs {
		for holder, v := range byHolder {
			if !live[holder] {
				removed = append(removed, v)
				t.remove(key, holder)
			}
		}
	}
	sort.Slice(removed, func(i, j int) bool {
		if hi, hj := t.holder(removed[i]), t.holder(removed[j]); hi != hj {
			return hi < hj
		}
		return t.key(removed[i]) < t.key(removed[j])
	})
	return removed
}

func (t *modelTable[V]) replaceOf(holder string, vs []V) (added, updated, removed []V) {
	prev := make(map[string]V)
	for key, byHolder := range t.recs {
		if v, ok := byHolder[holder]; ok {
			prev[key] = v
		}
	}
	next := make(map[string]bool)
	for _, v := range vs {
		if t.holder(v) != holder {
			continue
		}
		next[t.key(v)] = true
		if old, existed := prev[t.key(v)]; !existed {
			added = append(added, v)
		} else if old != v {
			updated = append(updated, v)
		}
		t.put(v)
	}
	for key, old := range prev {
		if !next[key] {
			removed = append(removed, old)
			t.remove(key, holder)
		}
	}
	for _, vs := range [][]V{added, updated, removed} {
		sort.Slice(vs, func(i, j int) bool { return t.key(vs[i]) < t.key(vs[j]) })
	}
	return added, updated, removed
}

func (t *modelTable[V]) forKey(key string) []V {
	out := make([]V, 0, len(t.recs[key]))
	for _, v := range t.recs[key] {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return t.holder(out[i]) < t.holder(out[j]) })
	return out
}

func (t *modelTable[V]) all() []V {
	var out []V
	for _, byHolder := range t.recs {
		for _, v := range byHolder {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if t.key(out[i]) != t.key(out[j]) {
			return t.key(out[i]) < t.key(out[j])
		}
		return t.holder(out[i]) < t.holder(out[j])
	})
	return out
}

// The tape's alphabet: few keys and holders, so records collide, update
// and share keys across holders.
var (
	tapeKeys    = []string{"svc-a", "svc-b", "svc-c", "svc-d", "svc-e", "svc-f", "svc-g", "svc-h"}
	tapeHolders = []string{"n0", "n1", "n2", "n3"}
)

// tapeRecord decodes one byte into a record: key, holder and address.
func tapeRecord(b byte) EndpointInfo {
	return EndpointInfo{Service: tapeKeys[b%8], Node: tapeHolders[b/8%4], Addr: tapeAddrs[b/32]}
}

var tapeAddrs = []string{"10.0.0.0:1", "10.0.0.1:1", "10.0.0.2:1", "10.0.0.3:1", "10.0.0.4:1", "10.0.0.5:1", "10.0.0.6:1", "10.0.0.7:1"}

// runTape drives recordTable and modelTable with the operations tape
// encodes — put, remove, replaceOf, prune, forKey and all — and fails on
// the first step where any result, or the tables' contents, differ in
// value or order.
func runTape(t *testing.T, tape []byte) {
	t.Helper()
	got := newRecordTable(endpointFamily)
	want := &modelTable[EndpointInfo]{family: endpointFamily, recs: make(map[string]map[string]EndpointInfo)}
	pos := 0
	next := func() (byte, bool) {
		if pos >= len(tape) {
			return 0, false
		}
		pos++
		return tape[pos-1], true
	}
	for step := 0; ; step++ {
		code, ok := next()
		if !ok {
			return
		}
		arg, ok := next()
		if !ok {
			return
		}
		// op describes the step, formatted only when it fails.
		var op []any
		check := func(what string, g, w any) {
			t.Helper()
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("step %d, %v → %s:\n table %#v\n model %#v", step, op, what, g, w)
			}
		}
		switch code % 6 {
		case 0:
			v := tapeRecord(arg)
			op = []any{"put", v}
			check("existed", got.put(v), want.put(v))
		case 1:
			v := tapeRecord(arg)
			op = []any{"remove", v.Service, v.Node}
			gv, gok := got.remove(v.Service, v.Node)
			wv, wok := want.remove(v.Service, v.Node)
			check("removed", []any{gv, gok}, []any{wv, wok})
		case 2:
			holder := tapeHolders[arg%4]
			var vs []EndpointInfo
			for n := int(code/6) % 7; n > 0; n-- {
				b, ok := next()
				if !ok {
					break
				}
				v := tapeRecord(b)
				if b < 224 { // one record in eight speaks for another holder
					v.Node = holder
				}
				vs = append(vs, v)
			}
			op = []any{"replaceOf", holder, vs}
			ga, gu, gr := got.replaceOf(holder, vs)
			wa, wu, wr := want.replaceOf(holder, vs)
			check("added, updated, removed", [][]EndpointInfo{ga, gu, gr}, [][]EndpointInfo{wa, wu, wr})
		case 3:
			live := make(map[string]bool)
			for i, h := range tapeHolders {
				if arg&(1<<i) != 0 {
					live[h] = true
				}
			}
			op = []any{"prune", live}
			check("pruned", got.prune(live), want.prune(live))
		case 4:
			key := tapeKeys[arg%8]
			op = []any{"forKey", key}
			check("records", got.forKey(key), want.forKey(key))
		case 5:
			op = []any{"all"}
		}
		check("all", got.all(), want.all())
	}
}

// TestRecordTableMatchesModel runs seeded random tapes through the table
// and the nested-map model.
func TestRecordTableMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		tape := make([]byte, 2048)
		rand.New(rand.NewSource(seed)).Read(tape)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runTape(t, tape) })
	}
}

// FuzzRecordTable decodes the same tape from fuzz input.
func FuzzRecordTable(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		tape := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(tape)
		f.Add(tape)
	}
	f.Fuzz(func(t *testing.T, tape []byte) { runTape(t, tape) })
}
