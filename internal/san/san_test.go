package san

import (
	"errors"
	"testing"
	"time"

	"dosgi/internal/sim"
)

func TestPutGetDelete(t *testing.T) {
	eng := sim.New(1)
	s := NewStore(eng)
	if v := s.Put("a/b", []byte("one")); v != 1 {
		t.Fatalf("version = %d", v)
	}
	if v := s.Put("a/b", []byte("two")); v != 2 {
		t.Fatalf("version = %d", v)
	}
	data, err := s.Get("a/b")
	if err != nil || string(data) != "two" {
		t.Fatalf("Get = %q, %v", data, err)
	}
	if s.Version("a/b") != 2 {
		t.Fatal("Version mismatch")
	}
	s.Delete("a/b")
	if _, err := s.Get("a/b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v", err)
	}
	if s.Version("a/b") != 0 {
		t.Fatal("version of deleted object")
	}
}

func TestGetIsCopy(t *testing.T) {
	eng := sim.New(1)
	s := NewStore(eng)
	s.Put("k", []byte("abc"))
	data, _ := s.Get("k")
	data[0] = 'X'
	again, _ := s.Get("k")
	if string(again) != "abc" {
		t.Fatal("store aliased returned slice")
	}
}

func TestPutCopiesInput(t *testing.T) {
	eng := sim.New(1)
	s := NewStore(eng)
	buf := []byte("abc")
	s.Put("k", buf)
	buf[0] = 'X'
	got, _ := s.Get("k")
	if string(got) != "abc" {
		t.Fatal("store aliased caller slice")
	}
}

func TestList(t *testing.T) {
	eng := sim.New(1)
	s := NewStore(eng)
	s.Put("inst/a/snap", nil)
	s.Put("inst/b/snap", nil)
	s.Put("other/x", nil)
	got := s.List("inst/")
	if len(got) != 2 || got[0] != "inst/a/snap" || got[1] != "inst/b/snap" {
		t.Fatalf("List = %v", got)
	}
	if all := s.List(""); len(all) != 3 {
		t.Fatalf("List all = %v", all)
	}
}

func TestAsyncLatency(t *testing.T) {
	eng := sim.New(1)
	// 1 KB/s bandwidth + 1ms latency: 1000 bytes => 1ms + 1s.
	s := NewStore(eng, WithAccessLatency(time.Millisecond), WithBandwidth(1000))
	payload := make([]byte, 1000)
	var wroteAt time.Duration
	var readAt time.Duration
	s.PutAsync("big", payload, func(v int64) {
		wroteAt = eng.Now()
		if v != 1 {
			t.Errorf("version = %d", v)
		}
		s.GetAsync("big", func(data []byte, err error) {
			readAt = eng.Now()
			if err != nil || len(data) != 1000 {
				t.Errorf("GetAsync = %d bytes, %v", len(data), err)
			}
		})
	})
	eng.Run()
	want := time.Second + time.Millisecond
	if wroteAt != want {
		t.Fatalf("write completed at %v, want %v", wroteAt, want)
	}
	if readAt != 2*want {
		t.Fatalf("read completed at %v, want %v", readAt, 2*want)
	}
}

func TestGetAsyncMissing(t *testing.T) {
	eng := sim.New(1)
	s := NewStore(eng)
	var gotErr error
	called := false
	s.GetAsync("missing", func(data []byte, err error) {
		called = true
		gotErr = err
	})
	eng.Run()
	if !called || !errors.Is(gotErr, ErrNotFound) {
		t.Fatalf("called=%v err=%v", called, gotErr)
	}
}

func TestStats(t *testing.T) {
	eng := sim.New(1)
	s := NewStore(eng)
	s.Put("a", make([]byte, 10))
	if _, err := s.Get("a"); err != nil {
		t.Fatal(err)
	}
	s.Delete("a")
	st := s.Stats()
	if st.Writes != 1 || st.Reads != 1 || st.Deletes != 1 || st.BytesWrite != 10 || st.BytesRead != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestJoin(t *testing.T) {
	if got := Join("instances", "t-a", "snap"); got != "instances/t-a/snap" {
		t.Fatalf("Join = %q", got)
	}
}
