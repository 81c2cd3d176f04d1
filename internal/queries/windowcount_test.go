package queries

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func newWin() *WindowCount {
	return NewWindowCount(time.Hour, 5*time.Second)
}

func TestWindowKeyRouting(t *testing.T) {
	q := newWin()
	var keys []string
	hour := int64(3600_000)
	q.Map(click(30*minute, "u0000001", "/a"), func(k, v []byte) { keys = append(keys, string(k)) })
	q.Map(click(hour+minute, "u0000002", "/a"), func(k, v []byte) { keys = append(keys, string(k)) })
	if keys[0] == keys[1] {
		t.Fatalf("clicks an hour apart share a window: %v", keys)
	}
	if !strings.HasSuffix(keys[0], "|/a") || !strings.HasPrefix(keys[0], "w") {
		t.Fatalf("key format %q", keys[0])
	}
	if q.keyWindowEnd([]byte(keys[0])) != hour {
		t.Fatalf("window end %d", q.keyWindowEnd([]byte(keys[0])))
	}
}

func TestWindowIncrementalCounts(t *testing.T) {
	q := newWin()
	s := &sink{}
	key := []byte("w00000000|/a")
	st := q.Init(nil, key, []byte("1"))
	for i := 0; i < 9; i++ {
		st = q.MergeStates(nil, key, st, q.Init(nil, key, []byte("1")))
	}
	q.Finalize(key, st, s)
	if len(s.got) != 1 || s.got[0][1] != "10" {
		t.Fatalf("%v", s.got)
	}
}

func TestWindowEmitsWhenWatermarkPasses(t *testing.T) {
	q := newWin()
	s := &sink{}
	key := q.windowKey(10*minute, []byte("/a")) // window [0, 1h)
	st := q.Init(nil, key, []byte("1"))

	// Watermark still inside the window: nothing final yet.
	q.AdvanceWatermark(q.RecordTime(click(50*minute, "u0000001", "/b")))
	st = q.TryEmit(key, st, s)
	if len(s.got) != 0 {
		t.Fatalf("emitted before window closed: %v", s.got)
	}

	// Watermark passes the window end (plus slack): the count is final.
	q.AdvanceWatermark(q.RecordTime(click(62*minute, "u0000001", "/b")))
	st = q.TryEmit(key, st, s)
	if len(s.got) != 1 || s.got[0][1] != "1" {
		t.Fatalf("window not emitted: %v", s.got)
	}
	// And never again.
	st = q.TryEmit(key, st, s)
	q.Finalize(key, st, s)
	if len(s.got) != 1 {
		t.Fatalf("duplicate emission: %v", s.got)
	}
}

func TestWindowSlackHoldsBackBorderlineWindows(t *testing.T) {
	q := newWin()
	s := &sink{}
	key := q.windowKey(10*minute, []byte("/a"))
	st := q.Init(nil, key, []byte("1"))
	// Watermark just past the hour, within the 5s slack.
	q.AdvanceWatermark(q.RecordTime(click(60*minute+2000, "u0000001", "/b")))
	q.TryEmit(key, st, s)
	if len(s.got) != 0 {
		t.Fatal("emitted inside the disorder slack")
	}
}

func TestWindowEvictorAndScavenger(t *testing.T) {
	q := newWin()
	s := &sink{}
	key := q.windowKey(10*minute, []byte("/a"))
	st := q.Init(nil, key, []byte("1"))
	// Open window: must be spilled, not absorbed.
	if q.OnEvict(key, st, s) || q.Scavenge(key, st) {
		t.Fatal("open window wrongly retired")
	}
	// Close it.
	q.AdvanceWatermark(q.RecordTime(click(2*3600_000, "u0000001", "/b")))
	if !q.Scavenge(key, st) {
		t.Fatal("closed window not scavengeable")
	}
	if !q.OnEvict(key, st, s) || len(s.got) != 1 {
		t.Fatalf("closed window not absorbed into output: %v", s.got)
	}
	// An already-emitted state is droppable without output.
	st2 := q.Init(nil, key, []byte("1"))
	st2 = q.TryEmit(key, st2, s)
	n := len(s.got)
	if !q.OnEvict(key, st2, s) || len(s.got) != n {
		t.Fatal("emitted state should be dropped silently")
	}
}

func TestWindowCombineMatchesReduce(t *testing.T) {
	q := newWin()
	s := &sink{}
	q.Reduce([]byte("w00000001|/x"), values("2", "3"), s)
	var comb []string
	q.Combine([]byte("w00000001|/x"), values("2", "3"), func(v []byte) { comb = append(comb, string(v)) })
	if s.got[0][1] != "5" || comb[0] != "5" {
		t.Fatalf("reduce %v combine %v", s.got, comb)
	}
}

func TestWindowValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero window")
		}
	}()
	NewWindowCount(0, time.Second)
}

func TestWindowKeysSortAdjacent(t *testing.T) {
	q := newWin()
	k1 := q.windowKey(minute, []byte("/a"))
	k2 := q.windowKey(2*3600_000, []byte("/a"))
	if fmt.Sprintf("%s", k1) >= fmt.Sprintf("%s", k2) {
		t.Fatal("window keys not time-ordered for the same URL")
	}
}
