package main

import (
	"reflect"
	"testing"
	"time"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"  ", nil},
		{"a", []string{"a"}},
		{"a,b", []string{"a", "b"}},
		{" a , b ,, c ", []string{"a", "b", "c"}},
	}
	for _, tc := range cases {
		if got := splitList(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitList(%q) = %#v, want %#v", tc.in, got, tc.want)
		}
	}
}

func TestParseFaults(t *testing.T) {
	f, err := parseFaults("1@2m30s,3@60%", "2@4", "0:2,7:1", true)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Speculate {
		t.Error("Speculate not carried through")
	}
	if want := map[int]time.Duration{1: 2*time.Minute + 30*time.Second}; !reflect.DeepEqual(f.KillNodes, want) {
		t.Errorf("KillNodes = %v, want %v", f.KillNodes, want)
	}
	if want := map[int]float64{3: 0.6}; !reflect.DeepEqual(f.KillAtMapProgress, want) {
		t.Errorf("KillAtMapProgress = %v, want %v", f.KillAtMapProgress, want)
	}
	if want := map[int]float64{2: 4}; !reflect.DeepEqual(f.SlowNodes, want) {
		t.Errorf("SlowNodes = %v, want %v", f.SlowNodes, want)
	}
	if want := map[int]int{0: 2, 7: 1}; !reflect.DeepEqual(f.MapFailures, want) {
		t.Errorf("MapFailures = %v, want %v", f.MapFailures, want)
	}
	if f.FailPoint != 0.5 {
		t.Errorf("FailPoint = %v, want 0.5 once map failures are planned", f.FailPoint)
	}

	empty, err := parseFaults("", "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if empty.KillNodes != nil || empty.SlowNodes != nil || empty.MapFailures != nil || empty.FailPoint != 0 {
		t.Errorf("empty flags produced a non-zero plan: %+v", empty)
	}

	bad := []struct{ kill, slow, fail string }{
		{"1", "", ""},      // kill without @
		{"x@2m", "", ""},   // kill index not a number
		{"1@soon", "", ""}, // kill time unparsable
		{"1@x%", "", ""},   // kill percent unparsable
		{"", "2", ""},      // slow without @
		{"", "a@b", ""},    // slow fields unparsable
		{"", "", "3"},      // fail without :
		{"", "", "a:b"},    // fail fields unparsable
	}
	for _, tc := range bad {
		if _, err := parseFaults(tc.kill, tc.slow, tc.fail, false); err == nil {
			t.Errorf("parseFaults(%q, %q, %q) accepted bad input", tc.kill, tc.slow, tc.fail)
		}
	}
}
