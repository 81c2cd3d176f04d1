package sched

import (
	"testing"
	"time"
)

func mustParse(t *testing.T, s string) *Schedule {
	t.Helper()
	sc, err := ParseSchedule(s)
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", s, err)
	}
	return sc
}

func at(t *testing.T, layout string) time.Time {
	t.Helper()
	tm, err := time.Parse("2006-01-02 15:04", layout)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func TestParseScheduleEvery(t *testing.T) {
	sc := mustParse(t, "@every 5m")
	base := at(t, "2026-08-09 12:00")
	if next := sc.Next(base); !next.Equal(base.Add(5 * time.Minute)) {
		t.Fatalf("Next = %v", next)
	}
	for _, bad := range []string{"@every ", "@every -1s", "@every 0s", "@every soon"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", bad)
		}
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"* * * *",     // 4 fields
		"* * * * * *", // 6 fields
		"61 * * * *",  // minute out of range
		"* 24 * * *",  // hour out of range
		"* * 0 * *",   // dom low
		"* * * 13 *",  // month high
		"* * * * 7",   // dow high (0-6)
		"*/0 * * * *", // zero step
		"5-1 * * * *", // inverted range
		"a * * * *",   // non-numeric
		"1-b * * * *", // non-numeric range end
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", bad)
		}
	}
}

// TestCronNext drives the field walker over representative specs.
func TestCronNext(t *testing.T) {
	cases := []struct {
		spec string
		from string
		want string
	}{
		// Every minute: strictly after, truncated to minute.
		{"* * * * *", "2026-08-09 12:00", "2026-08-09 12:01"},
		// Fixed minute within the hour, already past → next hour.
		{"30 * * * *", "2026-08-09 12:31", "2026-08-09 13:30"},
		// Daily at 02:15.
		{"15 2 * * *", "2026-08-09 12:00", "2026-08-10 02:15"},
		// Steps: every 10th minute.
		{"*/10 * * * *", "2026-08-09 12:05", "2026-08-09 12:10"},
		// Range with step starting inside the range.
		{"2-10/4 * * * *", "2026-08-09 12:07", "2026-08-09 12:10"},
		// "5/2": from 5 to 59 by 2, cron convention.
		{"5/2 * * * *", "2026-08-09 12:57", "2026-08-09 12:59"},
		// Lists.
		{"0 0,12 * * *", "2026-08-09 01:00", "2026-08-09 12:00"},
		// Month rollover: Feb 31 never exists → skips to satisfiable day.
		{"0 0 31 * *", "2026-01-31 12:00", "2026-03-31 00:00"},
		// Year rollover.
		{"0 0 1 1 *", "2026-08-09 12:00", "2027-01-01 00:00"},
		// dow only (dom star): Sunday 2026-08-09 is a Sunday; next Monday.
		{"0 9 * * 1", "2026-08-09 12:00", "2026-08-10 09:00"},
		// Leap day.
		{"0 0 29 2 *", "2026-08-09 12:00", "2028-02-29 00:00"},
	}
	for _, c := range cases {
		sc := mustParse(t, c.spec)
		got := sc.Next(at(t, c.from))
		if want := at(t, c.want); !got.Equal(want) {
			t.Errorf("%q.Next(%s) = %v, want %v", c.spec, c.from, got, want)
		}
	}
}

// TestCronDomDowOrRule: when both day fields are restricted the day
// matches if EITHER does (standard cron); when one is "*" both must.
func TestCronDomDowOrRule(t *testing.T) {
	// "the 15th OR any Monday".
	sc := mustParse(t, "0 0 15 * 1")
	from := at(t, "2026-08-09 12:00") // Sunday the 9th
	first := sc.Next(from)
	if want := at(t, "2026-08-10 00:00"); !first.Equal(want) { // Monday the 10th
		t.Fatalf("first fire %v, want %v", first, want)
	}
	second := sc.Next(first)
	if want := at(t, "2026-08-15 00:00"); !second.Equal(want) { // Saturday the 15th
		t.Fatalf("second fire %v, want %v", second, want)
	}

	// dom restricted, dow star: only the 15th fires.
	sc = mustParse(t, "0 0 15 * *")
	if got := sc.Next(from); !got.Equal(at(t, "2026-08-15 00:00")) {
		t.Fatalf("dom-only fire %v", got)
	}
}

func TestCronUnsatisfiableReturnsZero(t *testing.T) {
	sc := mustParse(t, "0 0 30 2 *") // Feb 30
	if got := sc.Next(at(t, "2026-08-09 12:00")); !got.IsZero() {
		t.Fatalf("unsatisfiable spec fired at %v", got)
	}
}
