package sched

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Schedule is a parsed recurrence: either a fixed interval
// ("@every 5m") or a 5-field cron expression
// "minute hour day-of-month month day-of-week" supporting "*", lists
// ("1,15"), ranges ("1-5"), and steps ("*/10", "2-10/2"). Day-of-month
// and day-of-week combine with the standard cron OR rule when both are
// restricted.
type Schedule struct {
	every time.Duration // > 0 for @every form

	min, hour, dom, mon, dow uint64 // bit sets
	domStar, dowStar         bool
}

// ParseSchedule parses a Cron spec string.
func ParseSchedule(s string) (*Schedule, error) {
	s = strings.TrimSpace(s)
	if rest, ok := strings.CutPrefix(s, "@every "); ok {
		d, err := time.ParseDuration(strings.TrimSpace(rest))
		if err != nil {
			return nil, fmt.Errorf("cron: bad @every duration: %v", err)
		}
		if d <= 0 {
			return nil, fmt.Errorf("cron: @every interval %v must be positive", d)
		}
		return &Schedule{every: d}, nil
	}
	fields := strings.Fields(s)
	if len(fields) != 5 {
		return nil, fmt.Errorf("cron: want 5 fields (min hour dom mon dow) or @every, got %d in %q", len(fields), s)
	}
	sc := &Schedule{}
	specs := []struct {
		dst    *uint64
		lo, hi int
		star   *bool
		name   string
	}{
		{&sc.min, 0, 59, nil, "minute"},
		{&sc.hour, 0, 23, nil, "hour"},
		{&sc.dom, 1, 31, &sc.domStar, "day-of-month"},
		{&sc.mon, 1, 12, nil, "month"},
		{&sc.dow, 0, 6, &sc.dowStar, "day-of-week"},
	}
	for i, fs := range specs {
		bits, star, err := parseCronField(fields[i], fs.lo, fs.hi)
		if err != nil {
			return nil, fmt.Errorf("cron: %s field %q: %v", fs.name, fields[i], err)
		}
		*fs.dst = bits
		if fs.star != nil {
			*fs.star = star
		}
	}
	return sc, nil
}

// parseCronField parses one comma-separated field into a bit set over
// [lo, hi]. star reports the unrestricted "*" (or "*/1") form.
func parseCronField(f string, lo, hi int) (bits uint64, star bool, err error) {
	full := uint64(0)
	for v := lo; v <= hi; v++ {
		full |= 1 << uint(v)
	}
	for _, part := range strings.Split(f, ",") {
		rangeS, stepS, hasStep := strings.Cut(part, "/")
		step := 1
		if hasStep {
			if step, err = strconv.Atoi(stepS); err != nil || step < 1 {
				return 0, false, fmt.Errorf("bad step %q", stepS)
			}
		}
		a, b := lo, hi
		if rangeS != "*" {
			loS, hiS, isRange := strings.Cut(rangeS, "-")
			if a, err = strconv.Atoi(loS); err != nil {
				return 0, false, fmt.Errorf("bad value %q", loS)
			}
			b = a
			if isRange {
				if b, err = strconv.Atoi(hiS); err != nil {
					return 0, false, fmt.Errorf("bad value %q", hiS)
				}
			} else if hasStep {
				b = hi // "5/2" means "from 5 to hi by 2", per cron convention
			}
		}
		if a < lo || b > hi || a > b {
			return 0, false, fmt.Errorf("value out of range %d-%d", lo, hi)
		}
		for v := a; v <= b; v += step {
			bits |= 1 << uint(v)
		}
	}
	if bits == 0 {
		return 0, false, fmt.Errorf("empty field")
	}
	return bits, bits == full, nil
}

// Next returns the first fire time strictly after t.
func (s *Schedule) Next(t time.Time) time.Time {
	if s.every > 0 {
		return t.Add(s.every)
	}
	// Walk minute by minute; the four-year horizon covers a leap cycle,
	// past which any satisfiable cron spec must have fired.
	t = t.Truncate(time.Minute).Add(time.Minute)
	limit := t.AddDate(4, 0, 1)
	for t.Before(limit) {
		if s.mon&(1<<uint(t.Month())) == 0 {
			t = time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, t.Location()).AddDate(0, 1, 0)
			continue
		}
		if !s.dayMatches(t) {
			t = t.Truncate(24 * time.Hour).Add(24 * time.Hour)
			continue
		}
		if s.hour&(1<<uint(t.Hour())) == 0 {
			t = t.Truncate(time.Hour).Add(time.Hour)
			continue
		}
		if s.min&(1<<uint(t.Minute())) == 0 {
			t = t.Add(time.Minute)
			continue
		}
		return t
	}
	return time.Time{} // unsatisfiable (e.g. Feb 30)
}

// dayMatches applies the cron dom/dow rule: when both fields are
// restricted the day matches if EITHER does; otherwise both must.
func (s *Schedule) dayMatches(t time.Time) bool {
	domOK := s.dom&(1<<uint(t.Day())) != 0
	dowOK := s.dow&(1<<uint(t.Weekday())) != 0
	if !s.domStar && !s.dowStar {
		return domOK || dowOK
	}
	return domOK && dowOK
}
