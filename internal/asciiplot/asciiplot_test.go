package asciiplot

import (
	"strings"
	"testing"
	"time"
)

func mkCurve(name string, m byte, vals ...float64) Curve {
	c := Curve{Name: name, Marker: m}
	for i, v := range vals {
		c.T = append(c.T, time.Duration(i+1)*time.Second)
		c.V = append(c.V, v)
	}
	return c
}

func TestProgressRendersMarkers(t *testing.T) {
	var b strings.Builder
	Progress(&b, []Curve{
		mkCurve("map", '#', 0.25, 0.5, 0.75, 1),
		mkCurve("reduce", 'o', 0.1, 0.2, 0.3, 1),
	}, 4*time.Second, 4, 40)
	out := b.String()
	if !strings.Contains(out, "#=map") || !strings.Contains(out, "o=reduce") {
		t.Fatalf("missing legend:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d lines", len(lines))
	}
	// Final row: both at 1.0 ⇒ collision marker.
	if !strings.Contains(lines[4], "@") {
		t.Fatalf("no collision marker in final row: %q", lines[4])
	}
	// Mid rows: separate markers present.
	if !strings.Contains(lines[2], "#") || !strings.Contains(lines[2], "o") {
		t.Fatalf("markers missing: %q", lines[2])
	}
}

func TestProgressMonotonePositions(t *testing.T) {
	var b strings.Builder
	Progress(&b, []Curve{mkCurve("map", '#', 0.2, 0.4, 0.6, 0.8, 1.0)}, 5*time.Second, 5, 50)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")[1:]
	prev := -1
	for _, ln := range lines {
		pos := strings.IndexByte(ln, '#')
		if pos <= prev {
			t.Fatalf("marker did not advance: %q (prev %d)", ln, prev)
		}
		prev = pos
	}
}

func TestProgressClampsOutOfRange(t *testing.T) {
	var b strings.Builder
	Progress(&b, []Curve{mkCurve("x", 'x', -0.5, 1.5)}, 2*time.Second, 2, 20)
	if !strings.Contains(b.String(), "x") {
		t.Fatal("clamped values not rendered")
	}
}

func TestProgressDegenerateInputs(t *testing.T) {
	var b strings.Builder
	Progress(&b, nil, 0, 0, 0) // must not panic or write
	if b.Len() != 0 {
		t.Fatalf("wrote %q for degenerate input", b.String())
	}
}

func TestSeriesStrip(t *testing.T) {
	var b strings.Builder
	ts := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	Series(&b, "iowait", ts, []float64{0, 1, 0.5}, 30)
	out := b.String()
	if !strings.Contains(out, "iowait") || !strings.Contains(out, "█") {
		t.Fatalf("bad strip: %q", out)
	}
}
