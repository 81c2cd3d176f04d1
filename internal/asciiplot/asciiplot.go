// Package asciiplot renders the reproduction's figures in a terminal:
// the Definition 1 map/reduce progress curves (Fig 4(c), Fig 7), the
// CPU-utilization and iowait series (Fig 2). Plots are plain text so
// they travel in logs, CI output, and EXPERIMENTS.md.
package asciiplot

import (
	"fmt"
	"strings"
	"time"
)

// Curve is one named series sampled at times T with values in [0, 1].
type Curve struct {
	Name   string
	Marker byte
	T      []time.Duration
	V      []float64
}

// at returns the last value at or before t (0 before the first point).
func (c *Curve) at(t time.Duration) float64 {
	v := 0.0
	for i, ct := range c.T {
		if ct > t {
			break
		}
		v = c.V[i]
	}
	return v
}

// Progress renders curves over [0, end] as rows of a horizontal plot,
// one row per step, markers positioned by value. Later curves draw on
// top when they collide; an '@' marks exact collisions of two curves.
func Progress(w *strings.Builder, curves []Curve, end time.Duration, rows, width int) {
	if rows < 1 || width < 10 || end <= 0 {
		return
	}
	legend := make([]string, 0, len(curves))
	for _, c := range curves {
		legend = append(legend, fmt.Sprintf("%c=%s", c.Marker, c.Name))
	}
	fmt.Fprintf(w, "  %s\n", strings.Join(legend, "  "))
	for r := 1; r <= rows; r++ {
		t := time.Duration(int64(end) * int64(r) / int64(rows))
		line := bytes(width + 1)
		collide := map[int]int{}
		for _, c := range curves {
			pos := int(clamp01(c.at(t)) * float64(width))
			collide[pos]++
			if collide[pos] > 1 {
				line[pos] = '@'
			} else {
				line[pos] = c.Marker
			}
		}
		fmt.Fprintf(w, "%8.0fs |%s|\n", t.Seconds(), string(line))
	}
}

// Series renders one [0,1] series as a vertical-bar strip chart (used
// for the CPU util / iowait figures).
func Series(w *strings.Builder, name string, t []time.Duration, v []float64, width int) {
	if len(t) == 0 || width < 10 {
		return
	}
	blocks := []rune(" ▁▂▃▄▅▆▇█")
	end := t[len(t)-1]
	var sb []rune
	for i := 0; i < width; i++ {
		target := time.Duration(int64(end) * int64(i+1) / int64(width))
		val := 0.0
		for j, tt := range t {
			if tt > target {
				break
			}
			val = v[j]
		}
		idx := int(clamp01(val) * float64(len(blocks)-1))
		sb = append(sb, blocks[idx])
	}
	fmt.Fprintf(w, "  %-10s |%s| 0..%s\n", name, string(sb), end.Round(time.Second))
}

func bytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = ' '
	}
	return b
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
