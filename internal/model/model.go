// Package model implements the paper's analytical model of Hadoop
// (§3.1): the multi-pass-merge cost λ_F(n,b) (Eq. 2), the I/O bytes
// per node U (Proposition 3.1, Eq. 1), the I/O request count S
// (Proposition 3.2, Eq. 3), and the combined time measurement T
// (Eq. 4), plus the parameter optimizer of §3.2 that picks the chunk
// size C and merge factor F minimizing T.
//
// All sizes are in bytes at logical (paper) scale; times in seconds.
package model

import (
	"fmt"
	"math"
)

// Workload describes a job as in Table 2 part (2).
type Workload struct {
	D  float64 // input data size (bytes)
	Km float64 // map output:input ratio
	Kr float64 // reduce output:input ratio
}

// Hardware describes the cluster as in Table 2 part (3).
type Hardware struct {
	N  int     // nodes
	Bm float64 // map output buffer per task (bytes)
	Br float64 // shuffle buffer per reduce task (bytes)
}

// Params are the tunable system settings of Table 2 part (1).
type Params struct {
	R int     // reduce tasks per node
	C float64 // map input chunk size (bytes)
	F int     // merge factor
}

// Constants are the per-unit costs used by the time measurement
// (§3.2 instantiates them as 80MB/s disk, 4ms seek, 100ms startup).
type Constants struct {
	CByte  float64 // seconds per byte of sequential I/O
	CSeek  float64 // seconds per I/O request
	CStart float64 // seconds per map task created
}

// PaperConstants returns the constants the paper uses in §3.2.
func PaperConstants() Constants {
	return Constants{CByte: 1 / 80e6, CSeek: 0.004, CStart: 0.1}
}

// Lambda evaluates λ_F(n, b) (Eq. 2): the total size of all files
// created while multi-pass merging n initial sorted runs of b bytes
// each with merge factor F. For n ≤ 1 no spill occurs and the cost is
// zero; for 1 < n < F+1 the formula would undershoot the n·b floor of
// writing the initial runs themselves, so the floor is applied.
func Lambda(f int, n, b float64) float64 {
	if n <= 1 {
		return 0
	}
	ff := float64(f)
	v := (n*n/(2*ff*(ff-1)) + 1.5*n - ff*ff/(2*(ff-1))) * b
	if floor := n * b; v < floor {
		return floor
	}
	return v
}

// IOBytes evaluates Proposition 3.1 (Eq. 1): bytes read and written
// per node for a Hadoop job without a combine function.
func IOBytes(w Workload, h Hardware, p Params) float64 {
	n := float64(h.N)
	u := w.D / n * (1 + w.Km + w.Km*w.Kr)
	if p.C*w.Km > h.Bm {
		u += 2 * w.D / (p.C * n) * Lambda(p.F, p.C*w.Km/h.Bm, h.Bm)
	}
	u += 2 * float64(p.R) * Lambda(p.F, w.D*w.Km/(n*float64(p.R)*h.Br), h.Br)
	return u
}

// IORequests evaluates Proposition 3.2 (Eq. 3): the number of I/O
// requests per node.
func IORequests(w Workload, h Hardware, p Params) float64 {
	n := float64(h.N)
	alpha := p.C * w.Km / h.Bm
	beta := w.D * w.Km / (n * float64(p.R) * h.Br)
	sqf := math.Sqrt(float64(p.F))

	s := w.D / (p.C * n) * (alpha + 1)
	if p.C*w.Km > h.Bm {
		s += w.D / (p.C * n) * (Lambda(p.F, alpha, 1)*(sqf+1)*(sqf+1) + alpha - 1)
	}
	s += float64(p.R) * (beta*w.Kr*(sqf+1) - beta*sqf + Lambda(p.F, beta, 1)*(sqf+1)*(sqf+1))
	return s
}

// MapTasksPerNode returns D/(C·N).
func MapTasksPerNode(w Workload, h Hardware, p Params) float64 {
	return w.D / (p.C * float64(h.N))
}

// TimeCost evaluates Eq. 4: T = c_byte·U + c_seek·S + c_start·D/(CN),
// in seconds per node.
func TimeCost(w Workload, h Hardware, p Params, c Constants) float64 {
	return c.CByte*IOBytes(w, h, p) + c.CSeek*IORequests(w, h, p) + c.CStart*MapTasksPerNode(w, h, p)
}

// Optimize returns the (C, F) minimizing T over the given candidate
// sets, breaking ties toward larger C (fewer tasks) then smaller F.
func Optimize(w Workload, h Hardware, r int, cs []float64, fs []int, consts Constants) Params {
	if len(cs) == 0 || len(fs) == 0 {
		panic("model: empty candidate sets")
	}
	best := Params{R: r, C: cs[0], F: fs[0]}
	bestT := math.Inf(1)
	for _, f := range fs {
		for _, c := range cs {
			p := Params{R: r, C: c, F: f}
			t := TimeCost(w, h, p, consts)
			if t < bestT-1e-9 ||
				(math.Abs(t-bestT) <= 1e-9 && (c > best.C || (c == best.C && f < best.F))) {
				best, bestT = p, t
			}
		}
	}
	return best
}

// RecommendedChunk returns the paper's §3.2 rule of thumb: the maximum
// C with C·Km ≤ Bm, so the map output just fits its buffer, rounded
// down to a whole number of 1MB units (at least 1MB).
func RecommendedChunk(w Workload, h Hardware) float64 {
	c := h.Bm / w.Km
	mb := math.Floor(c / (1 << 20))
	if mb < 1 {
		mb = 1
	}
	return mb * (1 << 20)
}

// OnePassFactor returns the smallest F that merges the reduce input in
// a single pass: F ≥ number of initial sorted runs at the reducer.
func OnePassFactor(w Workload, h Hardware, r int) int {
	runs := int(math.Ceil(w.D * w.Km / (float64(h.N) * float64(r) * h.Br)))
	if runs < 2 {
		return 2
	}
	return runs
}

// String formats parameters compactly (C in decimal megabytes, the
// unit the paper's plots use).
func (p Params) String() string {
	return fmt.Sprintf("R=%d C=%.0fMB F=%d", p.R, p.C/1e6, p.F)
}

// NodeCombineThreshold is the predicted shuffle-byte saving fraction
// above which the node-combine auto mode turns combining on. Below it
// the fold's CPU cost outweighs the bytes it removes.
const NodeCombineThreshold = 0.25

// NodeCombineSavedFrac predicts the fraction of shuffle bytes an
// in-node combine stage removes, from the job's reduction ratios: the
// uncombined shuffle carries Km·D bytes, and per-node combining
// collapses each node's share to no less than the encoded distinct key
// set, itself estimated by the reduce output Kr·D — in the worst case
// every key appears on every one of the n nodes, so the combined
// shuffle floor is n·Kr·D. A zero Kr means the ratio is unknown and
// the prediction is conservatively 0 (no saving claimed). The result
// is in [0, 1).
func NodeCombineSavedFrac(w Workload, n int) float64 {
	if w.Km <= 0 || w.Kr <= 0 || w.D <= 0 || n < 1 {
		return 0
	}
	floor := float64(n) * w.Kr * w.D
	out := w.Km * w.D
	if floor >= out {
		return 0
	}
	return 1 - floor/out
}

// SpillFiles bounds the spill files one reduce task holds at once: its
// share of the map output, D·Km/(N·R), spilled in runs of B_r, of which
// merging with factor F keeps at most 2F on disk, plus the one being
// written. Any consistent byte unit will do.
func SpillFiles(w Workload, h Hardware, p Params) int {
	runs := math.Ceil(w.D * w.Km / (float64(h.N) * float64(p.R) * h.Br))
	return int(min(runs, float64(2*p.F))) + 1
}
