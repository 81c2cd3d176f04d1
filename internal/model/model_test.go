package model

import (
	"math"
	"testing"
)

var (
	// The §3.2 validation setup: D=97GB, Km=Kr=1, N=10, Bm=140MB,
	// Br=260MB, R=4.
	w32 = Workload{D: 97e9, Km: 1, Kr: 1}
	h32 = Hardware{N: 10, Bm: 140e6, Br: 260e6}
)

func TestLambdaZeroWhenFits(t *testing.T) {
	if Lambda(8, 0.5, 100e6) != 0 || Lambda(8, 1, 100e6) != 0 {
		t.Fatal("no merge cost when data fits in one run")
	}
}

func TestLambdaFloorAtInitialRuns(t *testing.T) {
	// Writing n runs costs at least n·b, whatever the formula says for
	// small n.
	if got := Lambda(16, 2, 1e6); got < 2e6 {
		t.Fatalf("lambda below initial spill floor: %g", got)
	}
}

func TestLambdaMonotoneInN(t *testing.T) {
	prev := 0.0
	for n := 2.0; n < 200; n += 1 {
		v := Lambda(8, n, 1e6)
		if v < prev {
			t.Fatalf("lambda not monotone at n=%g: %g < %g", n, v, prev)
		}
		prev = v
	}
}

func TestLambdaDecreasingInF(t *testing.T) {
	// More merge width ⇒ fewer passes ⇒ fewer bytes, for large n.
	n := 128.0
	prev := math.Inf(1)
	for _, f := range []int{4, 8, 16, 32} {
		v := Lambda(f, n, 1e6)
		if v > prev {
			t.Fatalf("lambda not decreasing in F at F=%d: %g > %g", f, v, prev)
		}
		prev = v
	}
}

func TestIOBytesBaselineTerm(t *testing.T) {
	// With huge buffers there are no spills: U = D/N·(1+Km+Km·Kr).
	h := Hardware{N: 10, Bm: 1e15, Br: 1e15}
	p := Params{R: 4, C: 64e6, F: 10}
	got := IOBytes(w32, h, p)
	want := 97e9 / 10 * 3
	if math.Abs(got-want) > 1 {
		t.Fatalf("U=%g want %g", got, want)
	}
}

func TestIOBytesJumpWhenMapBufferExceeded(t *testing.T) {
	p := Params{R: 4, C: 64e6, F: 10}
	small := IOBytes(w32, h32, p)
	p.C = 256e6 // C·Km=256MB > Bm=140MB ⇒ map-side external sort kicks in
	big := IOBytes(w32, h32, p)
	if big <= small {
		t.Fatalf("no U2 jump: %g vs %g", big, small)
	}
}

func TestTimeCostStartupDominatesTinyChunks(t *testing.T) {
	c := PaperConstants()
	tiny := TimeCost(w32, h32, Params{R: 4, C: 1e6, F: 10}, c)
	good := TimeCost(w32, h32, Params{R: 4, C: 64e6, F: 10}, c)
	if tiny <= good {
		t.Fatalf("tiny chunks should cost more (startup): %g vs %g", tiny, good)
	}
}

func TestTimeCostShapeInF(t *testing.T) {
	// Paper Fig 4(b): cost decreases from F=4 to F=16 and flattens
	// once the merge is one-pass.
	c := PaperConstants()
	p4 := TimeCost(w32, h32, Params{R: 4, C: 64e6, F: 4}, c)
	p8 := TimeCost(w32, h32, Params{R: 4, C: 64e6, F: 8}, c)
	p16 := TimeCost(w32, h32, Params{R: 4, C: 64e6, F: 16}, c)
	if !(p4 > p8 && p8 > p16) {
		t.Fatalf("cost not decreasing in F: %g %g %g", p4, p8, p16)
	}
	// β = 97e9/(10·4·260e6) ≈ 9.3 initial runs per reducer: F=16 is
	// already one-pass, so doubling further changes nothing.
	p32 := TimeCost(w32, h32, Params{R: 4, C: 64e6, F: 32}, c)
	if math.Abs(p32-p16)/p16 > 0.02 {
		t.Fatalf("one-pass plateau violated: F=16 %g vs F=32 %g", p16, p32)
	}
}

func TestOptimizePrefersBufferFittingChunk(t *testing.T) {
	// §3.2(1): best C is the maximum with C·Km ≤ Bm.
	cs := []float64{8e6, 16e6, 32e6, 64e6, 128e6, 256e6, 512e6}
	fs := []int{4, 8, 16, 32}
	best := Optimize(w32, h32, 4, cs, fs, PaperConstants())
	if best.C != 128e6 {
		t.Fatalf("optimal C=%g, want 128MB (largest with C·Km ≤ Bm=140MB)", best.C)
	}
	if Lambda(best.F, w32.D*w32.Km/(10*4*h32.Br), h32.Br) > w32.D*w32.Km/(10*4) {
		t.Fatalf("optimal F=%d does not give one-pass merge", best.F)
	}
}

func TestRecommendedChunk(t *testing.T) {
	got := RecommendedChunk(w32, h32)
	if got > h32.Bm || got < h32.Bm-2*(1<<20) {
		t.Fatalf("recommended chunk %g for Km=1, Bm=140MB", got)
	}
	// Km=2 halves it.
	got2 := RecommendedChunk(Workload{D: 1e9, Km: 2, Kr: 1}, h32)
	if got2 > h32.Bm/2 {
		t.Fatalf("chunk %g ignores Km", got2)
	}
}

func TestOnePassFactor(t *testing.T) {
	f := OnePassFactor(w32, h32, 4)
	// β ≈ 9.3 ⇒ F=10.
	if f != 10 {
		t.Fatalf("one-pass factor %d, want 10", f)
	}
	if OnePassFactor(Workload{D: 1e6, Km: 1}, h32, 4) != 2 {
		t.Fatal("tiny workloads still need F ≥ 2")
	}
}

func TestIORequestsPositiveAndGrowWithData(t *testing.T) {
	p := Params{R: 4, C: 64e6, F: 10}
	s1 := IORequests(w32, h32, p)
	if s1 <= 0 {
		t.Fatalf("S=%g", s1)
	}
	bigger := w32
	bigger.D *= 4
	if IORequests(bigger, h32, p) <= s1 {
		t.Fatal("S must grow with D")
	}
}

func TestOptimizeMatchesPaperStory(t *testing.T) {
	// The paper reports default Hadoop (64MB chunks, F=10 but
	// multi-pass merges at the reducer) improving ~14% with optimized
	// parameters; at minimum the optimizer must never pick something
	// worse than the default.
	cs := []float64{16e6, 32e6, 64e6, 128e6}
	fs := []int{4, 10, 16, 32}
	c := PaperConstants()
	best := Optimize(w32, h32, 4, cs, fs, c)
	tBest := TimeCost(w32, h32, best, c)
	tDefault := TimeCost(w32, h32, Params{R: 4, C: 64e6, F: 10}, c)
	if tBest > tDefault {
		t.Fatalf("optimizer worse than default: %g > %g", tBest, tDefault)
	}
}
