package cost

import (
	"testing"
	"time"
)

func TestScaleRoundTrip(t *testing.T) {
	m := Default(1.0 / 256)
	logical := int64(236) << 30
	phys := m.ScaleBytes(logical)
	if got := m.LogicalBytes(phys); got < logical-256 || got > logical+256 {
		t.Fatalf("round trip %d -> %d -> %d", logical, phys, got)
	}
}

func TestTransferTimeMatchesPaperConstants(t *testing.T) {
	// 80MB at 80MB/s must take 1 second regardless of scale.
	for _, scale := range []float64{1, 1.0 / 4, 1.0 / 256} {
		m := Default(scale)
		phys := m.ScaleBytes(80 * 1e6)
		got := m.TransferTime(HDD, phys)
		if got < 990*time.Millisecond || got > 1010*time.Millisecond {
			t.Fatalf("scale %v: 80MB logical transfer = %v, want ~1s", scale, got)
		}
	}
}

func TestSeekIndependentOfScale(t *testing.T) {
	if Default(1.0/100).SeekTime(HDD) != 4*time.Millisecond {
		t.Fatal("HDD seek must be 4ms (paper §3.2)")
	}
}

func TestSSDFasterThanHDD(t *testing.T) {
	m := Default(1)
	if m.TransferTime(SSD, 1<<30) >= m.TransferTime(HDD, 1<<30) {
		t.Fatal("SSD must be faster than HDD")
	}
	if m.SeekTime(SSD) >= m.SeekTime(HDD) {
		t.Fatal("SSD seek must be cheaper than HDD")
	}
}

func TestCPUOpsScaleInvariant(t *testing.T) {
	// The same logical work must cost the same virtual time at any scale.
	full := Default(1)
	scaled := Default(1.0 / 64)
	logicalRecords := int64(64_000)
	a := full.CPUOps(full.CPUMapRecord, logicalRecords)
	b := scaled.CPUOps(scaled.CPUMapRecord, logicalRecords/64)
	if a != b {
		t.Fatalf("CPUOps not scale invariant: %v vs %v", a, b)
	}
}

func TestCPUSortScaleAware(t *testing.T) {
	// Sorting cost uses the logical n inside the log, so a scaled run
	// charges (nearly) the same as the full run for the same logical
	// data.
	full := Default(1)
	scaled := Default(1.0 / 64)
	a := full.CPUSort(640_000)
	b := scaled.CPUSort(10_000)
	ratio := float64(a) / float64(b)
	if ratio < 0.99 || ratio > 1.01 {
		t.Fatalf("CPUSort not scale aware: %v vs %v (ratio %.3f)", a, b, ratio)
	}
}

func TestCPUSortTrivialInputs(t *testing.T) {
	m := Default(1)
	if m.CPUSort(0) != 0 || m.CPUSort(1) != 0 {
		t.Fatal("sorting ≤1 record must be free")
	}
}

func TestDefaultPanicsOnBadScale(t *testing.T) {
	for _, s := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Default(%v) should panic", s)
				}
			}()
			Default(s)
		}()
	}
}

func TestNetTime(t *testing.T) {
	m := Default(1)
	// 110MB at 110MB/s ≈ 1s.
	got := m.NetTime(110 * 1e6)
	if got < 990*time.Millisecond || got > 1010*time.Millisecond {
		t.Fatalf("NetTime = %v", got)
	}
}

func TestParseScale(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"1/512", 1.0 / 512, true},
		{"1/4096", 1.0 / 4096, true},
		{" 1 / 2 ", 0.5, true},
		{"0.25", 0.25, true},
		{"1", 1, true},
		{"1/0", 0, false},
		{"a/b", 0, false},
		{"", 0, false},
		{"half", 0, false},
	}
	for _, tc := range cases {
		got, err := ParseScale(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseScale(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseScale(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
