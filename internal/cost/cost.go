// Package cost defines the calibrated cost model that converts real
// work (bytes moved, records processed, comparisons made) into virtual
// time on the simulated cluster.
//
// The reproduction runs the paper's workloads at a configurable scale:
// physical data volumes are Scale × the paper's logical volumes, and
// every accounting and timing quantity is reported back at logical
// (paper) scale. The I/O constants are the ones the paper itself uses
// when instantiating its analytical model (§3.2): 80MB/s sequential
// disk bandwidth, 4ms seek time, 100ms map-task startup. The CPU
// constants are calibrated so that the simulated per-node map/reduce
// CPU times land near Table 3 of the paper for the sessionization
// workload; all experiments share one calibration.
package cost

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Device identifies a storage device class on a node.
type Device int

const (
	// HDD is the default device used for all I/O (paper §2.3: "All I/O
	// operations used the disk as the default storage device").
	HDD Device = iota
	// SSD is the fast device used in the Fig 2(d) experiment, where
	// intermediate data goes to an SSD while HDFS input/output stays
	// on the disk.
	SSD
	numDevices
)

// String returns the device name.
func (d Device) String() string {
	switch d {
	case HDD:
		return "hdd"
	case SSD:
		return "ssd"
	}
	return "dev?"
}

// DeviceProfile describes a storage device's service times.
type DeviceProfile struct {
	// SeqMBps is sequential bandwidth in (logical) MB/s.
	SeqMBps float64
	// Seek is the positioning time charged per I/O request.
	Seek time.Duration
}

// Model is the full cost model: the scale factor plus per-operation
// virtual-time constants. The zero value is unusable; start from
// Default().
type Model struct {
	// Scale is the physical:logical ratio. Scale=1/256 means 1GB of
	// physical data stands in for 256GB of the paper's data. Memory
	// budgets must be scaled by the caller with ScaleBytes so that all
	// data:memory ratios (the quantities every crossover in the paper
	// depends on) are preserved.
	Scale float64

	// Devices holds the profile for each device class.
	Devices [numDevices]DeviceProfile

	// NetMBps is the per-node NIC bandwidth in logical MB/s.
	NetMBps float64

	// MapStartup is the fixed cost of creating a map task (c_start,
	// the paper's model constant).
	MapStartup time.Duration

	// TaskOverhead is the additional per-map-task wall time the real
	// Hadoop runtime spends outside useful work — JVM spin-up,
	// heartbeat scheduling, commit. The paper's measurements imply a
	// large one: its 508GB page-frequency job (map-dominated, almost
	// no reduce work) runs 2400s over 794 tasks/node ⇒ ~12s of slot
	// time per 64MB task, of which only ~2s is input I/O + light CPU.
	// Without this floor, the simulated map phase becomes disk-bound
	// and distorts every platform comparison.
	TaskOverhead time.Duration

	// CPU time constants, per logical unit of work.
	CPUParseByte   time.Duration // input parsing + map-side scan, per byte
	CPUMapRecord   time.Duration // user map function, per record
	CPUSortCmp     time.Duration // comparison + movement during sorting
	CPUMergeRecord time.Duration // per record per merge pass (read+compare+write)
	CPUHashInsert  time.Duration // hash-table probe/insert, per record
	CPUCombine     time.Duration // combine/state-update function, per record
	CPUReduceRec   time.Duration // user reduce function, per input record
	CPUOutputByte  time.Duration // serializing job output, per byte
}

// ParseScale parses a scale factor's command-line and job-spec
// spelling: a fraction ("1/4096") or a bare float.
func ParseScale(s string) (float64, error) {
	if num, den, ok := strings.Cut(s, "/"); ok {
		n, err1 := strconv.ParseFloat(strings.TrimSpace(num), 64)
		d, err2 := strconv.ParseFloat(strings.TrimSpace(den), 64)
		if err1 != nil || err2 != nil || d == 0 {
			return 0, fmt.Errorf("bad scale %q", s)
		}
		return n / d, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad scale %q", s)
	}
	return v, nil
}

// Default returns the calibrated model at the given scale.
func Default(scale float64) Model {
	if scale <= 0 || scale > 1 {
		panic("cost: scale must be in (0, 1]")
	}
	return Model{
		Scale: scale,
		Devices: [numDevices]DeviceProfile{
			HDD: {SeqMBps: 80, Seek: 4 * time.Millisecond},
			// The X25-E's sequential write is ~170–200MB/s with
			// negligible positioning cost.
			SSD: {SeqMBps: 180, Seek: 100 * time.Microsecond},
		},
		NetMBps:      110, // ~1GbE payload rate
		MapStartup:   100 * time.Millisecond,
		TaskOverhead: 5 * time.Second,

		CPUParseByte:   8 * time.Nanosecond,
		CPUMapRecord:   900 * time.Nanosecond,
		CPUSortCmp:     75 * time.Nanosecond,
		CPUMergeRecord: 700 * time.Nanosecond,
		CPUHashInsert:  500 * time.Nanosecond,
		CPUCombine:     600 * time.Nanosecond,
		CPUReduceRec:   800 * time.Nanosecond,
		CPUOutputByte:  4 * time.Nanosecond,
	}
}

// ScaleBytes converts a logical byte count (paper scale) to the
// physical byte count used when actually running.
func (m Model) ScaleBytes(logical int64) int64 {
	return int64(float64(logical) * m.Scale)
}

// LogicalBytes converts physical bytes back to logical (paper-scale)
// bytes for reporting.
func (m Model) LogicalBytes(phys int64) int64 {
	return int64(float64(phys) / m.Scale)
}

// TransferTime returns the virtual time to sequentially transfer the
// given physical bytes on dev, excluding seek.
func (m Model) TransferTime(dev Device, physBytes int64) time.Duration {
	logical := float64(physBytes) / m.Scale
	sec := logical / (m.Devices[dev].SeqMBps * 1e6)
	return time.Duration(sec * float64(time.Second))
}

// SeekTime returns the per-request positioning time of dev.
func (m Model) SeekTime(dev Device) time.Duration { return m.Devices[dev].Seek }

// NetTime returns the virtual time to move the given physical bytes
// across one NIC.
func (m Model) NetTime(physBytes int64) time.Duration {
	logical := float64(physBytes) / m.Scale
	sec := logical / (m.NetMBps * 1e6)
	return time.Duration(sec * float64(time.Second))
}

// CPUOps returns the virtual CPU time for physOps operations charged
// at per-logical-operation cost per. Physical operation counts are
// inflated by 1/Scale, so a scaled run charges the same virtual CPU
// time as the full-size run would.
func (m Model) CPUOps(per time.Duration, physOps int64) time.Duration {
	return time.Duration(float64(per) * float64(physOps) / m.Scale)
}

// CPUSort returns the virtual CPU time to sort physN records. The
// comparison count uses the logical record count inside the logarithm
// (n' lg n' with n' = n/Scale) so scaled runs charge the same sorting
// cost per byte as full-size runs.
func (m Model) CPUSort(physN int64) time.Duration {
	if physN <= 1 {
		return 0
	}
	logicalN := float64(physN) / m.Scale
	cmps := logicalN * math.Log2(logicalN)
	return time.Duration(float64(m.CPUSortCmp) * cmps)
}
