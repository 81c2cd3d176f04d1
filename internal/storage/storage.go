// Package storage simulates per-node storage devices.
//
// Every file (map spill, map output, reduce bucket/spill, job output)
// is held in memory with real bytes, while reads and writes charge
// virtual time on the node's disk-arm resource using the cost model
// (seek + bytes/bandwidth) and increment per-I/O-class byte counters.
// The five classes mirror Table 2 of the paper (U = U1+…+U5): map
// input, map internal spills, map output, reduce internal spills, and
// reduce output; shuffle disk reads are tracked separately since the
// paper attributes them to the shuffle phase rather than U.
//
// A node owns an HDD and an SSD device (paper §2.3 hardware); the
// placement policy decides which I/O classes go to which device, which
// is how the Fig 2(d) "intermediate data on SSD" experiment is
// expressed.
package storage

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/bytestore"
	"repro/internal/cost"
	"repro/internal/frame"
	"repro/internal/sim"
	"repro/internal/substrate"
)

// IOClass labels every byte moved through a disk.
type IOClass int

// I/O classes. The first five are the paper's U1..U5.
const (
	MapInput     IOClass = iota // U1: reading job input
	MapSpill                    // U2: map-side external-sort spills
	MapOutput                   // U3: final map output written for fault tolerance
	ReduceSpill                 // U4: reduce-side merge/bucket spills
	ReduceOutput                // U5: job output
	ShuffleRead                 // shuffle fetches served from disk (2nd-wave reducers)
	Checkpoint                  // reducer-state checkpoints (writes) and restores (reads)
	NumIOClasses
)

// String returns the class name.
func (c IOClass) String() string {
	switch c {
	case MapInput:
		return "map-input"
	case MapSpill:
		return "map-spill"
	case MapOutput:
		return "map-output"
	case ReduceSpill:
		return "reduce-spill"
	case ReduceOutput:
		return "reduce-output"
	case ShuffleRead:
		return "shuffle-read"
	case Checkpoint:
		return "checkpoint"
	}
	return "io?"
}

// Counters accumulates physical bytes and request counts per class.
// ReadBytes/WrittenBytes are payload bytes only; OverheadBytes holds
// the checksum-framing bytes moved on top of them (zero when
// checksums are off), so every pre-existing payload comparison is
// unchanged by enabling integrity.
type Counters struct {
	ReadBytes     [NumIOClasses]int64
	WrittenBytes  [NumIOClasses]int64
	ReadReqs      [NumIOClasses]int64
	WriteReqs     [NumIOClasses]int64
	OverheadBytes [NumIOClasses]int64
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	for i := 0; i < int(NumIOClasses); i++ {
		c.ReadBytes[i] += o.ReadBytes[i]
		c.WrittenBytes[i] += o.WrittenBytes[i]
		c.ReadReqs[i] += o.ReadReqs[i]
		c.WriteReqs[i] += o.WriteReqs[i]
		c.OverheadBytes[i] += o.OverheadBytes[i]
	}
}

// TotalBytes returns all bytes read plus written (the model's U, plus
// shuffle reads).
func (c *Counters) TotalBytes() int64 {
	var t int64
	for i := 0; i < int(NumIOClasses); i++ {
		t += c.ReadBytes[i] + c.WrittenBytes[i]
	}
	return t
}

// TotalReqs returns the total number of I/O requests (the model's S,
// plus shuffle reads).
func (c *Counters) TotalReqs() int64 {
	var t int64
	for i := 0; i < int(NumIOClasses); i++ {
		t += c.ReadReqs[i] + c.WriteReqs[i]
	}
	return t
}

// frameSpan is the checksum metadata of one logical frame of a file:
// the payload's byte range and the CRC32C its frame carries. The file
// holds payload bytes unframed (offsets inside intermediate files are
// load-bearing); the header/trailer bytes exist only as a charged
// overhead, the way a block store keeps checksums in a side file.
type frameSpan struct {
	off, end int64
	crc      uint32
}

// File is a named byte file on one device of one node.
type File struct {
	name   string
	dev    cost.Device
	data   []byte
	frames []frameSpan // populated per write when checksums are on
	grown  bool        // data is a pooled buffer the file grew into: Delete recycles it
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Size returns the current physical size in bytes.
func (f *File) Size() int64 { return int64(len(f.data)) }

// Data returns the raw contents without charging I/O. Use only for
// assertions and for memory-resident access paths that are explicitly
// free (e.g. shuffle served from the mapper's memory).
func (f *File) Data() []byte { return f.data }

// Corruption is panicked by verified reads whose checksum fails and
// by exhausted transient-I/O retry budgets. Like the engine's
// node-abort panic, attempt runners recover it at attempt boundaries
// and restart; it must never escape into the kernel on recoverable
// paths.
type Corruption struct {
	Node  int
	File  string
	Class IOClass
	Kind  string // "checksum" or "io"
}

// Error implements error.
func (c *Corruption) Error() string {
	return fmt.Sprintf("storage: %s fault on node %d, file %q (%s)", c.Kind, c.Node, c.File, c.Class)
}

// DiskFaults configures deterministic disk-fault injection on one
// store. All decisions are drawn from Hash64 over (Seed, node,
// per-store sequence); the sequence only advances inside proc-context
// I/O calls, which the kernel serializes, so injected faults land at
// identical points for any worker-pool size.
type DiskFaults struct {
	Seed int64
	// IOErrorRate is the per-request probability of a transient I/O
	// error: the request costs a seek, backs off, and is retried
	// (bounded), invisibly to the caller except in virtual time.
	IOErrorRate float64
	// CorruptRate is the per-frame probability that a write is
	// persisted with one flipped bit — detected by checksum
	// verification on the next read of that frame.
	CorruptRate float64
	// Classes masks which I/O classes are targeted.
	Classes [NumIOClasses]bool
	// From/To bound the injection window in virtual nanoseconds;
	// To == 0 means no upper bound.
	From, To int64
}

func (d *DiskFaults) window(now int64) bool {
	return now >= d.From && (d.To == 0 || now < d.To)
}

// Transient-I/O retry policy: exponential backoff from base to cap;
// exhausting the budget escalates to a Corruption("io") panic. At
// validated rates (< 0.5) exhaustion is a ~1e-4-or-rarer event per
// request, and recoverable wherever checksum corruption is.
const (
	ioRetryBase = 20 * time.Millisecond
	ioRetryCap  = 2 * time.Second
	maxIOTries  = 12
)

// Hash64 deterministically mixes identifiers into a uniform 64-bit
// value (iterated splitmix64): the basis of every fault-injection
// decision here and in the engine, so faulted runs are exactly
// reproducible.
func Hash64(vals ...int64) uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		x += uint64(v) ^ 0xBF58476D1CE4E5B9
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
	}
	return x
}

// hit converts a hash draw into a probability-rate decision.
func hit(h uint64, rate float64) bool {
	return rate > 0 && h < uint64(rate*float64(math.MaxUint64))
}

// Roll draws one deterministic fault decision — true with probability
// rate — from Hash64 over the identifying values. The engine uses it
// for injections the store never sees (checkpoint images travel
// engine-side).
func Roll(rate float64, vals ...int64) bool { return hit(Hash64(vals...), rate) }

// Store is one node's storage: two devices sharing nothing, each a
// substrate.Timer — on the DES a capacity-1 sim resource (one
// outstanding request at a time, FIFO), on the real backend a plain
// busy-time accumulator.
type Store struct {
	node     int
	model    cost.Model
	arms     [2]substrate.Timer
	counters Counters
	files    map[string]*File
	// Intermediate decides the device for intermediate data (spills,
	// map output). Input/output (HDFS) always use the HDD, as in the
	// paper's SSD experiment.
	Intermediate cost.Device

	// SlowFactor > 1 stretches every seek and transfer on this node's
	// devices by that multiple — the disk half of a straggler node
	// (FaultPlan.SlowNodes). 0 or 1 means nominal speed.
	SlowFactor float64

	// Checksums enables the end-to-end frame layer: every write
	// records CRC32C frame metadata and every read re-verifies the
	// frames it touches, with the framing bytes charged as overhead.
	// Off (the default), no metadata is kept and no byte is charged —
	// the store behaves identically to the pre-integrity code.
	Checksums bool

	faults        *DiskFaults
	faultSeq      int64
	ioRetries     int64
	corruptFrames int64
}

// NewStore creates a node-local store on the DES substrate: the
// device arms are FIFO sim resources and every request parks the
// calling process for its charged service time.
func NewStore(k *sim.Kernel, node int, model cost.Model) *Store {
	return &Store{
		node:  node,
		model: model,
		arms: [2]substrate.Timer{
			sim.NewResource(k, fmt.Sprintf("n%d.hdd", node), 1),
			sim.NewResource(k, fmt.Sprintf("n%d.ssd", node), 1),
		},
		files:        make(map[string]*File),
		Intermediate: cost.HDD,
	}
}

// NewWallStore creates a node-local store on the wall-clock substrate:
// the device arms accumulate the charged virtual time without delaying
// the caller. A store is single-goroutine (the real backend gives each
// task its own), so the counters need no locking.
func NewWallStore(node int, model cost.Model) *Store {
	return &Store{
		node:  node,
		model: model,
		arms: [2]substrate.Timer{
			substrate.NewWallTimer(),
			substrate.NewWallTimer(),
		},
		files:        make(map[string]*File),
		Intermediate: cost.HDD,
	}
}

// Counters returns a pointer to the store's counters (live view).
func (s *Store) Counters() *Counters { return &s.counters }

// SetFaults installs a disk-fault plan on this store (nil disables).
func (s *Store) SetFaults(f *DiskFaults) { s.faults = f }

// IORetries returns how many transient I/O errors were injected and
// retried on this store.
func (s *Store) IORetries() int64 { return s.ioRetries }

// CorruptFramesDetected returns how many frame verifications failed
// on this store (re-reads of a corrupt frame count again).
func (s *Store) CorruptFramesDetected() int64 { return s.corruptFrames }

// NoteOverhead records framing overhead accounted by a caller that
// moves framed bytes the store never holds (checkpoint images).
func (s *Store) NoteOverhead(class IOClass, n int64) {
	s.counters.OverheadBytes[class] += n
}

// Arm returns the device's timer (for metrics sampling).
func (s *Store) Arm(dev cost.Device) substrate.Timer { return s.arms[dev] }

// deviceFor maps an I/O class to a device under the placement policy.
func (s *Store) deviceFor(class IOClass) cost.Device {
	switch class {
	case MapInput, ReduceOutput, Checkpoint:
		return cost.HDD
	default:
		return s.Intermediate
	}
}

// Create makes an empty file for the given class's device. Names must
// be unique per store.
func (s *Store) Create(name string, class IOClass) *File {
	if _, dup := s.files[name]; dup {
		panic("storage: duplicate file " + name)
	}
	f := &File{name: name, dev: s.deviceFor(class)}
	s.files[name] = f
	return f
}

// Delete removes a file. A file grown by Append hands its bytes back
// to bytestore, so views a read lent from it die here; an adopted
// buffer is only dropped, and its views stay valid (the GC keeps them
// alive).
func (s *Store) Delete(f *File) {
	delete(s.files, f.name)
	if f.grown {
		bytestore.Put(f.data)
	}
	f.data, f.frames, f.grown = nil, nil, false
}

// Append writes a copy of data to the end of f as a single request
// (one frame), charging seek + transfer on the device arm. The file
// grows through the bytestore pool; views read from it stay valid
// until Delete.
func (s *Store) Append(p substrate.Proc, f *File, data []byte, class IOClass) {
	s.write(p, f, data, class, nil, false)
}

// AppendOwned is Append taking ownership of data: an empty file adopts
// the buffer instead of copying it, so the caller must not write to it
// again — it may keep reading it, as may anyone a read lent a view,
// also after Delete (an adopted buffer stays the GC's, never the
// pool's). Hand over exact-size allocations, not pooled ones: the file
// pins the whole backing array. When checksums are on, one frame is
// recorded per given segment length (writev-style): partition regions
// of a map-output file stay individually verifiable without extra write
// requests. lens must sum to len(data); nil means one frame covering
// all of data. Zero-length segments record no frame.
func (s *Store) AppendOwned(p substrate.Proc, f *File, data []byte, class IOClass, lens []int64) {
	s.write(p, f, data, class, lens, true)
}

// write is the one append path. Ownership is an argument, not store
// state: the request parks, and whichever process appended next would
// consume a flag left on the store.
func (s *Store) write(p substrate.Proc, f *File, data []byte, class IOClass, lens []int64, owned bool) {
	var ovh int64
	if s.Checksums {
		if lens == nil {
			lens = []int64{int64(len(data))}
		}
		off := int64(len(f.data))
		pos := int64(0)
		for _, ln := range lens {
			if ln <= 0 {
				continue
			}
			seg := data[pos : pos+ln]
			f.frames = append(f.frames, frameSpan{off: off + pos, end: off + pos + ln, crc: frame.Checksum(seg)})
			ovh += frame.Overhead(len(seg))
			pos += ln
		}
		if pos != int64(len(data)) {
			panic(fmt.Sprintf("storage: frame lengths cover %d of %d bytes in %s", pos, len(data), f.name))
		}
		s.counters.OverheadBytes[class] += ovh
	}
	s.request(p, f, f.dev, int64(len(data))+ovh, class)
	prev := int64(len(f.data))
	adopted := owned && prev == 0
	if adopted {
		f.data, f.grown = data[:len(data):len(data)], false
	} else {
		if len(f.data)+len(data) > cap(f.data) {
			// The old bytes are left to the GC: views lent from them
			// stay valid until Delete.
			f.data, f.grown = append(bytestore.Get(max(2*cap(f.data), len(f.data)+len(data))), f.data...), true
		}
		f.data = append(f.data, data...)
	}
	s.counters.WrittenBytes[class] += int64(len(data))
	s.counters.WriteReqs[class]++
	// Bit-flip corruption: the frame CRCs above were computed over the
	// clean bytes, so the flip (into the file's own bytes, never the
	// writer's: an adopted buffer is cloned first) is caught by the next
	// read that verifies the damaged frame.
	if fl := s.faults; fl != nil && s.Checksums && len(data) > 0 &&
		fl.Classes[class] && fl.window(p.Now()) {
		s.faultSeq++
		if hit(Hash64(fl.Seed, int64(s.node), s.faultSeq, 1), fl.CorruptRate) {
			if adopted {
				f.data = bytes.Clone(f.data)
			}
			bit := Hash64(fl.Seed, int64(s.node), s.faultSeq, 2) % uint64(len(data)*8)
			f.data[prev+int64(bit/8)] ^= 1 << (bit % 8)
		}
	}
}

// verifySpans re-verifies every frame overlapping [off, end) and
// returns the framing bytes those frames carry. Edge frames are
// verified whole (their payload is memory-resident); only the
// header/trailer bytes are charged, the interior re-read being
// absorbed by the read buffer.
func (s *Store) verifySpans(f *File, off, end int64) (ovh int64, err error) {
	i := sort.Search(len(f.frames), func(i int) bool { return f.frames[i].end > off })
	for ; i < len(f.frames) && f.frames[i].off < end; i++ {
		sp := f.frames[i]
		ovh += frame.Overhead(int(sp.end - sp.off))
		if frame.Checksum(f.data[sp.off:sp.end]) != sp.crc {
			s.corruptFrames++
			err = frame.ErrCorrupt
		}
	}
	return ovh, err
}

// ReadAt reads n bytes at off from f as a single request, verifying
// the frames it touches when checksums are on. Checksum failure
// panics Corruption: internal read paths (spills, buckets, merges)
// recover it at attempt boundaries and restart.
func (s *Store) ReadAt(p substrate.Proc, f *File, off, n int64, class IOClass) []byte {
	b, err := s.ReadAtChecked(p, f, off, n, class)
	if err != nil {
		panic(&Corruption{Node: s.node, File: f.name, Class: class, Kind: "checksum"})
	}
	return b
}

// ReadAtChecked is ReadAt returning frame.ErrCorrupt instead of
// panicking — for callers with a gentler recovery than an attempt
// restart (the shuffle re-fetches, then re-executes the map task).
// The full request is charged either way: the bytes moved before the
// mismatch was noticed.
func (s *Store) ReadAtChecked(p substrate.Proc, f *File, off, n int64, class IOClass) ([]byte, error) {
	if off+n > int64(len(f.data)) {
		panic(fmt.Sprintf("storage: read past EOF of %s (%d+%d > %d)", f.name, off, n, len(f.data)))
	}
	var ovh int64
	var verr error
	if s.Checksums {
		ovh, verr = s.verifySpans(f, off, off+n)
		s.counters.OverheadBytes[class] += ovh
	}
	s.request(p, f, f.dev, n+ovh, class)
	s.counters.ReadBytes[class] += n
	s.counters.ReadReqs[class]++
	if verr != nil {
		return nil, verr
	}
	return f.data[off : off+n : off+n], nil
}

// VerifyFile re-verifies every frame of f without charging I/O, and
// panics Corruption on a mismatch. Checkpointing calls it before
// folding a file's memory-resident bytes into a state image, so disk
// corruption cannot be laundered into a freshly-checksummed
// checkpoint.
func (s *Store) VerifyFile(f *File, class IOClass) {
	if !s.Checksums {
		return
	}
	if _, err := s.verifySpans(f, 0, int64(len(f.data))); err != nil {
		panic(&Corruption{Node: s.node, File: f.name, Class: class, Kind: "checksum"})
	}
}

// ReadAll reads the whole file in requests of at most segment physical
// bytes, modelling a bounded read buffer. segment ≤ 0 means one
// request.
func (s *Store) ReadAll(p substrate.Proc, f *File, segment int64, class IOClass) []byte {
	size := int64(len(f.data))
	if segment <= 0 || segment >= size {
		if size == 0 {
			return nil
		}
		return s.ReadAt(p, f, 0, size, class)
	}
	for off := int64(0); off < size; off += segment {
		n := segment
		if off+n > size {
			n = size - off
		}
		s.ReadAt(p, f, off, n, class)
	}
	return f.data
}

// ChargeInputRead accounts for reading job input that is generated on
// the fly rather than stored (the DFS synthesizes chunk bytes): it
// charges the HDD arm and the MapInput counters without touching any
// file.
func (s *Store) ChargeInputRead(p substrate.Proc, physBytes int64) {
	s.request(p, nil, cost.HDD, physBytes, MapInput)
	s.counters.ReadBytes[MapInput] += physBytes
	s.counters.ReadReqs[MapInput]++
}

// ChargeOutputWrite accounts for job output written back to the DFS
// without retaining the bytes.
func (s *Store) ChargeOutputWrite(p substrate.Proc, physBytes int64) {
	s.request(p, nil, cost.HDD, physBytes, ReduceOutput)
	s.counters.WrittenBytes[ReduceOutput] += physBytes
	s.counters.WriteReqs[ReduceOutput]++
}

// ChargeCheckpointWrite accounts for writing physBytes of reducer
// checkpoint state. Like ChargeOutputWrite the bytes are not retained:
// the checkpoint is modelled as replicated off-node (it must survive
// the node), so the engine keeps the recoverable image itself and the
// store only charges the local write leg.
func (s *Store) ChargeCheckpointWrite(p substrate.Proc, physBytes int64) {
	if physBytes <= 0 {
		return
	}
	s.request(p, nil, cost.HDD, physBytes, Checkpoint)
	s.counters.WrittenBytes[Checkpoint] += physBytes
	s.counters.WriteReqs[Checkpoint]++
}

// ChargeCheckpointRead accounts for a restarted reducer reading back
// physBytes of checkpoint state onto this node.
func (s *Store) ChargeCheckpointRead(p substrate.Proc, physBytes int64) {
	if physBytes <= 0 {
		return
	}
	s.request(p, nil, cost.HDD, physBytes, Checkpoint)
	s.counters.ReadBytes[Checkpoint] += physBytes
	s.counters.ReadReqs[Checkpoint]++
}

// request occupies the device arm for one I/O request of physBytes,
// first rolling for injected transient I/O errors: a failed attempt
// costs a seek, backs off with exponential delay, and retries;
// exhausting the budget escalates to Corruption("io"), recovered at
// attempt boundaries like a checksum failure. f may be nil
// (charge-only requests with no retained file).
func (s *Store) request(p substrate.Proc, f *File, dev cost.Device, physBytes int64, class IOClass) {
	if fl := s.faults; fl != nil && fl.IOErrorRate > 0 && fl.Classes[class] {
		backoff := ioRetryBase
		for try := 1; fl.window(p.Now()); try++ {
			s.faultSeq++
			if !hit(Hash64(fl.Seed, int64(s.node), s.faultSeq, 0), fl.IOErrorRate) {
				break
			}
			s.ioRetries++
			s.armUse(p, dev, s.model.SeekTime(dev)) // the failed attempt still seeks
			if try >= maxIOTries {
				name := ""
				if f != nil {
					name = f.name
				}
				panic(&Corruption{Node: s.node, File: name, Class: class, Kind: "io"})
			}
			p.Hold(backoff)
			if backoff *= 2; backoff > ioRetryCap {
				backoff = ioRetryCap
			}
		}
	}
	s.armUse(p, dev, s.model.SeekTime(dev)+s.model.TransferTime(dev, physBytes))
}

// armUse occupies the device arm for d (stretched on slow nodes).
func (s *Store) armUse(p substrate.Proc, dev cost.Device, d time.Duration) {
	if s.SlowFactor > 1 {
		d = time.Duration(float64(d) * s.SlowFactor)
	}
	s.arms[dev].Use(p, 1, d)
}
