// Package storage simulates per-node storage devices.
//
// Every file (map spill, map output, reduce bucket/spill, job output)
// holds real bytes — in memory, or for spills in the run's scratch file
// (Scratch), where each extent lives exactly as long as a file or a
// Taken can read it — while reads and writes charge
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
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bytestore"
	"repro/internal/cost"
	"repro/internal/frame"
	"repro/internal/kvenc"
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

var classNames = [NumIOClasses]string{"map-input", "map-spill", "map-output", "reduce-spill",
	"reduce-output", "shuffle-read", "checkpoint"}

// String returns the class name.
func (c IOClass) String() string {
	if c < 0 || c >= NumIOClasses {
		return "io?"
	}
	return classNames[c]
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
	ok       bool // found intact: the bytes never change, so it is not summed again
}

// medium is where the bytes of a file or a Taken are: extents of a
// scratch file, in order, then data in the heap — all of a memory
// file's bytes, the page a disk file has not flushed, a Taken's copy.
type medium struct {
	disk *Scratch // nil: memory
	exts []*extent
	data []byte
}

// last returns the extent m ends in, through which it holds them all.
func (m *medium) last() *extent {
	if len(m.exts) == 0 {
		return nil
	}
	return m.exts[len(m.exts)-1]
}

// readAt fills dst with m's bytes from offset off.
func (m *medium) readAt(dst []byte, off int64) {
	pos := int64(0) // where extent e starts
	for _, e := range m.exts {
		if n := min(int64(len(dst)), pos+e.n-off); n > 0 {
			m.disk.readAt(dst[:n], e.at+off-pos)
			dst, off = dst[n:], off+n
		}
		pos += e.n
	}
	if len(dst) > 0 {
		copy(dst, m.data[off-pos:])
	}
}

// File is a named byte file on one device of one node. Its bytes live
// on one of two media: memory, or extents of the store's scratch file
// behind a write-behind page (disk: spills on a store given one).
type File struct {
	medium // disk: data is the page (pooled, at most ScratchPage)
	name   string
	dev    cost.Device
	size   int64
	frames []frameSpan // populated per write when checksums are on
	lent   [][]byte    // disk: pooled copies and windows reads lent, recycled at Delete
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Size returns the current physical size in bytes.
func (f *File) Size() int64 { return f.size }

// put appends data to the file's medium. An empty in-memory file adopts
// an owned buffer, else memory grows by append (views lent from the old
// bytes stay valid); disk gathers appends in the page, and one that
// overflows it goes out with it as an extent of whole blocks, the rest kept.
func (f *File) put(data []byte, owned bool) {
	prev, n := f.size, len(f.data)+len(data)
	f.size += int64(len(data))
	switch {
	case f.disk == nil && owned && prev == 0:
		f.data = data[:len(data):len(data)]
	case f.disk == nil:
		f.data = append(f.data, data...)
	case n <= ScratchPage:
		f.data = append(bytestore.Grow(f.data, len(data)), data...)
	default:
		cut := len(data) - n%scratchBlock // ≥ 0: the page fits in n's whole blocks
		f.exts = append(f.exts, f.disk.park(f.last(), f.data, data[:cut]))
		f.data = append(bytestore.Grow(f.data[:0], len(data)-cut), data[cut:]...)
	}
}

// get lends the file's bytes until Delete: in memory the file's own
// buffer, on disk a pooled copy.
func (f *File) get() []byte {
	if f.disk == nil {
		return f.data[:f.size:f.size]
	}
	b := bytestore.Get(int(f.size))[:f.size]
	f.readAt(b, 0)
	f.lent = append(f.lent, b)
	return b[:f.size:f.size]
}

// ScratchPage bounds a disk file's write-behind page: the most of a
// spill file the heap holds, beside the copies ReadAll lent.
const ScratchPage = 16 << 10

// scratchBlock is the boundary extents are carved at, so that punching
// one out gives back every block it used.
const scratchBlock = 4 << 10

// blocks rounds n up to whole scratch blocks.
func blocks(n int64) int64 { return (n + scratchBlock - 1) &^ (scratchBlock - 1) }

// Scratch is the disk medium of one run: a temporary file, unlinked as
// soon as it is open, that holds the spill files of the run's stores
// and the map outputs a wall-clock run parks. Extents are carved at
// block boundaries from its end, never reused, and each has holders: the
// disk file that wrote it until Delete, every Taken of it until Release,
// each file given such a Taken until its Delete, and the extent after it
// in a file. The last to let go punches it out (where the filesystem
// can; elsewhere it stays); Close drops what is left, as the process
// dying does. Safe for concurrent use.
type Scratch struct {
	f    *os.File
	end  atomic.Int64 // where the next extent is carved
	size atomic.Int64 // bytes written
	held atomic.Int64 // bytes in extents something holds
}

// extent is n bytes of a scratch file at offset at, and its holders.
type extent struct {
	at, n   int64
	prev    *extent // the extent before it in its file, which it holds
	holders atomic.Int32
}

// OpenScratch creates a scratch file in os.TempDir().
func OpenScratch() (*Scratch, error) {
	f, err := os.CreateTemp("", "onepass-spill-*")
	if err != nil {
		return nil, fmt.Errorf("storage: spill scratch: %w", err)
	}
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: spill scratch: %w", err)
	}
	return &Scratch{f: f}, nil
}

// Close releases the scratch file and every extent in it.
func (s *Scratch) Close() error { return s.f.Close() }

// Size returns the bytes written to the scratch file so far.
func (s *Scratch) Size() int64 { return s.size.Load() }

// Held returns the bytes in extents that still have a holder.
func (s *Scratch) Held() int64 { return s.held.Load() }

// Stage writes a copy of data to a fresh extent of s (the heap if s is
// nil), uncharged and unsummed, to read back (Taken.ReadAt) or give to
// a fresh file (Store.Give) until Release.
func (s *Scratch) Stage(data []byte) Taken {
	if s == nil {
		return Taken{medium: medium{data: append(bytestore.Get(len(data)), data...)}, n: int64(len(data))}
	}
	return Taken{medium: medium{disk: s, exts: []*extent{s.park(nil, data, nil)}}, n: int64(len(data))}
}

// park writes a and then b to a fresh extent, held once, behind prev:
// whoever held prev hands that hold on to it.
func (s *Scratch) park(prev *extent, a, b []byte) *extent {
	e := &extent{n: int64(len(a) + len(b)), prev: prev}
	e.at = s.end.Add(blocks(e.n)) - blocks(e.n)
	scratchIO(s.f.WriteAt(a, e.at))
	scratchIO(s.f.WriteAt(b, e.at+int64(len(a))))
	e.holders.Store(1)
	s.size.Add(e.n)
	s.held.Add(e.n)
	return e
}

// hold adds d (±1) holders to e (none if e is nil): the last to let go
// punches e out of the file, a failed punch leaving it to Close, and
// lets go of the extent before it.
func (s *Scratch) hold(e *extent, d int32) {
	for ; e != nil && e.holders.Add(d) == 0; e = e.prev {
		s.held.Add(-e.n)
		punch(s.f.Fd(), e.at, blocks(e.n))
	}
}

// readAt fills dst with the scratch file's bytes at offset at.
func (s *Scratch) readAt(dst []byte, at int64) { scratchIO(s.f.ReadAt(dst, at)) }

// scratchIO panics a failed scratch read or write, which attempt
// runners turn into the job's error.
func scratchIO(_ int, err error) {
	if err != nil {
		panic(fmt.Errorf("storage: spill scratch: %w", err))
	}
}

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
// store, for as long as it stays installed (SetFaults). All decisions
// are drawn from Hash64 over (Seed, node, sequence), the sequence being
// the store's own: on the DES one store per node, serialized by the
// kernel; on the real backend one store per attempt, on one goroutine.
// Either way injected faults land at identical points for any
// worker-pool size.
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

	scratch       *Scratch // disk medium for spills; nil keeps them in memory
	faults        *DiskFaults
	faultSeq      int64
	ioRetries     int64
	corruptFrames int64
}

// NewStore creates a node-local store on the DES substrate: the
// device arms are FIFO sim resources and every request parks the
// calling process for its charged service time. Its spill files live in
// scratch, as NewWallStore's do.
func NewStore(k *sim.Kernel, node int, model cost.Model, scratch *Scratch) *Store {
	return newStore(node, model, scratch, sim.NewResource(k, fmt.Sprintf("n%d.hdd", node), 1),
		sim.NewResource(k, fmt.Sprintf("n%d.ssd", node), 1))
}

// NewWallStore creates a node-local store on the wall-clock substrate:
// the device arms accumulate the charged virtual time without delaying
// the caller. A store is single-goroutine (the real backend gives each
// task its own), so the counters need no locking. Its spill files
// (MapSpill, ReduceSpill) live in scratch; a nil scratch keeps them in
// memory, as every other file is.
func NewWallStore(node int, model cost.Model, scratch *Scratch) *Store {
	return newStore(node, model, scratch, substrate.NewWallTimer(), substrate.NewWallTimer())
}

func newStore(node int, model cost.Model, scratch *Scratch, hdd, ssd substrate.Timer) *Store {
	return &Store{node: node, model: model, arms: [2]substrate.Timer{hdd, ssd},
		files: make(map[string]*File), Intermediate: cost.HDD, scratch: scratch}
}

// Counters returns a pointer to the store's counters (live view).
func (s *Store) Counters() *Counters { return &s.counters }

// SetFaults installs a disk-fault plan on this store (nil disables,
// also for a request already retrying).
func (s *Store) SetFaults(f *DiskFaults) { s.faults = f }

// Faults returns the installed disk-fault plan, nil when none.
func (s *Store) Faults() *DiskFaults { return s.faults }

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
	if class == MapSpill || class == ReduceSpill {
		f.disk = s.scratch
	}
	s.files[name] = f
	return f
}

// Delete removes a file and lets go of its extents. Every buffer a read
// of a disk file lent goes back to bytestore, so views of it die here;
// memory is only dropped, and views of it stay valid (the GC keeps them
// alive).
func (s *Store) Delete(f *File) {
	delete(s.files, f.name)
	if f.disk != nil {
		f.disk.hold(f.last(), -1)
		bytestore.Put(f.data)
	}
	for _, b := range f.lent {
		bytestore.Put(b)
	}
	*f = File{name: f.name, dev: f.dev, medium: medium{disk: f.disk}}
}

// DeleteAll deletes every file whose name starts with prefix: what an
// attempt that failed or died left behind.
func (s *Store) DeleteAll(prefix string) {
	for name, f := range s.files {
		if strings.HasPrefix(name, prefix) {
			s.Delete(f)
		}
	}
}

// Append writes a copy of data to the end of f as a single request
// (one frame), charging seek + transfer on the device arm. Views read
// from the file stay valid until Delete.
func (s *Store) Append(p substrate.Proc, f *File, data []byte, class IOClass) {
	s.write(p, f, data, class, nil, false)
}

// AppendOwned is Append taking ownership of data: an empty file adopts
// the buffer instead of copying it, so the caller must not write to it
// again — it may keep reading it, as may anyone a read lent a view of
// an in-memory file, also after Delete (an adopted buffer stays the
// GC's, never the pool's). Hand over exact-size allocations, not pooled
// ones: the file pins the whole backing array. A disk file copies data
// out and keeps nothing of it. When checksums are on, one frame is
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
		pos := int64(0)
		for _, ln := range lens {
			if ln <= 0 {
				continue
			}
			seg := data[pos : pos+ln]
			f.frames = append(f.frames, frameSpan{off: f.size + pos, end: f.size + pos + ln, crc: frame.Checksum(seg)})
			ovh += frame.Overhead(len(seg))
			pos += ln
		}
		if pos != int64(len(data)) {
			panic(fmt.Sprintf("storage: frame lengths cover %d of %d bytes in %s", pos, len(data), f.name))
		}
	}
	s.io(p, f.name, f.dev, class, int64(len(data)), ovh, true)
	if bit, ok := s.rollCorrupt(class, len(data)); ok {
		data, owned = bytes.Clone(data), true
		data[bit/8] ^= 1 << (bit % 8)
	}
	f.put(data, owned)
}

// rollCorrupt draws whether the next write of n bytes of class persists
// with one bit flipped (into a clone the file keeps, never the writer's
// bytes), and which: the next read verifying its frame catches it.
func (s *Store) rollCorrupt(class IOClass, n int) (bit uint64, ok bool) {
	if fl := s.faults; fl != nil && s.Checksums && n > 0 && fl.Classes[class] {
		s.faultSeq++
		if hit(Hash64(fl.Seed, int64(s.node), s.faultSeq, 1), fl.CorruptRate) {
			return Hash64(fl.Seed, int64(s.node), s.faultSeq, 2) % uint64(n*8), true
		}
	}
	return 0, false
}

// Taken is bytes held for a fresh file (Give) or to read (ReadAt): a
// run Stage wrote, or a file's bytes as Take found them — its extents
// by reference, a copy of the rest. Its extents stay until Release,
// whatever becomes of the file; nothing writes what it shares.
type Taken struct {
	medium
	n      int64
	crc    uint32 // their frame's checksum, if summed
	summed bool
}

// Len returns the bytes t holds.
func (t *Taken) Len() int64 { return t.n }

// ReadAt fills dst with t's bytes from offset off.
func (t *Taken) ReadAt(dst []byte, off int64) { t.readAt(dst, off) }

// Release lets go of t's extents and gives its copy back to the pool:
// t is dead, and zeroed, so a deferred Release of a released t does
// nothing (a copy made before is dead too).
func (t *Taken) Release() {
	t.disk.hold(t.last(), -1)
	bytestore.Put(t.data)
	*t = Taken{}
}

// Stage writes a copy of data to the medium of s's spill files,
// uncharged, summing its frame when checksums are on. It touches no
// store state, so the closure that produced data runs it.
func (s *Store) Stage(data []byte) Taken {
	t := s.scratch.Stage(data)
	if t.summed = s.Checksums; t.summed {
		t.crc = frame.Checksum(data)
	}
	return t
}

// Take returns f's bytes (none if f is nil) and then extra, uncharged:
// the flushed bytes by reference, the rest and extra in one pooled copy.
// It verifies f's frames first, panicking Corruption on a mismatch, so
// damage on disk is not laundered into a restore's frame.
func (s *Store) Take(f *File, extra []byte, class IOClass) Taken {
	t, heap := Taken{}, []byte(nil)
	if f != nil {
		if _, err := s.verify(f, 0, f.size); err != nil {
			panic(&Corruption{Node: s.node, File: f.name, Class: class, Kind: "checksum"})
		}
		t = Taken{medium: medium{disk: f.disk, exts: f.exts[:len(f.exts):len(f.exts)]}, n: f.size - int64(len(f.data))}
		t.disk.hold(t.last(), 1)
		heap = f.data
	}
	t.data = append(append(bytestore.Get(len(heap)+len(extra)), heap...), extra...)
	t.n += int64(len(t.data))
	return t
}

// Give makes the empty file f hold t's bytes, taken or staged on a
// store sharing f's medium, until its Delete: one request and one frame,
// charged and rolled for faults as Append of those bytes is. A
// corruption hit persists a private flipped copy — a fresh extent on
// disk — never bytes t or another file references.
func (s *Store) Give(p substrate.Proc, f *File, t Taken, class IOClass) {
	var ovh int64
	if s.Checksums && t.n > 0 {
		ovh = frame.Overhead(int(t.n))
	}
	s.io(p, f.name, f.dev, class, t.n, ovh, true)
	f.exts, f.size = t.exts, t.n-int64(len(t.data))
	f.disk.hold(f.last(), 1)
	f.put(t.data, false)
	if !t.summed && ovh > 0 {
		t.crc = f.crc(0, t.n)
	}
	if ovh > 0 {
		f.frames = append(f.frames, frameSpan{end: t.n, crc: t.crc})
	}
	if bit, ok := s.rollCorrupt(class, int(t.n)); ok {
		b := make([]byte, f.size)
		f.readAt(b, 0)
		b[bit/8] ^= 1 << (bit % 8)
		n := f.size - int64(len(f.data))
		if n > 0 {
			f.disk.hold(f.last(), -1)
			f.exts = []*extent{f.disk.park(nil, b[:n], nil)}
		}
		copy(f.data, b[n:])
	}
}

// verify re-verifies every frame of f overlapping [off, end) and
// returns the framing bytes those frames carry. Edge frames are verified
// whole; only the header/trailer bytes are charged, the interior re-read
// being absorbed by the read buffer.
func (s *Store) verify(f *File, off, end int64) (ovh int64, err error) {
	i := sort.Search(len(f.frames), func(i int) bool { return f.frames[i].end > off })
	for ; i < len(f.frames) && f.frames[i].off < end; i++ {
		ovh += frame.Overhead(int(f.frames[i].end - f.frames[i].off))
		if !f.intact(i) {
			s.corruptFrames++
			err = frame.ErrCorrupt
		}
	}
	return ovh, err
}

// intact reports whether frame i of f still carries its checksum.
func (f *File) intact(i int) bool {
	sp := &f.frames[i]
	if !sp.ok {
		sp.ok = f.crc(sp.off, sp.end) == sp.crc
	}
	return sp.ok
}

// crc returns the checksum of the frame over f's bytes [off, end),
// summed through one window.
func (f *File) crc(off, end int64) uint32 {
	win, c := bytestore.Get(ScratchPage)[:ScratchPage], frame.Start(int(end-off))
	for ; off < end; off += ScratchPage {
		b := win[:min(ScratchPage, end-off)]
		f.readAt(b, off)
		c = frame.Extend(c, b)
	}
	bytestore.Put(win)
	return c
}

// ReadAtChecked charges reading n bytes at off of f as a single request,
// verifying the frames it touches when checksums are on, and returns
// frame.ErrCorrupt on a mismatch — for callers with a gentler recovery
// than an attempt restart (the shuffle re-fetches, then re-executes the
// map task). The full request is charged either way: the bytes moved
// before the mismatch was noticed. It lends nothing.
func (s *Store) ReadAtChecked(p substrate.Proc, f *File, off, n int64, class IOClass) (err error) {
	if off+n > f.size {
		panic(fmt.Sprintf("storage: read past EOF of %s (%d+%d > %d)", f.name, off, n, f.size))
	}
	var ovh int64
	if s.Checksums {
		ovh, err = s.verify(f, off, off+n)
	}
	s.io(p, f.name, f.dev, class, n, ovh, false)
	return err
}

// ReadAll reads the whole file in requests of at most segment physical
// bytes, modelling a bounded read buffer. segment ≤ 0 means one
// request. The bytes are lent until Delete. Checksum failure panics
// Corruption: internal read paths (spills, buckets, merges) recover it
// at attempt boundaries and restart.
func (s *Store) ReadAll(p substrate.Proc, f *File, segment int64, class IOClass) []byte {
	if f.size == 0 {
		return nil
	}
	s.Scan(p, f, segment, class)
	return f.get()
}

// Scan charges reading f as ReadAll does, in requests of at most
// segment bytes, panicking Corruption at the first whose frames are not
// all intact, and lends nothing.
func (s *Store) Scan(p substrate.Proc, f *File, segment int64, class IOClass) {
	if segment <= 0 {
		segment = f.size
	}
	for off := int64(0); off < f.size; off += segment {
		if s.ReadAtChecked(p, f, off, min(segment, f.size-off), class) != nil {
			panic(&Corruption{Node: s.node, File: f.name, Class: class, Kind: "checksum"})
		}
	}
}

// Stream charges reading spill file f as ReadAll does and lends it, until
// Delete, for a merge to read through one window of segment bytes.
func (s *Store) Stream(p substrate.Proc, f *File, segment int64, class IOClass) kvenc.Spill {
	if segment <= 0 || segment > f.size {
		segment = f.size
	}
	s.Scan(p, f, segment, class)
	w := bytestore.Get(int(segment))
	f.lent = append(f.lent, w)
	return kvenc.Spill{Size: f.size, ReadAt: f.readAt, Win: w}
}

// Charge accounts one request moving physBytes of class that no file
// retains (none if physBytes ≤ 0): job input the DFS synthesizes on the
// fly (a read), job output written back to the DFS, and reducer
// checkpoints — modelled as replicated off-node, so the engine keeps the
// recoverable image and the store charges only the local write leg, or
// the restarted reducer's read back.
func (s *Store) Charge(p substrate.Proc, class IOClass, physBytes int64, write bool) {
	if physBytes > 0 {
		s.io(p, "", s.deviceFor(class), class, physBytes, 0, write)
	}
}

// io occupies dev for one request moving n payload bytes of class plus
// ovh framing bytes of the named file ("" for charge-only requests), and
// counts it.
func (s *Store) io(p substrate.Proc, name string, dev cost.Device, class IOClass, n, ovh int64, write bool) {
	s.counters.OverheadBytes[class] += ovh
	s.request(p, name, dev, n+ovh, class)
	if write {
		s.counters.WrittenBytes[class] += n
		s.counters.WriteReqs[class]++
	} else {
		s.counters.ReadBytes[class] += n
		s.counters.ReadReqs[class]++
	}
}

// request occupies the device arm for one I/O request of physBytes,
// first rolling for injected transient I/O errors: a failed attempt
// costs a seek, backs off with exponential delay, and retries;
// exhausting the budget escalates to Corruption("io"), recovered at
// attempt boundaries like a checksum failure.
func (s *Store) request(p substrate.Proc, name string, dev cost.Device, physBytes int64, class IOClass) {
	if fl := s.faults; fl != nil && fl.IOErrorRate > 0 && fl.Classes[class] {
		backoff := ioRetryBase
		for try := 1; s.faults != nil; try++ {
			s.faultSeq++
			if !hit(Hash64(fl.Seed, int64(s.node), s.faultSeq, 0), fl.IOErrorRate) {
				break
			}
			s.ioRetries++
			s.armUse(p, dev, s.model.SeekTime(dev)) // the failed attempt still seeks
			if try >= maxIOTries {
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
