// Package jobstore is the embedded durable store behind the job
// scheduler (internal/sched): a bolt-style bucket/key/value store
// persisted through internal/seglog, the segmented log it shares with
// the ingest WAL — CRC32C-framed append-log segments (one frame per
// committed transaction, fsynced before the commit returns), periodic
// compacted snapshots of the full bucket state as the log's images,
// and seglog.Recover's newest-good-image + suffix-replay recovery.
//
// The log numbers the transactions (Append hands the commit encoder
// its txid), counts commits and snapshots (Stats), and decides what a
// failed write means: after the first one it is wedged, and Update,
// Compact, Close and Metrics report its error (Log.Err) — the store
// keeps no failure state of its own. What this package adds is the
// two payload codecs, written over frame.Cursor, and the buckets.
//
// Durability contract: when Update returns nil, the transaction's
// frame is fsynced in the open log segment and survives kill -9.
// Recovery restores the newest good snapshot and replays only the
// post-snapshot log suffix; a torn tail on the final (still writable)
// segment is truncated, while damage anywhere else — corruption, or a
// torn frame inside a sealed segment — refuses to open rather than
// silently dropping an acknowledged commit.
//
// The in-memory representation is authoritative between commits:
// buckets hold their pairs in insertion order (deterministic
// iteration, deterministic snapshots), and the crash-point sweep in
// crash_test.go holds a recovered store DeepEqual to a never-crashed
// oracle at every possible truncation point of the log.
package jobstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/seglog"
)

// Sentinel errors.
var (
	// ErrClosed reports an operation on a closed (or aborted) store.
	ErrClosed = errors.New("jobstore: store is closed")
	// ErrTxDone reports bucket use outside its transaction's lifetime.
	ErrTxDone = errors.New("jobstore: transaction has ended")
)

// Config configures Open. Zero values take the noted defaults.
type Config struct {
	// Dir is the log + snapshot directory (required).
	Dir string
	// SealBytes seals the open log segment at this size. Default 1 MiB.
	SealBytes int64
	// CompactEvery writes a compacted snapshot once N commits are not in
	// one yet. Default 512; negative disables compaction.
	CompactEvery int64
	// RetainSnapshots keeps this many newest snapshots (and the log
	// segments they need). Default 2, minimum 1.
	RetainSnapshots int
	// Fail injects crash faults (tests only).
	Fail *Failpoints
}

func (cfg *Config) withDefaults() error {
	if cfg.Dir == "" {
		return errors.New("jobstore: Config.Dir is required")
	}
	if cfg.SealBytes <= 0 {
		cfg.SealBytes = 1 << 20
	}
	if cfg.CompactEvery == 0 {
		cfg.CompactEvery = 512
	}
	if cfg.RetainSnapshots < 1 {
		cfg.RetainSnapshots = 2
	}
	return nil
}

// RecoveryInfo reports what Open did to reach a consistent state.
// RecoveryReadBytes counts only log bytes read — the post-snapshot
// suffix — never segments the restored snapshot already subsumes.
type RecoveryInfo struct {
	RestoredTx         int64 `json:"restored_tx"` // 0 = no snapshot
	ReplayedTx         int64 `json:"replayed_tx"`
	RecoveryReadBytes  int64 `json:"recovery_read_bytes"`
	SkippedSegBytes    int64 `json:"skipped_segment_bytes"`
	TornTailsTruncated int64 `json:"torn_tails_truncated"`
	SnapshotsDiscarded int64 `json:"snapshots_discarded"`
}

// bucket is the in-memory image of one bucket: pairs in insertion
// order plus the NextSequence counter.
type bucket struct {
	keys []string
	vals map[string][]byte
	seq  uint64
}

func newBucket() *bucket {
	return &bucket{vals: make(map[string][]byte)}
}

func (b *bucket) put(k string, v []byte) {
	if _, ok := b.vals[k]; !ok {
		b.keys = append(b.keys, k)
	}
	b.vals[k] = v
}

func (b *bucket) delete(k string) {
	if _, ok := b.vals[k]; !ok {
		return
	}
	delete(b.vals, k)
	for i, kk := range b.keys {
		if kk == k {
			b.keys = append(b.keys[:i], b.keys[i+1:]...)
			break
		}
	}
}

// Store is the open store. All access goes through Update (read-write,
// serialized, durable on return) and View (read-only).
type Store struct {
	cfg Config

	mu      sync.Mutex
	log     *seglog.Log
	buckets map[string]*bucket
	names   []string // bucket creation order
	closed  bool

	// Recovery reports what Open did; immutable afterwards.
	Recovery RecoveryInfo
}

// Open recovers dir to a consistent state: restore the newest good
// snapshot (walking back past torn or corrupt ones), replay the log
// suffix behind it asserting transaction-id contiguity, truncate a
// torn tail on the final segment only, and refuse over damage anywhere
// else.
func Open(cfg Config) (*Store, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, buckets: make(map[string]*bucket)}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// getBucket returns the named bucket, creating it on first use.
func (s *Store) getBucket(name string) *bucket {
	b, ok := s.buckets[name]
	if !ok {
		b = newBucket()
		s.buckets[name] = b
		s.names = append(s.names, name)
	}
	return b
}

// Tx is one transaction's view of the store. A Tx is only valid inside
// the Update/View callback that received it.
type Tx struct {
	s        *Store
	writable bool
	done     bool
	ops      []op
}

// Bucket scopes subsequent operations to the named bucket, creating
// it on first writable use.
func (tx *Tx) Bucket(name string) *Bucket { return &Bucket{tx: tx, name: name} }

// Bucket is a named namespace of keys inside a transaction.
type Bucket struct {
	tx   *Tx
	name string
}

// Get returns the value for key, or nil if absent. The returned slice
// must not be modified.
func (b *Bucket) Get(key []byte) []byte {
	if b.tx.done {
		panic(ErrTxDone)
	}
	bk, ok := b.tx.s.buckets[b.name]
	if !ok {
		return nil
	}
	return bk.vals[string(key)]
}

// Put stores key→value. The write becomes durable when Update returns.
func (b *Bucket) Put(key, value []byte) error {
	if b.tx.done {
		return ErrTxDone
	}
	if !b.tx.writable {
		return errors.New("jobstore: Put inside View")
	}
	v := append([]byte(nil), value...)
	b.tx.s.getBucket(b.name).put(string(key), v)
	b.tx.ops = append(b.tx.ops, op{kind: opPut, bucket: b.name, key: string(key), val: v})
	return nil
}

// Delete removes key; deleting an absent key is a no-op (the
// tombstone is still logged, keeping replay order-insensitive to
// pre-state).
func (b *Bucket) Delete(key []byte) error {
	if b.tx.done {
		return ErrTxDone
	}
	if !b.tx.writable {
		return errors.New("jobstore: Delete inside View")
	}
	b.tx.s.getBucket(b.name).delete(string(key))
	b.tx.ops = append(b.tx.ops, op{kind: opDelete, bucket: b.name, key: string(key)})
	return nil
}

// NextSequence returns the bucket's next monotonic sequence number
// (1-based). The counter is durable: replay restores it exactly, so
// identifiers minted from it never repeat across restarts.
func (b *Bucket) NextSequence() (uint64, error) {
	if b.tx.done {
		return 0, ErrTxDone
	}
	if !b.tx.writable {
		return 0, errors.New("jobstore: NextSequence inside View")
	}
	bk := b.tx.s.getBucket(b.name)
	bk.seq++
	b.tx.ops = append(b.tx.ops, op{kind: opSeq, bucket: b.name, seq: bk.seq})
	return bk.seq, nil
}

// ForEach visits every pair in insertion order; returning a non-nil
// error stops the walk and surfaces it.
func (b *Bucket) ForEach(fn func(key, value []byte) error) error {
	if b.tx.done {
		return ErrTxDone
	}
	bk, ok := b.tx.s.buckets[b.name]
	if !ok {
		return nil
	}
	for _, k := range bk.keys {
		if err := fn([]byte(k), bk.vals[k]); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of live keys in the bucket.
func (b *Bucket) Len() int {
	if bk, ok := b.tx.s.buckets[b.name]; ok {
		return len(bk.keys)
	}
	return 0
}

// Update runs fn in a serialized read-write transaction. When it
// returns nil, every mutation fn made is fsynced into the log — the
// acknowledgment point. A non-nil error from fn rolls nothing back
// (the store is single-writer and fn sees its own writes), so fn must
// treat an error return as fatal to the mutation batch it attempted;
// the batch is still logged if any op was recorded. Mutating helpers
// therefore validate before writing.
func (s *Store) Update(fn func(tx *Tx) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.log.Err(); err != nil {
		return err
	}
	tx := &Tx{s: s, writable: true}
	ferr := fn(tx)
	tx.done = true
	if len(tx.ops) == 0 {
		return ferr
	}
	if _, _, _, err := s.log.Append(func(dst []byte, txid int64) []byte {
		return appendCommit(dst, txid, tx.ops)
	}); err != nil {
		return err
	}
	if ferr == nil && s.cfg.CompactEvery > 0 && s.commitsSinceSnapshot() >= s.cfg.CompactEvery {
		if err := s.compactLocked(); err != nil {
			return err
		}
	}
	return ferr
}

// commitsSinceSnapshot counts the transactions the newest snapshot
// does not hold — what a restart now would replay. Callers hold s.mu.
func (s *Store) commitsSinceSnapshot() int64 {
	at := s.log.Stats()
	return at.NextID - 1 - at.LastImage
}

// View runs fn in a read-only transaction.
func (s *Store) View(fn func(tx *Tx) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	tx := &Tx{s: s}
	err := fn(tx)
	tx.done = true
	return err
}

// Compact writes a snapshot of the full bucket state and prunes log
// segments and older snapshots it subsumes.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

// Close seals the log and closes the store. A final snapshot is
// written when commits happened since the last one, so a clean
// restart replays nothing.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.cfg.CompactEvery > 0 && s.commitsSinceSnapshot() > 0 {
		s.compactLocked() // a failure wedges the log; Close reports it
	}
	return s.log.Close()
}

// Abort simulates the process dying in place (tests): the log file is
// closed without flushing and the store refuses further use. The
// directory is left exactly as kill -9 would — reopen it with Open.
func (s *Store) Abort() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.log.Abort()
}

// Dump returns the full store contents as bucket → key → value, plus
// each bucket's sequence counter under the pseudo-key "\x00seq" when
// non-zero — the canonical comparison form the crash sweep DeepEquals
// against its oracle. Buckets and keys are sorted, so two stores with
// identical logical content dump identically regardless of the
// insertion interleaving that produced them.
func (s *Store) Dump() map[string]map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]map[string]string, len(s.buckets))
	for name, b := range s.buckets {
		if len(b.keys) == 0 && b.seq == 0 {
			continue
		}
		m := make(map[string]string, len(b.keys))
		keys := append([]string(nil), b.keys...)
		sort.Strings(keys)
		for _, k := range keys {
			m[k] = string(b.vals[k])
		}
		if b.seq != 0 {
			m["\x00seq"] = fmt.Sprintf("%d", b.seq)
		}
		out[name] = m
	}
	return out
}

// Metrics snapshots the store counters.
type Metrics struct {
	Buckets          int          `json:"buckets"`
	Commits          int64        `json:"commits_since_snapshot"`
	NextTx           int64        `json:"next_tx"`
	LogSegment       int64        `json:"log_segment"`
	LogOffset        int64        `json:"log_offset"`
	LogSyncs         int64        `json:"log_syncs"`
	LogAppendedBytes int64        `json:"log_appended_bytes"`
	Snapshots        int64        `json:"snapshots"`
	SnapshotBytes    int64        `json:"snapshot_bytes"`
	Wedged           string       `json:"wedged,omitempty"`
	Recovery         RecoveryInfo `json:"recovery"`
}

// Metrics returns the current counters.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.log.Stats()
	m := Metrics{
		Buckets:          len(s.buckets),
		Commits:          s.commitsSinceSnapshot(),
		NextTx:           st.NextID,
		LogSegment:       st.Seg,
		LogOffset:        st.Off,
		LogSyncs:         st.Syncs,
		LogAppendedBytes: st.AppendedBytes,
		Snapshots:        st.Images,
		SnapshotBytes:    st.ImageBytes,
		Recovery:         s.Recovery,
	}
	if err := s.log.Err(); err != nil {
		m.Wedged = err.Error()
	}
	return m
}
