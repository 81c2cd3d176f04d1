package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/kvenc"
	"repro/internal/mr"
)

// ErrNotIncremental reports a query that cannot run as a resident
// fold (no Init/MergeStates/Finalize decomposition).
var ErrNotIncremental = errors.New("ingest: query does not implement mr.Incremental")

// folder is the resident incremental reducer: the INC-hash fold of
// §4.2 kept alive between requests instead of inside one job. It owns
// a key→state table in insertion order (determinism: a replayed run
// touches keys in the identical order, so snapshots and answers are
// bit-identical), an early-output log for EarlyEmitter queries, and
// the query's event-time watermark.
//
// All methods take f.mu: queries keep per-instance scratch buffers
// (sessionization arenas), so folding and answer extraction must
// never interleave.
type folder struct {
	mu sync.Mutex

	queryName string
	newQuery  func() mr.Query
	q         mr.Query
	inc       mr.Incremental
	early     mr.EarlyEmitter // may be nil
	wm        mr.Watermarker  // may be nil
	scav      mr.Scavenger    // may be nil
	evict     mr.Evictor      // may be nil

	keys   []string
	states map[string][]byte
	// init() and cb() result scratch: a state the table keeps is copied
	// out (into the key's previous state when it has the room).
	st, merged []byte

	outLog   []byte // early/scavenged outputs, bytestore pair encoding
	outPairs int64

	scanEvery int64 // scavenge cadence in folded records; <=0 disables
	sinceScan int64

	watermark     int64
	foldedBatches int64 // last folded batch seq
	foldedRecords int64
	scavenged     int64 // keys retired by the scavenger

	out mr.OutputWriter // appends to outLog
}

func newFolder(name string, newQuery func() mr.Query, scanEvery int64) (*folder, error) {
	f := &folder{
		queryName: name,
		newQuery:  newQuery,
		states:    make(map[string][]byte),
		scanEvery: scanEvery,
	}
	f.out = mr.FuncOutput(func(k, v []byte) {
		f.outLog = kvenc.AppendPair(f.outLog, k, v)
		f.outPairs++
	})
	if err := f.reset(); err != nil {
		return nil, err
	}
	return f, nil
}

// reset discards all state and instantiates a fresh query.
func (f *folder) reset() error {
	f.q = f.newQuery()
	inc, ok := f.q.(mr.Incremental)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotIncremental, f.q.Name())
	}
	f.inc = inc
	f.early, _ = f.q.(mr.EarlyEmitter)
	f.wm, _ = f.q.(mr.Watermarker)
	f.scav, _ = f.q.(mr.Scavenger)
	f.evict, _ = f.q.(mr.Evictor)
	f.keys = f.keys[:0]
	f.states = make(map[string][]byte)
	f.outLog = nil
	f.outPairs = 0
	f.sinceScan = 0
	f.watermark = 0
	f.foldedBatches = 0
	f.foldedRecords = 0
	f.scavenged = 0
	return nil
}

// fold applies one batch. The caller guarantees batches arrive in seq
// order; replay and live ingestion share this path, which is what
// makes recovered answers bit-identical.
func (f *folder) fold(seq int64, records [][]byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, rec := range records {
		if f.wm != nil {
			ts := f.wm.RecordTime(rec)
			f.wm.AdvanceWatermark(ts)
			if ts > f.watermark {
				f.watermark = ts
			}
		}
		f.q.Map(rec, f.emit)
		f.foldedRecords++
		if f.scanEvery > 0 {
			f.sinceScan++
			if f.sinceScan >= f.scanEvery {
				f.sinceScan = 0
				f.scavenge()
			}
		}
	}
	f.foldedBatches = seq
}

// emit receives one map-output pair and folds it into the table.
func (f *folder) emit(k, v []byte) {
	f.st = f.inc.Init(f.st[:0], k, v)
	var st []byte
	if prev, ok := f.states[string(k)]; ok {
		st = append(prev[:0], mr.MergeInto(f.inc, &f.merged, k, prev, f.st)...)
	} else {
		f.keys = append(f.keys, string(k))
		st = bytes.Clone(f.st)
	}
	if f.early != nil {
		st = f.early.TryEmit(k, st, f.out)
	}
	f.states[string(k)] = st
}

// scavenge retires completed states in key insertion order (the
// deterministic analogue of DINC-hash's periodic zero-count scan).
func (f *folder) scavenge() {
	if f.scav == nil {
		return
	}
	kept := f.keys[:0]
	for _, k := range f.keys {
		st := f.states[k]
		if !f.scav.Scavenge([]byte(k), st) {
			kept = append(kept, k)
			continue
		}
		if f.evict == nil || !f.evict.OnEvict([]byte(k), st, f.out) {
			f.inc.Finalize([]byte(k), st, f.out)
		}
		delete(f.states, k)
		f.scavenged++
	}
	f.keys = kept
}

// snapshot captures the fold as a checkpoint (WAL position left for
// the caller). The image reuses core.StateImage: Table carries the
// key→state pairs in insertion order, bucket 0 carries the early
// output log, and the progress counters ride in the image's counter
// slots so no second codec exists to drift.
func (f *folder) snapshot() *checkpoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	img := &core.StateImage{
		TableKeys: len(f.keys),
		Received:  f.foldedRecords,
		DirectOut: f.scavenged,
		SinceScan: f.sinceScan,
	}
	for _, k := range f.keys {
		img.Table = kvenc.AppendPair(img.Table, []byte(k), f.states[k])
	}
	img.Log, img.LogPairs = append([]byte(nil), f.outLog...), f.outPairs
	return &checkpoint{
		Seq:       f.foldedBatches,
		Watermark: f.watermark,
		Img:       img,
	}
}

// restore replaces the fold with a checkpoint's contents.
func (f *folder) restore(ck *checkpoint) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.reset(); err != nil {
		return err
	}
	img := ck.Img
	it := kvenc.NewIterator(img.Table)
	for k, st, ok := it.Next(); ok; k, st, ok = it.Next() {
		ks := string(k)
		f.keys = append(f.keys, ks)
		f.states[ks] = append([]byte(nil), st...)
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("%w: table: %w", ErrBadCheckpoint, err)
	}
	if len(f.keys) != img.TableKeys {
		return fmt.Errorf("%w: table has %d keys, image claims %d", ErrBadCheckpoint, len(f.keys), img.TableKeys)
	}
	f.outLog, f.outPairs = append([]byte(nil), img.Log...), img.LogPairs
	f.foldedRecords = img.Received
	f.scavenged = img.DirectOut
	f.sinceScan = img.SinceScan
	f.foldedBatches = ck.Seq
	f.watermark = ck.Watermark
	if f.wm != nil {
		f.wm.AdvanceWatermark(f.watermark)
	}
	return nil
}

// Answer is one served result pair.
type Answer struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Stats is the full served answer set plus the counters that qualify
// it. Gamma is the DINC coverage estimate reinterpreted for a service
// (§4.3): the fraction of acknowledged input the served answer has
// folded — 1.0 means the answer is exact for everything acknowledged.
type Stats struct {
	Query         string   `json:"query"`
	Gamma         float64  `json:"gamma"`
	Watermark     int64    `json:"watermark"`
	AckedBatches  int64    `json:"acked_batches"`
	AckedRecords  int64    `json:"acked_records"`
	FoldedBatches int64    `json:"folded_batches"`
	FoldedRecords int64    `json:"folded_records"`
	Keys          int      `json:"keys"`
	EarlyEmitted  int64    `json:"early_emitted"`
	ScavengedKeys int64    `json:"scavenged_keys"`
	TotalAnswers  int      `json:"total_answers"`
	Answers       []Answer `json:"answers,omitempty"`
}

// stats assembles the current answers: the early-output log plus each
// live key finalized on a copy of its state (Finalize may mutate), in
// stable key order. limit > 0 truncates Answers (TotalAnswers keeps
// the full count); limit < 0 omits them entirely.
func (f *folder) stats(limit int) Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := Stats{
		Query:         f.queryName,
		Watermark:     f.watermark,
		FoldedBatches: f.foldedBatches,
		FoldedRecords: f.foldedRecords,
		Keys:          len(f.keys),
		EarlyEmitted:  f.outPairs,
		ScavengedKeys: f.scavenged,
	}
	if limit < 0 {
		return s
	}
	ans := make([]Answer, 0, int(f.outPairs)+len(f.keys))
	it := kvenc.NewIterator(f.outLog)
	for k, v, ok := it.Next(); ok; k, v, ok = it.Next() {
		ans = append(ans, Answer{Key: string(k), Value: string(v)})
	}
	if err := it.Err(); err != nil {
		panic(fmt.Errorf("ingest: corrupt pairs in the early-output log: %w", err))
	}
	collect := mr.FuncOutput(func(k, v []byte) {
		ans = append(ans, Answer{Key: string(k), Value: string(v)})
	})
	for _, k := range f.keys {
		st := append([]byte(nil), f.states[k]...)
		f.inc.Finalize([]byte(k), st, collect)
	}
	sort.SliceStable(ans, func(i, j int) bool { return ans[i].Key < ans[j].Key })
	s.TotalAnswers = len(ans)
	if limit > 0 && len(ans) > limit {
		ans = ans[:limit]
	}
	s.Answers = ans
	return s
}
