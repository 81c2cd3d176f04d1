package ingest

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bytestore"
	"repro/internal/core"
	"repro/internal/hashfam"
	"repro/internal/kvenc"
	"repro/internal/mr"
)

// ErrNotIncremental reports a query that cannot run as a resident
// fold (no Init/MergeStates/Finalize decomposition).
var ErrNotIncremental = errors.New("ingest: query does not implement mr.Incremental")

// folder is the resident incremental reducer: the INC-hash fold of
// §4.2 kept alive between requests instead of inside one job. It owns
// INC-hash's key→state table, uncapped (ingest sheds once the fold fills
// the daemon's budget) and in insertion order (a replayed run touches
// keys in the identical order, so snapshots and answers are
// bit-identical), an early-output log for EarlyEmitter queries, and the
// query's event-time watermark.
//
// All methods take f.mu: queries keep per-instance scratch buffers
// (sessionization arenas), so folding and answer extraction must
// never interleave.
type folder struct {
	mu sync.Mutex

	queryName string
	q         mr.Query
	inc       mr.Incremental
	early     mr.EarlyEmitter // may be nil
	wm        mr.Watermarker  // may be nil
	scav      mr.Scavenger    // may be nil
	evict     mr.Evictor      // may be nil

	table *bytestore.Table
	emit  func(k, v []byte) // foldPair, bound once: a method value per Map call allocates
	// init() and cb() result scratch: the table copies what it keeps.
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
	q := newQuery()
	inc, ok := q.(mr.Incremental)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotIncremental, q.Name())
	}
	f := &folder{queryName: name, q: q, inc: inc, table: newFoldTable(), scanEvery: scanEvery}
	f.early, _ = q.(mr.EarlyEmitter)
	f.wm, _ = q.(mr.Watermarker)
	f.scav, _ = q.(mr.Scavenger)
	f.evict, _ = q.(mr.Evictor)
	f.emit = f.foldPair
	f.out = mr.FuncOutput(func(k, v []byte) {
		f.outLog = kvenc.AppendPair(f.outLog, k, v)
		f.outPairs++
	})
	return f, nil
}

// foldHash places the fold's keys in its table. The table iterates in
// insertion order, so the function moves no answer or checkpoint byte.
var foldHash = hashfam.NewFamily(0).Fn(0)

func newFoldTable() *bytestore.Table { return bytestore.NewTable(foldHash, 0) }

// size is the fold's table and early-output log bytes; without f.mu.
func (f *folder) size() (table, log int64) { return f.table.SizeBytes(), int64(len(f.outLog)) }

// charge is what admitting records may cost: their bytes, and the most
// their fold can grow the table, each key of their map output new, with
// a slot of its first initial state or StateSize. Map and Init do not
// write the query, so it runs beside the fold without f.mu.
func (f *folder) charge(records [][]byte) (n int64) {
	var st []byte
	seen := map[string]bool{}
	add := func(k, v []byte) {
		if seen[string(k)] {
			return
		}
		seen[string(k)] = true
		st = f.inc.Init(st[:0], k, v)
		n += bytestore.EntryBytes(len(k), max(len(st), f.inc.StateSize()))
	}
	for _, rec := range records {
		n += int64(len(rec))
		f.q.Map(rec, add)
	}
	return n
}

// fold applies one batch and returns how far it grew the fold's table
// (negative when the scavenger freed more) and its early-output log.
// The caller guarantees batches arrive in seq order; replay and live
// ingestion share this path, which is what makes recovered answers
// bit-identical.
func (f *folder) fold(seq int64, records [][]byte) (table, log int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	table, log = f.size()
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
	t, l := f.size()
	return t - table, l - log
}

// foldPair receives one map-output pair and folds it into the table.
func (f *folder) foldPair(k, v []byte) {
	f.st = f.inc.Init(f.st[:0], k, v)
	st, slot, _ := core.FoldState(f.table, f.inc, &f.merged, k, f.st)
	if f.early != nil {
		st = f.early.TryEmit(k, st, f.out)
	}
	f.table.SetState(slot, st)
}

// scavenge retires completed states in key insertion order (the
// deterministic analogue of DINC-hash's periodic zero-count scan). The
// table cannot delete a key, so when a state retires, the states it
// keeps are copied, in order, into a fresh table; a first pass that
// only asks spares the copy when none does.
func (f *folder) scavenge() {
	retires := false
	if f.scav != nil {
		f.table.Range(func(k, st []byte, _ func(func([]byte))) bool {
			retires = f.scav.Scavenge(k, st)
			return !retires
		})
	}
	if !retires {
		return
	}
	kept := newFoldTable()
	f.table.Range(func(k, st []byte, _ func(func([]byte))) bool {
		if !f.scav.Scavenge(k, st) {
			core.FoldState(kept, f.inc, &f.merged, k, st)
			return true
		}
		if f.evict == nil || !f.evict.OnEvict(k, st, f.out) {
			f.inc.Finalize(k, st, f.out)
		}
		f.scavenged++
		return true
	})
	f.table.Release()
	f.table = kept
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
		Table:     f.table.AppendStates(nil),
		TableKeys: f.table.Len(),
		Received:  f.foldedRecords,
		DirectOut: f.scavenged,
		SinceScan: f.sinceScan,
	}
	img.Log, img.LogPairs = append([]byte(nil), f.outLog...), f.outPairs
	return &checkpoint{
		Seq:       f.foldedBatches,
		Watermark: f.watermark,
		Img:       img,
	}
}

// restore loads a checkpoint's contents into a fresh fold.
func (f *folder) restore(ck *checkpoint) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	img := ck.Img
	it := kvenc.NewIterator(img.Table)
	for k, st, ok := it.Next(); ok; k, st, ok = it.Next() {
		core.FoldState(f.table, f.inc, &f.merged, k, st)
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("%w: table: %w", ErrBadCheckpoint, err)
	}
	if f.table.Len() != img.TableKeys {
		return fmt.Errorf("%w: table has %d keys, image claims %d", ErrBadCheckpoint, f.table.Len(), img.TableKeys)
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
		Keys:          f.table.Len(),
		EarlyEmitted:  f.outPairs,
		ScavengedKeys: f.scavenged,
	}
	if limit < 0 {
		return s
	}
	ans := make([]Answer, 0, int(f.outPairs)+f.table.Len())
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
	f.table.Range(func(k, st []byte, _ func(func([]byte))) bool {
		f.inc.Finalize(k, append([]byte(nil), st...), collect)
		return true
	})
	sort.SliceStable(ans, func(i, j int) bool { return ans[i].Key < ans[j].Key })
	s.TotalAnswers = len(ans)
	if limit > 0 && len(ans) > limit {
		ans = ans[:limit]
	}
	s.Answers = ans
	return s
}
