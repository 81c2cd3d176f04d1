package sched

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strconv"
	"time"

	"repro/internal/frame"
	"repro/internal/seglog"
)

// The scheduler's state is resident — jobs, runs, limits and the id
// counters in the Scheduler's maps — and persisted as its own
// internal/seglog log, the shape the ingest WAL has: each transition
// (admit, start, finish, cancel, set limits, cron fire, recovery's
// repair of lost runs) appends one record holding exactly the rows it
// wrote, and memory takes them only once the record is durable;
// compaction writes every row as one image in the log's chain.
//
// A record payload is [id uvarint][rows bytes]: rows is one JSON
// object {"jobs":[…],"runs":[…],"limits":{org:…}}, each row in the
// Job/Run/Limits JSON the API serves. An image is two frames,
// frame([version][id][seg][off] uvarints) and frame(rows) of every
// row. Ids travel inside the rows: the job number and each org's run
// id are the largest ones written, so replay rebuilds both counters
// and an id is never minted twice.
var layout = seglog.Layout{
	Name:      "sched: job log",
	SegPrefix: "jobs-", SegExt: ".seg",
	ImgPrefix: "jobs-", ImgExt: ".img",
	ImgFrames: 2,
}

// bucketStore names the files of the bucket-store job directories
// earlier versions wrote. Open refuses such a directory instead of
// starting empty beside its jobs; there is no migrator.
var bucketStore = seglog.Layout{SegPrefix: "log-", SegExt: ".seg", ImgPrefix: "snap-", ImgExt: ".sn"}

const (
	imageVersion = 1
	sealBytes    = 1 << 20 // seal the open segment at this size
	compactEvery = 512     // write an image once this many records are not in one
	retainImages = 2       // newest images kept, with the segments they need
)

// rows are what one record writes, or all of the state in an image.
type rows struct {
	Jobs   []*Job            `json:"jobs,omitempty"`
	Runs   []*Run            `json:"runs,omitempty"`
	Limits map[string]Limits `json:"limits,omitempty"`
}

// StoreRecovery reports what recovering the job log did. ReadBytes
// counts only the log suffix behind the restored image.
type StoreRecovery struct {
	RestoredTx         int64 `json:"restored_tx"` // record id of the restored image; 0 = none
	ReplayedTx         int64 `json:"replayed_tx"`
	RecoveryReadBytes  int64 `json:"recovery_read_bytes"`
	SkippedSegBytes    int64 `json:"skipped_segment_bytes"`
	TornTailsTruncated int64 `json:"torn_tails_truncated"`
	SnapshotsDiscarded int64 `json:"snapshots_discarded"`
}

// StoreMetrics are the job log's counters.
type StoreMetrics struct {
	Commits          int64  `json:"commits_since_snapshot"`
	NextTx           int64  `json:"next_tx"`
	LogSyncs         int64  `json:"log_syncs"`
	LogAppendedBytes int64  `json:"log_appended_bytes"`
	Snapshots        int64  `json:"snapshots"`
	SnapshotBytes    int64  `json:"snapshot_bytes"`
	Wedged           string `json:"wedged,omitempty"`
}

func jobID(n uint64) string { return fmt.Sprintf("j%06d", n) }

// jobNumber is the counter value a job id was minted from.
func jobNumber(id string) (uint64, bool) {
	if len(id) < 2 || id[0] != 'j' {
		return 0, false
	}
	n, err := strconv.ParseUint(id[1:], 10, 64)
	return n, err == nil
}

// load recovers the job log into a Scheduler that has started nothing:
// the newest image that loads whole, then every record behind it.
func load(cfg Config) (*Scheduler, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	if err := refuseBucketStore(cfg.Dir); err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:     cfg,
		jobs:    make(map[string]*Job),
		runs:    make(map[string][]*Run),
		limits:  make(map[string]Limits),
		runSeq:  make(map[string]uint64),
		running: make(map[string]int),
		cancels: make(map[string]context.CancelFunc),
		active:  make(map[string]uint64),
		timers:  make(map[string]*time.Timer),
	}
	log, info, err := seglog.Recover(&layout, seglog.Options{
		Dir: cfg.Dir, SealBytes: cfg.sealBytes, Retain: cfg.retain, Fail: cfg.Fail,
	}, seglog.Replay{
		Image: func(data []byte) (seglog.ImageRef, func() error, error) {
			ref, body, err := decodeImage(data)
			// The frames verified, so rows that do not decode are a bug
			// or damage past the CRC: refuse rather than fall back.
			return ref, func() error {
				r, err := decodeRows(body)
				if err == nil {
					s.apply(r)
				}
				return err
			}, err
		},
		Record: func(p []byte) (int64, func(), error) {
			id, r, err := decodeRecord(p)
			return id, func() { s.apply(r) }, err
		},
	})
	if err != nil {
		return nil, err
	}
	s.log = log
	s.Recovery.Store = StoreRecovery{
		RestoredTx:         info.Image.ID,
		ReplayedTx:         info.Replayed,
		RecoveryReadBytes:  info.ReadBytes,
		SkippedSegBytes:    info.SkippedBytes,
		TornTailsTruncated: info.TornTails,
		SnapshotsDiscarded: info.ImagesTorn + info.ImagesCorrupt,
	}
	return s, nil
}

// refuseBucketStore fails on a directory holding bucket-store files.
// A directory that cannot be listed holds none; Recover creates it.
func refuseBucketStore(dir string) error {
	name := ""
	if segs, _ := bucketStore.Segments(dir); len(segs) > 0 {
		name = bucketStore.SegName(segs[0])
	} else if imgs, _ := bucketStore.Images(dir); len(imgs) > 0 {
		name = bucketStore.ImgName(imgs[0])
	} else {
		return nil
	}
	return fmt.Errorf("sched: %s holds %s: a bucket-store job directory, which this version does not read (start on an empty directory)", dir, name)
}

// commit appends one record of the rows a transition writes and, once
// it is durable, applies them; a failed append changes nothing in
// memory. Callers hold s.mu.
func (s *Scheduler) commit(r *rows) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if _, _, _, err := s.log.Append(func(dst []byte, id int64) []byte {
		return frame.AppendBytes(frame.AppendUvarint(dst, uint64(id)), data)
	}); err != nil {
		return err
	}
	s.apply(r)
	if s.sinceImage() >= s.cfg.compactEvery {
		s.compact() // a failure wedges the log; the next append reports it
	}
	return nil
}

// apply installs rows that are on disk — a record appended or
// replayed, or an image restored — advancing the id counters past
// every id they carry. It is the only writer of jobs, runs and limits.
func (s *Scheduler) apply(r *rows) {
	for _, j := range r.Jobs {
		s.jobs[j.ID] = j
		n, _ := jobNumber(j.ID)
		s.jobSeq = max(s.jobSeq, n)
	}
	for _, run := range r.Runs {
		rs := s.runs[run.JobID]
		if i, found := slices.BinarySearchFunc(rs, run.ID, byRunID); found {
			rs[i] = run
		} else {
			s.runs[run.JobID] = slices.Insert(rs, i, run)
		}
		s.runSeq[run.Org] = max(s.runSeq[run.Org], run.ID)
	}
	for org, l := range r.Limits {
		s.limits[org] = l.withDefaults(s.cfg.DefaultLimits)
	}
}

func byRunID(r *Run, id uint64) int { return cmp.Compare(r.ID, id) }

// run returns the resident run record; every queued or active run has one.
func (s *Scheduler) run(jobID string, runID uint64) *Run {
	rs := s.runs[jobID]
	i, _ := slices.BinarySearchFunc(rs, runID, byRunID)
	return rs[i]
}

// runIn returns a copy of the run record in state, the row a
// transition writes.
func (s *Scheduler) runIn(jobID string, runID uint64, state string) *Run {
	r := *s.run(jobID, runID)
	r.State = state
	return &r
}

// sinceImage counts the records the newest image does not hold — what
// a restart now would replay. Callers hold s.mu.
func (s *Scheduler) sinceImage() int64 {
	st := s.log.Stats()
	return st.NextID - 1 - st.LastImage
}

// compact writes every row as one image at the current log position;
// seglog prunes the images and segments it subsumes. Callers hold s.mu.
func (s *Scheduler) compact() error {
	if err := s.log.Err(); err != nil {
		return err // before the state is encoded for nothing
	}
	all := &rows{Limits: s.limits}
	for _, id := range slices.Sorted(maps.Keys(s.jobs)) {
		all.Jobs = append(all.Jobs, s.jobs[id])
	}
	for _, id := range slices.Sorted(maps.Keys(s.runs)) {
		all.Runs = append(all.Runs, s.runs[id]...)
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	at := s.log.Stats()
	ref := seglog.ImageRef{ID: at.NextID - 1, Seg: at.Seg, Off: at.Off}
	var hdr []byte
	for _, v := range []int64{imageVersion, ref.ID, ref.Seg, ref.Off} {
		hdr = frame.AppendUvarint(hdr, uint64(v))
	}
	return s.log.WriteImage(ref, frame.Append(frame.Append(nil, hdr), data))
}

// decodeRecord parses one record payload.
func decodeRecord(p []byte) (int64, *rows, error) {
	c := frame.NewCursor(p)
	id := int64(c.Uvarint())
	data := c.Bytes()
	if err := c.Done(); err != nil {
		return 0, nil, fmt.Errorf("sched: malformed record: %v", err)
	}
	r, err := decodeRows(data)
	if err != nil {
		return 0, nil, fmt.Errorf("%w (record %d)", err, id)
	}
	return id, r, nil
}

// decodeImage parses an image's header and returns its rows undecoded.
func decodeImage(b []byte) (seglog.ImageRef, []byte, error) {
	hdr, n, err := frame.Next(b)
	if err != nil {
		return seglog.ImageRef{}, nil, err
	}
	c := frame.NewCursor(hdr)
	version := c.Uvarint()
	ref := seglog.ImageRef{ID: int64(c.Uvarint()), Seg: int64(c.Uvarint()), Off: int64(c.Uvarint())}
	if err := c.Done(); err != nil {
		return ref, nil, fmt.Errorf("sched: malformed image header: %v", err)
	}
	if version != imageVersion {
		return ref, nil, fmt.Errorf("sched: image version %d (want %d)", version, imageVersion)
	}
	body, _, err := frame.Next(b[n:])
	return ref, body, err
}

// decodeRows parses rows and vets the ids they carry.
func decodeRows(data []byte) (*rows, error) {
	r := &rows{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, badRow(data, err)
	}
	for i, j := range r.Jobs {
		if j == nil {
			return nil, fmt.Errorf("sched: corrupt job record %d: null", i)
		}
		if _, ok := jobNumber(j.ID); !ok {
			return nil, fmt.Errorf("sched: corrupt job record %d: id %q", i, j.ID)
		}
	}
	for i, run := range r.Runs {
		if run == nil || run.ID == 0 || run.JobID == "" {
			return nil, fmt.Errorf("sched: corrupt run record %d: %+v", i, run)
		}
	}
	return r, nil
}

// badRow names the first row of rows that do not decode (err): the
// one-pass decode cannot say which it was.
func badRow(data []byte, err error) error {
	var raw struct {
		Jobs   []json.RawMessage          `json:"jobs"`
		Runs   []json.RawMessage          `json:"runs"`
		Limits map[string]json.RawMessage `json:"limits"`
	}
	if json.Unmarshal(data, &raw) == nil {
		for i, b := range raw.Jobs {
			if err := json.Unmarshal(b, new(Job)); err != nil {
				return fmt.Errorf("sched: corrupt job record %d: %w", i, err)
			}
		}
		for i, b := range raw.Runs {
			if err := json.Unmarshal(b, new(Run)); err != nil {
				return fmt.Errorf("sched: corrupt run record %d: %w", i, err)
			}
		}
		for org, b := range raw.Limits {
			if err := json.Unmarshal(b, new(Limits)); err != nil {
				return fmt.Errorf("sched: corrupt limits record %s: %w", org, err)
			}
		}
	}
	return fmt.Errorf("sched: corrupt rows: %w", err)
}

// clone copies r deeply enough that a caller cannot change the
// resident row through it: its Report and the Report's slices too.
func (r *Run) clone() *Run {
	c := *r
	if r.Report != nil {
		rep := *r.Report
		v := reflect.ValueOf(&rep).Elem()
		for i := range v.NumField() {
			if f := v.Field(i); f.Kind() == reflect.Slice && !f.IsNil() {
				f.Set(reflect.AppendSlice(reflect.MakeSlice(f.Type(), 0, f.Len()), f))
			}
		}
		c.Report = &rep
	}
	return &c
}
