package sched

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/jobstore"
)

// Bucket schema inside the embedded job store. Compound keys join
// components with '\x00' (never present in ids), so a prefix scan walks
// one job's runs without touching its neighbors.
//
//	jobs        job-id → Job JSON
//	limits      org → Limits JSON
//	runs        job-id \x00 %016d(run-id) → Run JSON
//	jobseq      (sequence only) global job numbers
//	runseq/<org> (sequence only) per-org run ids — strictly monotonic
//	             across restarts because the counter is replayed
const (
	bucketJobs   = "jobs"
	bucketLimits = "limits"
	bucketRuns   = "runs"
	bucketJobSeq = "jobseq"
	runSeqPrefix = "runseq/"
)

const keySep = "\x00"

func runKey(jobID string, runID uint64) []byte {
	return []byte(fmt.Sprintf("%s%s%016d", jobID, keySep, runID))
}

// putJob writes the job record.
func putJob(tx *jobstore.Tx, j *Job) error {
	data, err := json.Marshal(j)
	if err != nil {
		return err
	}
	return tx.Bucket(bucketJobs).Put([]byte(j.ID), data)
}

func putRun(tx *jobstore.Tx, r *Run) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return tx.Bucket(bucketRuns).Put(runKey(r.JobID, r.ID), data)
}

// getRun reads one run record by its key; its siblings are not touched.
func getRun(tx *jobstore.Tx, jobID string, runID uint64) (*Run, error) {
	data := tx.Bucket(bucketRuns).Get(runKey(jobID, runID))
	if data == nil {
		return nil, fmt.Errorf("sched: run %d of %s not persisted", runID, jobID)
	}
	var r Run
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("sched: corrupt run record %d of %s: %w", runID, jobID, err)
	}
	return &r, nil
}

// forEachRun visits, in the order they were first persisted, the runs
// whose key starts with prefix: jobID+keySep for one job's, "" for all.
func forEachRun(tx *jobstore.Tx, prefix string, fn func(*Run) error) error {
	return tx.Bucket(bucketRuns).ForEach(func(k, v []byte) error {
		if !strings.HasPrefix(string(k), prefix) {
			return nil
		}
		var r Run
		if err := json.Unmarshal(v, &r); err != nil {
			return fmt.Errorf("sched: corrupt run record %s: %w", k, err)
		}
		return fn(&r)
	})
}

// forEachJob visits every job.
func forEachJob(tx *jobstore.Tx, fn func(*Job) error) error {
	return tx.Bucket(bucketJobs).ForEach(func(_, v []byte) error {
		var j Job
		if err := json.Unmarshal(v, &j); err != nil {
			return fmt.Errorf("sched: corrupt job record: %w", err)
		}
		return fn(&j)
	})
}

// forEachLimits visits every org's persisted limits. An undecodable
// record refuses, as a job or run record does.
func forEachLimits(tx *jobstore.Tx, fn func(org string, l Limits)) error {
	return tx.Bucket(bucketLimits).ForEach(func(k, v []byte) error {
		var l Limits
		if err := json.Unmarshal(v, &l); err != nil {
			return fmt.Errorf("sched: corrupt limits record %s: %w", k, err)
		}
		fn(string(k), l)
		return nil
	})
}

func putLimits(tx *jobstore.Tx, org string, l Limits) error {
	data, err := json.Marshal(l)
	if err != nil {
		return err
	}
	return tx.Bucket(bucketLimits).Put([]byte(org), data)
}

func nextJobID(tx *jobstore.Tx) (string, error) {
	n, err := tx.Bucket(bucketJobSeq).NextSequence()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("j%06d", n), nil
}

func nextRunID(tx *jobstore.Tx, org string) (uint64, error) {
	return tx.Bucket(runSeqPrefix + org).NextSequence()
}
