package core

import (
	"fmt"

	"repro/internal/bytestore"
	"repro/internal/hashfam"
	"repro/internal/storage"
)

// bucketSet is the disk half of the hash reducers: n on-disk buckets,
// each fronted by a write buffer of one page that is flushed when full
// ("other buckets are streamed out to disks as their write buffers
// fill up", §4.1). Keys are assigned to buckets by an independent hash
// function of the family (h3, h4, …).
type bucketSet struct {
	rt     *Runtime
	class  storage.IOClass
	prefix string
	h      hashfam.Func
	page   int64
	bufs   []*bytestore.KVBuffer
	files  []*storage.File
	// filePairs counts pairs already flushed into each bucket file
	// (checkpoint images need per-bucket pair counts without a rescan).
	filePairs []int64

	spilledPairs int64
	spilledBytes int64
}

// newBucketSet creates n buckets hashed by the level-th family
// function, with one write-buffer page each.
func newBucketSet(rt *Runtime, class storage.IOClass, prefix string, n int, page int64, level int) *bucketSet {
	if n < 1 {
		n = 1
	}
	b := &bucketSet{
		rt:        rt,
		class:     class,
		prefix:    prefix,
		h:         rt.Fam.Fn(level),
		page:      page,
		bufs:      make([]*bytestore.KVBuffer, n),
		files:     make([]*storage.File, n),
		filePairs: make([]int64, n),
	}
	for i := range b.bufs {
		b.bufs[i] = bytestore.NewKVBuffer(page)
	}
	return b
}

// memoryBytes returns the write-buffer memory footprint (h pages).
func (b *bucketSet) memoryBytes() int64 { return int64(len(b.bufs)) * b.page }

// bucketOf returns the bucket index for a key.
func (b *bucketSet) bucketOf(key []byte) int { return b.h.Bucket(key, len(b.bufs)) }

// add routes the pair to its bucket's write buffer, flushing to disk
// when the page fills.
func (b *bucketSet) add(key, val []byte) {
	b.addTo(b.bucketOf(key), key, val)
}

// addTo places the pair in a specific bucket (used when the caller has
// already computed the bucket, e.g. MR-hash's demoted bucket 0).
func (b *bucketSet) addTo(i int, key, val []byte) {
	b.spilledPairs++
	if !b.bufs[i].Append(key, val) {
		b.flush(i)
		b.bufs[i].Append(key, val)
	}
}

// flush writes bucket i's buffer to its file.
func (b *bucketSet) flush(i int) {
	buf := b.bufs[i]
	if buf.Len() == 0 {
		return
	}
	if b.files[i] == nil {
		b.files[i] = b.rt.Store.Create(fmt.Sprintf("%s.bucket%d", b.prefix, i), b.class)
	}
	b.rt.Store.Append(b.rt.P, b.files[i], buf.Bytes(), b.class)
	b.spilledBytes += buf.SizeBytes()
	b.filePairs[i] += int64(buf.Len())
	buf.Reset()
}

// flushAll drains every write buffer to disk.
func (b *bucketSet) flushAll() {
	for i := range b.bufs {
		b.flush(i)
	}
}

// drain reads each non-empty bucket back in order (charging I/O) and
// hands its encoded pairs to fn, then deletes the file. The pairs are
// the read's lent view of the file, which Delete recycles: they are
// valid only until fn returns. flushAll must have been called first.
func (b *bucketSet) drain(segment int64, fn func(data []byte)) {
	for i, f := range b.files {
		if f == nil {
			continue
		}
		fn(b.rt.Store.ReadAll(b.rt.P, f, segment, b.class))
		b.rt.Store.Delete(f)
		b.files[i] = nil
	}
}

// snapshot returns a deep copy of every bucket's cumulative contents —
// flushed file bytes followed by the still-buffered page — plus the
// pair count per bucket. No I/O is charged: the caller accounts the
// checkpoint transfer itself. Each bucket file is read through the
// store, which re-verifies its frames first (panicking
// storage.Corruption on damage, which aborts the attempt): otherwise a
// flipped bit on disk would be folded into the checkpoint image and
// re-framed with a fresh, valid checksum — corruption laundering.
func (b *bucketSet) snapshot() (data [][]byte, pairs []int64) {
	data = make([][]byte, len(b.bufs))
	pairs = make([]int64, len(b.bufs))
	for i := range b.bufs {
		var d []byte
		if f := b.files[i]; f != nil {
			d = b.rt.Store.Contents(f, b.class)
		}
		d = append(d, b.bufs[i].Bytes()...)
		data[i] = d
		pairs[i] = b.filePairs[i] + int64(b.bufs[i].Len())
	}
	return data, pairs
}

// restore rematerializes a snapshot into this (fresh) bucket set,
// writing each non-empty bucket's bytes back to local disk as a spill
// — the recovered reducer's re-created scratch state. Write buffers
// start empty (the snapshot folded them into the file image).
func (b *bucketSet) restore(data [][]byte, pairs []int64) {
	if len(data) != len(b.bufs) {
		panic("core: bucket snapshot arity mismatch")
	}
	for i, d := range data {
		if len(d) == 0 {
			continue
		}
		b.files[i] = b.rt.Store.Create(fmt.Sprintf("%s.bucket%d", b.prefix, i), b.class)
		b.rt.Store.Append(b.rt.P, b.files[i], d, b.class)
		b.filePairs[i] = pairs[i]
		b.spilledPairs += pairs[i]
		b.spilledBytes += int64(len(d))
	}
}

// bucketCount sizes a bucket set so each bucket's data is expected to
// fit in memory: at least expectedBytes/memBudget buckets with a 25%
// safety factor, clamped to [1, maxBuckets].
func bucketCount(expectedBytes, memBudget int64, maxBuckets int) int {
	if memBudget <= 0 {
		return maxBuckets
	}
	n := int((expectedBytes*5/4 + memBudget - 1) / memBudget)
	if n < 1 {
		n = 1
	}
	if n > maxBuckets {
		n = maxBuckets
	}
	return n
}
