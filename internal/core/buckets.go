package core

import (
	"fmt"

	"repro/internal/bytestore"
	"repro/internal/hashfam"
	"repro/internal/kvenc"
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

// snapshot takes every bucket as it stands, with its pair count: the
// flushed file by reference, verified (storage.Store.Take), and a copy
// of the write-buffer tail behind it. No I/O is charged: the caller
// accounts the checkpoint transfer itself.
func (b *bucketSet) snapshot() []BucketRef {
	refs := make([]BucketRef, len(b.bufs))
	for i, buf := range b.bufs {
		refs[i] = BucketRef{b.rt.Store.Take(b.files[i], buf.Bytes(), b.class), b.filePairs[i] + int64(buf.Len())}
	}
	return refs
}

// restore rematerializes a snapshot into this (fresh) bucket set,
// giving each non-empty bucket's bytes to a fresh file as one spill
// write — the recovered reducer's re-created scratch state. Write
// buffers start empty (the snapshot folded them into the file image).
func (b *bucketSet) restore(refs []BucketRef) {
	if len(refs) != len(b.bufs) {
		panic("core: bucket snapshot arity mismatch")
	}
	for i, ref := range refs {
		if ref.Bytes.Len() == 0 {
			continue
		}
		b.files[i] = b.rt.Store.Create(fmt.Sprintf("%s.bucket%d", b.prefix, i), b.class)
		b.rt.Store.Give(b.rt.P, b.files[i], ref.Bytes, b.class)
		b.filePairs[i] = ref.Pairs
		b.spilledPairs += ref.Pairs
		b.spilledBytes += ref.Bytes.Len()
	}
}

// bucketPass is what a hash reducer's bucket passes are sized by: its
// file prefix, memory budget, write-buffer page and read segment.
type bucketPass struct {
	prefix               string
	memBudget, page, seg int64
}

// maxSplitDepth caps recursive repartitioning, counted from level 4.
const maxSplitDepth = 8

// split partitions an oversized bucket's pairs over sub-buckets of the
// level-th hash function, sized to fit memBudget, and drains each
// through fn.
func (b bucketPass) split(rt *Runtime, level int, data []byte, fn func(data []byte)) {
	sub := newBucketSet(rt, storage.ReduceSpill, fmt.Sprintf("%s.l%d", b.prefix, level),
		bucketCount(int64(len(data)), b.memBudget, 64), b.page, level)
	it := kvenc.NewIterator(data)
	for key, val, ok := it.Next(); ok; key, val, ok = it.Next() {
		sub.add(key, val)
	}
	mustDecode(it.Err(), b.prefix, "bucket")
	sub.flushAll()
	sub.drain(b.seg, fn)
}

// bucketCount sizes a bucket set so each bucket's data is expected to
// fit in memory: at least expectedBytes/memBudget buckets with a 25%
// safety factor, clamped to [1, maxBuckets].
func bucketCount(expectedBytes, memBudget int64, maxBuckets int) int {
	if memBudget <= 0 {
		return maxBuckets
	}
	return min(max(int((expectedBytes*5/4+memBudget-1)/memBudget), 1), maxBuckets)
}
