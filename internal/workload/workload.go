// Package workload synthesizes the paper's two evaluation datasets at
// configurable scale:
//
//   - a click stream standing in for the WorldCup'98 log (§2.3, §6):
//     Zipf-distributed user ids and URLs, monotonically increasing
//     timestamps with bounded jitter — the properties sessionization,
//     click counting, frequent-user identification and page-frequency
//     counting depend on;
//   - a document corpus standing in for GOV2 (§6): lines of
//     Zipf-distributed words for trigram counting, with a much flatter
//     key distribution than user ids (the property behind the paper's
//     Fig 7(f) observation that DINC ≈ INC for trigrams).
//
// Generators implement dfs.Input: chunk i is synthesized on demand
// from (seed, i), so a run never materializes the whole dataset and
// two runs always see identical bytes. A chunk costs O(records): its
// draws are one PCG stream seeded in constant time, Zipf ids come from
// alias tables (sample.go), and a record is a copy of a template with
// its fixed-width digit fields filled in place.
package workload

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"time"
)

// layout is the chunk geometry the two generators share: fixed-size
// records, recsChunk of them to a chunk, the last chunk short.
type layout struct {
	name                string
	recBytes, recsChunk int
	totalRecs           int64
}

// newLayout fits records of recBytes into physBytes of data, chunkPhys
// to a chunk.
func newLayout(name string, physBytes, chunkPhys int64, recBytes int) layout {
	if physBytes <= 0 || chunkPhys <= 0 {
		panic("workload: need positive sizes")
	}
	return layout{name, recBytes, max(int(chunkPhys)/recBytes, 1), max(physBytes/int64(recBytes), 1)}
}

// Name implements dfs.Input.
func (l *layout) Name() string { return l.name }

// NumChunks implements dfs.Input.
func (l *layout) NumChunks() int {
	return int((l.totalRecs + int64(l.recsChunk) - 1) / int64(l.recsChunk))
}

// RecordBytes returns the fixed physical record size.
func (l *layout) RecordBytes() int { return l.recBytes }

// TotalRecords returns the number of records (lines) in the input.
func (l *layout) TotalRecords() int64 { return l.totalRecs }

// span returns chunk i's first record and how many records it holds.
func (l *layout) span(i int) (first, n int64) {
	if i < 0 || i >= l.NumChunks() {
		panic(fmt.Sprintf("workload: chunk %d out of range", i))
	}
	first = int64(i) * int64(l.recsChunk)
	return first, min(int64(l.recsChunk), l.totalRecs-first)
}

// ClickSpec configures a synthetic click stream.
type ClickSpec struct {
	PhysBytes int64 // total physical bytes to generate
	ChunkPhys int64 // physical chunk size (the scaled C)
	Seed      int64

	Users    int     // distinct user pool size
	UserSkew float64 // Zipf s for users (>1; higher = more skew)
	UserV    float64 // Zipf v offset: higher softens the head (0 = 256)
	URLs     int     // distinct URL pool size
	URLSkew  float64 // Zipf s for URLs
	URLV     float64 // Zipf v offset for URLs (0 = 16)

	// Duration is the logical time span of the stream; timestamps
	// advance uniformly across it. It controls how many 5-minute
	// session gaps occur.
	Duration time.Duration
	// Jitter bounds timestamp disorder (arrival time vs event time).
	Jitter time.Duration

	// Pad is the agent-padding length in bytes (record-shape knob: it
	// sets the fixed record size without touching any parsed field).
	// 0 keeps the default 32-byte padding, preserving the historical
	// byte-exact record layout.
	Pad int
}

// DefaultClickSpec returns a spec with WorldCup-like shape for the
// given physical size and chunk size.
func DefaultClickSpec(physBytes, chunkPhys int64, seed int64) ClickSpec {
	return ClickSpec{
		PhysBytes: physBytes,
		ChunkPhys: chunkPhys,
		Seed:      seed,
		Users:     200_000,
		UserSkew:  1.2,
		UserV:     256,
		URLs:      20_000,
		URLSkew:   1.3,
		URLV:      16,
		Duration:  24 * time.Hour,
		Jitter:    2 * time.Second,
	}
}

// ClickStream is a dfs.Input of click records. A record is a single
// ~100-byte line:
//
//	ts<TAB>user<TAB>url<TAB>status<TAB>bytes<TAB>agent-padding
//
// with ts in fixed-width epoch milliseconds so string order is time
// order.
type ClickStream struct {
	layout
	spec ClickSpec
	tmpl []byte // one record, status 200, every other digit field zero

	// The samplers are built by the first chunk asked for, so a spec
	// that is only validated never pays for them.
	tables      sync.Once
	users, urls []aliasSlot
}

// The widest pools and time span a record's fixed-width fields hold;
// past them records would outgrow RecordBytes. MaxUsers is exported for
// the catalogue, whose user pool is its caller's.
const (
	MaxUsers  = 10_000_000         // u%07d
	maxURLs   = 1_000_000          // /p%06d.html
	maxVocab  = 1_000_000          // w%06d
	maxMillis = 10_000_000_000_000 // %013d
)

// Where a click record's digit fields sit (internal/queries parses the
// first two at these offsets), its default agent padding, and each
// generator's odd constant that spreads chunk numbers over a stream's
// seed.
const (
	clickTsEnd                 = 13
	clickUserOff, clickUserEnd = 15, 22
	clickURLOff, clickURLEnd   = 25, 31
	clickStatusOff             = 37
	clickSizeOff, clickSizeEnd = 41, 45

	clickPad           = "Mozilla/4.0-compatible-padpadpad"
	clickSalt, docSalt = 0x5851f42d4c957f2d, 0x2545f4914f6cdd1d
)

// NewClickStream builds the generator for a spec. It panics on sizes
// that are not positive and on a pool or a time span whose ids or
// timestamps would outgrow the record's fixed-width fields.
func NewClickStream(spec ClickSpec) *ClickStream {
	if spec.Users < 1 || spec.Users > MaxUsers || spec.URLs < 1 || spec.URLs > maxURLs ||
		spec.Duration.Milliseconds()+max(spec.Jitter, 0).Milliseconds() >= maxMillis {
		panic(fmt.Sprintf("workload: %d users, %d URLs or %v ± %v do not fit the click record's fields", spec.Users, spec.URLs, spec.Duration, spec.Jitter))
	}
	// The agent padding is the default string, truncated or repeated to
	// spec.Pad bytes: every parsed field keeps its offset.
	pad := clickPad
	if spec.Pad > 0 {
		pad = strings.Repeat(clickPad, spec.Pad/len(clickPad)+1)[:spec.Pad]
	}
	tmpl := fmt.Appendf(nil, "%013d\tu%07d\t/p%06d.html\t200\t%04d\t%s\n", 0, 0, 0, 0, pad)
	return &ClickStream{layout: newLayout("clickstream", spec.PhysBytes, spec.ChunkPhys, len(tmpl)), spec: spec, tmpl: tmpl}
}

// ChunkBytes implements dfs.Input. Safe for concurrent use.
func (c *ClickStream) ChunkBytes(i int) []byte {
	first, n := c.span(i)
	c.tables.Do(func() {
		c.users = newZipfTable(c.spec.UserSkew, c.spec.UserV, 256, c.spec.Users)
		c.urls = newZipfTable(c.spec.URLSkew, c.spec.URLV, 16, c.spec.URLs)
	})
	var r stream
	r.Seed(uint64(c.spec.Seed), uint64(i+1)*clickSalt)
	out := make([]byte, int(n)*len(c.tmpl))
	perRec := float64(c.spec.Duration.Milliseconds()) / float64(c.totalRecs)
	jitter := max(c.spec.Jitter, 0).Milliseconds()
	for g, rec := first, out; len(rec) > 0; g, rec = g+1, rec[len(c.tmpl):] {
		copy(rec, c.tmpl)
		ts := int64(float64(g)*perRec) + int64(r.below(uint64(2*jitter+1))) - jitter
		putDigits(rec[:clickTsEnd], uint64(max(ts, 0)))
		putDigits(rec[clickUserOff:clickUserEnd], r.pick(c.users))
		putDigits(rec[clickURLOff:clickURLEnd], r.pick(c.urls))
		if r.below(50) == 0 {
			copy(rec[clickStatusOff:], "404")
		}
		putDigits(rec[clickSizeOff:clickSizeEnd], 100+r.below(9900))
	}
	return out
}

// DocSpec configures a synthetic document corpus.
type DocSpec struct {
	PhysBytes int64
	ChunkPhys int64
	Seed      int64

	Vocab    int     // vocabulary size
	WordSkew float64 // Zipf s for words (close to 1 = flat)
	WordV    float64 // Zipf v offset: higher softens the head (0 = 64)
	DocWords int     // words per document line
}

// DefaultDocSpec returns a GOV2-like corpus spec.
func DefaultDocSpec(physBytes, chunkPhys int64, seed int64) DocSpec {
	return DocSpec{
		PhysBytes: physBytes,
		ChunkPhys: chunkPhys,
		Seed:      seed,
		Vocab:     50_000,
		WordSkew:  1.05,
		DocWords:  12,
	}
}

// DocCorpus is a dfs.Input of document lines ("w000123 w004567 …").
type DocCorpus struct {
	layout
	spec DocSpec
	tmpl []byte // one line, every word w000000

	tables sync.Once
	words  []aliasSlot
}

// NewDocCorpus builds the generator for a spec.
func NewDocCorpus(spec DocSpec) *DocCorpus {
	if spec.Vocab < 3 || spec.Vocab > maxVocab || spec.DocWords < 3 {
		panic(fmt.Sprintf("workload: need a vocabulary in [3, %d] and ≥3 words per doc", maxVocab))
	}
	tmpl := bytes.Repeat([]byte("w000000 "), spec.DocWords)
	tmpl[len(tmpl)-1] = '\n'
	// The geometry counts a line one byte longer than it is ("w%06d "
	// per word + newline, when the newline replaces the last space):
	// kept, so record counts stay what they were.
	return &DocCorpus{layout: newLayout("doccorpus", spec.PhysBytes, spec.ChunkPhys, len(tmpl)+1), spec: spec, tmpl: tmpl}
}

// ChunkBytes implements dfs.Input. Safe for concurrent use.
func (d *DocCorpus) ChunkBytes(i int) []byte {
	_, n := d.span(i)
	d.tables.Do(func() { d.words = newZipfTable(d.spec.WordSkew, d.spec.WordV, 64, d.spec.Vocab) })
	var r stream
	r.Seed(uint64(d.spec.Seed), uint64(i+1)*docSalt)
	out := make([]byte, int(n)*len(d.tmpl))
	for rec := out; len(rec) > 0; rec = rec[len(d.tmpl):] {
		copy(rec, d.tmpl)
		for w := 1; w < len(d.tmpl); w += 8 {
			putDigits(rec[w:w+6], r.pick(d.words))
		}
	}
	return out
}
