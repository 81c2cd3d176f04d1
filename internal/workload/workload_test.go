package workload

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

func testClickSpec() ClickSpec {
	s := DefaultClickSpec(1<<20, 64<<10, 42)
	s.Users = 5000
	s.URLs = 1000
	return s
}

func TestClickStreamDeterministic(t *testing.T) {
	a := NewClickStream(testClickSpec())
	b := NewClickStream(testClickSpec())
	for i := 0; i < a.NumChunks(); i += 3 {
		if !bytes.Equal(a.ChunkBytes(i), b.ChunkBytes(i)) {
			t.Fatalf("chunk %d differs between runs", i)
		}
	}
	// A chunk's draws are its own stream: no two chunks share their
	// users, and another seed moves every chunk.
	seen := map[string]int{}
	users := func(chunk []byte) string {
		var u []byte
		for ; len(chunk) > 0; chunk = chunk[a.RecordBytes():] {
			u = append(u, chunk[14:22]...)
		}
		return string(u)
	}
	other := testClickSpec()
	other.Seed++
	c := NewClickStream(other)
	for i := 0; i < a.NumChunks()-1; i++ { // the last chunk is short
		drawn := users(a.ChunkBytes(i))
		if j, dup := seen[drawn]; dup {
			t.Fatalf("chunks %d and %d draw the same users", j, i)
		}
		seen[drawn] = i
		if users(c.ChunkBytes(i)) == drawn {
			t.Fatalf("chunk %d draws the same users under seeds %d and %d", i, other.Seed-1, other.Seed)
		}
	}
}

func TestClickStreamSizes(t *testing.T) {
	c := NewClickStream(testClickSpec())
	if c.NumChunks() < 10 {
		t.Fatalf("chunks=%d", c.NumChunks())
	}
	var total int64
	for i := 0; i < c.NumChunks(); i++ {
		total += int64(len(c.ChunkBytes(i)))
	}
	// Total within one record of the target.
	if total > 1<<20 || total < (1<<20)-int64(c.RecordBytes())*2 {
		t.Fatalf("total=%d target=%d", total, 1<<20)
	}
	if got := total / int64(c.RecordBytes()); got != c.TotalRecords() {
		t.Fatalf("records %d vs %d", got, c.TotalRecords())
	}
}

// TestClickRecordFormat: every record of every chunk is RecordBytes
// long and carries its fields where internal/queries reads them — the
// timestamp's 13 digits at [0, 13), the user id at [14, 22) — for the
// default padding and for a wider one.
func TestClickRecordFormat(t *testing.T) {
	for _, pad := range []struct{ spec, want int }{{0, 32}, {50, 50}} {
		spec := testClickSpec()
		spec.Pad = pad.spec
		c := NewClickStream(spec)
		var records int64
		for i := 0; i < c.NumChunks(); i++ {
			for data := c.ChunkBytes(i); len(data) > 0; data = data[c.RecordBytes():] {
				ln := data[:c.RecordBytes()]
				records++
				fields := strings.Split(string(ln), "\t")
				if len(fields) != 6 || ln[len(ln)-1] != '\n' || bytes.IndexByte(ln, '\n') != len(ln)-1 {
					t.Fatalf("record %q has %d fields", ln, len(fields))
				}
				ts, err := strconv.ParseInt(string(ln[:13]), 10, 64)
				if err != nil || ts < 0 || ts > spec.Duration.Milliseconds()+spec.Jitter.Milliseconds() {
					t.Fatalf("bad ts %q", ln[:13])
				}
				user, err := strconv.Atoi(string(ln[15:22]))
				if err != nil || ln[14] != 'u' || user >= spec.Users {
					t.Fatalf("bad user %q", ln[14:22])
				}
				var page int
				if n, err := fmt.Sscanf(fields[2], "/p%06d.html", &page); n != 1 || err != nil || page >= spec.URLs {
					t.Fatalf("bad url %q", fields[2])
				}
				size, err := strconv.Atoi(fields[4])
				if err != nil || len(fields[4]) != 4 || size < 100 || size >= 10_000 || fields[3] != "200" && fields[3] != "404" {
					t.Fatalf("bad status %q or size %q", fields[3], fields[4])
				}
				if agent := strings.TrimSuffix(fields[5], "\n"); len(agent) != pad.want || !strings.HasPrefix(agent, "Mozilla/4.0-compatible-padpadpad"[:min(pad.want, 32)]) {
					t.Fatalf("padding %q, want %d bytes of the agent string", agent, pad.want)
				}
			}
		}
		if records != c.TotalRecords() {
			t.Fatalf("%d records, want %d", records, c.TotalRecords())
		}
	}
}

func TestClickTimestampsRoughlyOrdered(t *testing.T) {
	// Sessionization needs bounded disorder: within a chunk, the
	// timestamp of record g is g·ΔT ± jitter, so any inversion is
	// bounded by 2·jitter.
	spec := testClickSpec()
	spec.Jitter = time.Second
	c := NewClickStream(spec)
	data := c.ChunkBytes(3)
	var prev int64 = -1 << 62
	maxInversion := int64(0)
	for _, ln := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		ts, _ := strconv.ParseInt(string(ln[:13]), 10, 64)
		if prev-ts > maxInversion {
			maxInversion = prev - ts
		}
		if ts > prev {
			prev = ts
		}
	}
	if maxInversion > 2*spec.Jitter.Milliseconds() {
		t.Fatalf("inversion %dms exceeds 2×jitter", maxInversion)
	}
}

func TestClickUserSkew(t *testing.T) {
	// Zipf users: the single hottest user must account for far more
	// clicks than the uniform share — the property DINC-hash exploits.
	c := NewClickStream(testClickSpec())
	counts := map[string]int{}
	n := 0
	for i := 0; i < c.NumChunks(); i++ {
		for _, ln := range bytes.Split(bytes.TrimSuffix(c.ChunkBytes(i), []byte("\n")), []byte("\n")) {
			counts[string(ln[14:22])]++
			n++
		}
	}
	max := 0
	for _, v := range counts {
		if v > max {
			max = v
		}
	}
	uniform := n / 5000
	if max < 5*uniform {
		t.Fatalf("hottest user %d clicks vs uniform share %d: not skewed", max, uniform)
	}
}

func TestClickStreamChunkBounds(t *testing.T) {
	c := NewClickStream(testClickSpec())
	for _, bad := range []int{-1, c.NumChunks()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("chunk %d should panic", bad)
				}
			}()
			c.ChunkBytes(bad)
		}()
	}
}

func TestDocCorpusDeterministic(t *testing.T) {
	spec := DefaultDocSpec(1<<20, 64<<10, 7)
	a, b := NewDocCorpus(spec), NewDocCorpus(spec)
	if !bytes.Equal(a.ChunkBytes(0), b.ChunkBytes(0)) {
		t.Fatal("doc corpus not deterministic")
	}
}

func TestDocRecordShape(t *testing.T) {
	spec := DefaultDocSpec(1<<20, 64<<10, 7)
	spec.Vocab = 500
	d := NewDocCorpus(spec)
	data := d.ChunkBytes(0)
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	for _, ln := range lines[:20] {
		words := strings.Fields(string(ln))
		if len(words) != spec.DocWords {
			t.Fatalf("doc %q has %d words", ln, len(words))
		}
		for _, w := range words {
			if !strings.HasPrefix(w, "w") || len(w) != 7 {
				t.Fatalf("bad word %q", w)
			}
		}
	}
}

func TestDocWordDistributionFlatterThanUsers(t *testing.T) {
	// Paper §6.2: "the trigrams are distributed more evenly than the
	// user ids". Compare top-key share of words vs users.
	cs := testClickSpec()
	click := NewClickStream(cs)
	userCounts := map[string]int{}
	un := 0
	for i := 0; i < 5; i++ {
		for _, ln := range bytes.Split(bytes.TrimSuffix(click.ChunkBytes(i), []byte("\n")), []byte("\n")) {
			userCounts[string(ln[14:22])]++
			un++
		}
	}
	ds := DefaultDocSpec(1<<20, 64<<10, 7)
	ds.Vocab = 5000
	doc := NewDocCorpus(ds)
	triCounts := map[string]int{}
	tn := 0
	for i := 0; i < 5; i++ {
		words := strings.Fields(string(doc.ChunkBytes(i)))
		for j := 0; j+2 < len(words); j++ {
			triCounts[words[j]+"_"+words[j+1]+"_"+words[j+2]]++
			tn++
		}
	}
	share := func(c map[string]int, n int) float64 {
		max := 0
		for _, v := range c {
			if v > max {
				max = v
			}
		}
		return float64(max) / float64(n)
	}
	if share(triCounts, tn) >= share(userCounts, un) {
		t.Fatalf("trigram dist (%.5f) not flatter than user dist (%.5f)",
			share(triCounts, tn), share(userCounts, un))
	}
}

func TestSpecValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero bytes":   func() { NewClickStream(ClickSpec{ChunkPhys: 1, Users: 1, URLs: 1}) },
		"zero users":   func() { NewClickStream(ClickSpec{PhysBytes: 1, ChunkPhys: 1, URLs: 1}) },
		"small vocab":  func() { NewDocCorpus(DocSpec{PhysBytes: 1, ChunkPhys: 1, Vocab: 2, DocWords: 5}) },
		"8-digit ids":  func() { NewClickStream(ClickSpec{PhysBytes: 1, ChunkPhys: 1, Users: 10_000_001, URLs: 1}) },
		"7-digit urls": func() { NewClickStream(ClickSpec{PhysBytes: 1, ChunkPhys: 1, Users: 1, URLs: 1_000_001}) },
		"14-digit ts": func() {
			NewClickStream(ClickSpec{PhysBytes: 1, ChunkPhys: 1, Users: 1, URLs: 1, Duration: 200 * 365 * 24 * time.Hour, Jitter: 200 * 365 * 24 * time.Hour})
		},
		"7-digit words": func() {
			NewDocCorpus(DocSpec{PhysBytes: 1, ChunkPhys: 1, Vocab: 1_000_001, DocWords: 5})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
	// The widest spec the fixed-width fields hold builds.
	NewClickStream(ClickSpec{PhysBytes: 1, ChunkPhys: 1, Users: 10_000_000, URLs: 1_000_000, Duration: 200 * 365 * 24 * time.Hour})
}

func BenchmarkClickChunkGen(b *testing.B) {
	c := NewClickStream(DefaultClickSpec(64<<20, 256<<10, 1))
	b.SetBytes(256 << 10)
	for i := 0; i < b.N; i++ {
		c.ChunkBytes(i % c.NumChunks())
	}
}

func BenchmarkDocChunkGen(b *testing.B) {
	d := NewDocCorpus(DefaultDocSpec(64<<20, 256<<10, 1))
	b.SetBytes(256 << 10)
	for i := 0; i < b.N; i++ {
		d.ChunkBytes(i % d.NumChunks())
	}
}

func ExampleClickStream() {
	spec := DefaultClickSpec(10_000, 5_000, 1)
	c := NewClickStream(spec)
	fmt.Println("chunks:", c.NumChunks(), "record bytes:", c.RecordBytes())
	// Output: chunks: 2 record bytes: 79
}
