package ingest

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestOnDiskFormatPinned holds every file a fixed run leaves behind to
// a committed name and SHA-256. The directory is a compatibility
// surface — one written by an older daemon must open under a newer one
// — and the crash sweeps cannot see it drift, since they write and read
// with the same build. The three-batch run's digests were taken from
// the code before the WAL moved onto internal/seglog; the crowd run's,
// whose 100 users make the fold's table rehash twice and whose expired
// sessions the scavenger retires and readmits, from the code before the
// fold moved onto bytestore.Table.
func TestOnDiskFormatPinned(t *testing.T) {
	cases := []struct {
		name    string
		batches int
		batch   func(b int) [][]byte
		want    map[string]string
	}{
		{"three batches", 3, func(b int) [][]byte { return testBatch(b, 5) }, map[string]string{
			"wal-00000001.seg":         "3592aae1309cc3aeffdae2f14a60e2ac197a9a095df522b20ceca0cbabaf522b", // batches 1–2
			"wal-00000002.seg":         "1fdca26d48d56f6dd77892d653fbfd78c66809bff6f53b07278475fdc207f0bb", // batch 3
			"wal-00000003.seg":         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // empty: opened by the drain's seal
			"ckpt-0000000000000002.ck": "c72802088f0a2cb96f0d97050dc4971af38e62ed7d5a8e9340d448de679b3be0",
			"ckpt-0000000000000003.ck": "d18029c9751628edf926d9168b7dcea98874bdee6543cc665dd484063cee6b14",
		}},
		{"crowd", 4, func(b int) [][]byte { return crowdBatch(b, 100, 100) }, map[string]string{
			"wal-00000001.seg":         "b59b8143f2f0201b35b530fc136bb435d9a8e4e107a91a31eede0dabe8a34910",
			"wal-00000002.seg":         "9dba9106120a1e777b90088296cbf636dc6fc298dd7720bed7a8c95c871d9d36",
			"wal-00000003.seg":         "cbaa5138956dcc2d432322a124473de6d2fccfec0d40dbf159069482ea65ed46",
			"wal-00000004.seg":         "5fa93fcba2a6bb60c7d03271b825611afc0e6441639bf901eea1818a2ef6cb63",
			"wal-00000005.seg":         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"wal-00000006.seg":         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"ckpt-0000000000000002.ck": "dbe8e5d2b8853d5b03bfe852684e1f438280e49218f383e8e58bc956334da9b0",
			"ckpt-0000000000000004.ck": "8d104c63a1790531972889703d42a1d880b5c348c58b7d4c31143152b3c737c0",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := testCfg(t, dir, "sessionization")
			cfg.SealBytes = 400
			cfg.CheckpointEvery = 2
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for b := 1; b <= tc.batches; b++ {
				if _, err := s.Ingest(tc.batch(b)); err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
			}
			drainStats(t, s)

			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]string{}
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				got[e.Name()] = fmt.Sprintf("%x", sha256.Sum256(data))
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("on-disk format changed:\n got %v\nwant %v", got, tc.want)
			}
		})
	}
}
