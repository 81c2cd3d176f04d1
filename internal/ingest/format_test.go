package ingest

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestOnDiskFormatPinned holds every file a fixed three-batch run
// leaves behind to a committed name and SHA-256. The directory is a
// compatibility surface — one written by an older daemon must open
// under a newer one — and the crash sweeps cannot see it drift, since
// they write and read with the same build. The digests were taken
// from the code before the WAL moved onto internal/seglog.
func TestOnDiskFormatPinned(t *testing.T) {
	want := map[string]string{
		"wal-00000001.seg":         "3592aae1309cc3aeffdae2f14a60e2ac197a9a095df522b20ceca0cbabaf522b", // batches 1–2
		"wal-00000002.seg":         "1fdca26d48d56f6dd77892d653fbfd78c66809bff6f53b07278475fdc207f0bb", // batch 3
		"wal-00000003.seg":         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // empty: opened by the drain's seal
		"ckpt-0000000000000002.ck": "c72802088f0a2cb96f0d97050dc4971af38e62ed7d5a8e9340d448de679b3be0",
		"ckpt-0000000000000003.ck": "d18029c9751628edf926d9168b7dcea98874bdee6543cc665dd484063cee6b14",
	}
	dir := t.TempDir()
	cfg := testCfg(t, dir, "sessionization")
	cfg.SealBytes = 400
	cfg.CheckpointEvery = 2
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, s, 1, 3, 5)
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
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("on-disk format changed:\n got %v\nwant %v", got, want)
	}
}
