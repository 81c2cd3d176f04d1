package jobstore

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestOnDiskFormatPinned holds every file a fixed three-transaction
// run leaves behind to a committed name and SHA-256. The directory is
// a compatibility surface — one written by an older daemon must open
// under a newer one — and the crash sweeps cannot see it drift, since
// they write and read with the same build. The digests were taken
// from the code before the log moved onto internal/seglog.
func TestOnDiskFormatPinned(t *testing.T) {
	want := map[string]string{
		"log-00000001.seg":         "b455397b824640db3b74a09c64416173f875e627d05566b4b9f073fbca8fcd62", // tx 1–2
		"log-00000002.seg":         "166e288b7156f8f5f4eff536b85af37073359e518b35f21386042346bc3492b5", // tx 3
		"snap-0000000000000002.sn": "0cbf43963f08a65b36787b85a6dc832f26c0bb3c46546b830086785058b06fa4",
		"snap-0000000000000003.sn": "e11b7331b9efb66444a59d3927d0ee71f424e35f71c5ef23095bb4cf79192542", // written by Close
	}
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, SealBytes: 60, CompactEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sweepWorkload(s, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

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
