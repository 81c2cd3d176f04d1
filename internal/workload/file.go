package workload

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/bytestore"
)

// FileInput is a dfs.Input over a real newline-delimited log file,
// split into chunks of roughly chunkBytes at record boundaries — how
// HDFS block splits align to records. It lets the platform run over
// actual click logs (e.g. a downloaded WorldCup trace) instead of the
// synthetic generators; chunk boundaries are computed once so chunk
// reads are deterministic and O(1) to locate.
type FileInput struct {
	name   string
	data   []byte
	bounds []int // bounds[i]..bounds[i+1] is chunk i
}

// NewFileInput loads a record file and splits it into chunks of about
// chunkBytes (each ending on a record boundary).
func NewFileInput(path string, chunkBytes int64) (*FileInput, error) {
	if chunkBytes <= 0 {
		return nil, fmt.Errorf("workload: chunk size must be positive")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return newFileInputFromBytes(path, data, chunkBytes), nil
}

// NewBytesInput wraps an in-memory record buffer as an input (testing
// and embedding convenience).
func NewBytesInput(name string, data []byte, chunkBytes int64) *FileInput {
	if chunkBytes <= 0 {
		panic("workload: chunk size must be positive")
	}
	return newFileInputFromBytes(name, append([]byte(nil), data...), chunkBytes)
}

func newFileInputFromBytes(name string, data []byte, chunkBytes int64) *FileInput {
	f := &FileInput{name: name, data: data, bounds: []int{0}}
	for off := 0; off < len(data); {
		end := len(data)
		if nl := bytes.IndexByte(data[min(off+int(chunkBytes), end):], '\n'); nl >= 0 {
			end = off + int(chunkBytes) + nl + 1
		}
		f.bounds = append(f.bounds, end)
		off = end
	}
	return f
}

// Name implements dfs.Input.
func (f *FileInput) Name() string { return f.name }

// NumChunks implements dfs.Input.
func (f *FileInput) NumChunks() int { return len(f.bounds) - 1 }

// ChunkBytes implements dfs.Input: a copy, since the caller owns (and
// may recycle) what it gets.
func (f *FileInput) ChunkBytes(i int) []byte {
	if i < 0 || i >= f.NumChunks() {
		panic(fmt.Sprintf("workload: chunk %d out of range", i))
	}
	return append(bytestore.Get(f.bounds[i+1]-f.bounds[i]), f.data[f.bounds[i]:f.bounds[i+1]]...)
}

// TotalBytes returns the file size.
func (f *FileInput) TotalBytes() int64 { return int64(len(f.data)) }
