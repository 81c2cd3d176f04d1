// Package reference is a deliberately naive, in-memory MapReduce
// evaluator used as a differential-testing oracle: it applies the map
// function to every record, groups pairs by key in a plain Go map, and
// applies the reduce function per key — no cluster, no buffers, no
// spills, no incremental processing. Every platform in the engine must
// produce the same answers this evaluator does (up to documented
// streaming semantics like sessionization's session renumbering).
package reference

import (
	"bytes"
	"sort"

	"repro/internal/dfs"
	"repro/internal/kvenc"
	"repro/internal/mr"
)

// Output is one emitted record.
type Output struct {
	Key   string
	Value string
}

// eachRecord applies fn to every non-empty record line of the input,
// chunk by chunk in order.
func eachRecord(input dfs.Input, fn func(line []byte)) {
	for c := 0; c < input.NumChunks(); c++ {
		data := input.ChunkBytes(c)
		for len(data) > 0 {
			var line []byte
			if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
				line, data = data[:nl], data[nl+1:]
			} else {
				line, data = data, nil
			}
			if len(line) == 0 {
				continue
			}
			fn(line)
		}
	}
}

// Run evaluates the query over the whole input sequentially and
// returns all outputs sorted by (key, value). Value arrival order per
// key is input order, matching the engine's stable merging.
func Run(q mr.Query, input dfs.Input) []Output {
	groups := map[string][][]byte{}
	var order []string
	eachRecord(input, func(line []byte) {
		q.Map(line, func(k, v []byte) {
			key := string(k)
			if _, seen := groups[key]; !seen {
				order = append(order, key)
			}
			groups[key] = append(groups[key], append([]byte(nil), v...))
		})
	})
	var out []Output
	sink := collect{&out}
	for _, key := range order {
		q.Reduce([]byte(key), &kvenc.SliceIter{Vals: groups[key]}, sink)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Value < out[j].Value
	})
	return out
}

type collect struct{ out *[]Output }

// Emit implements mr.OutputWriter.
func (c collect) Emit(k, v []byte) {
	*c.out = append(*c.out, Output{Key: string(k), Value: string(v)})
}

// RunWithWatermarks evaluates the query like Run, but for queries
// implementing mr.Watermarker it first advances the watermark over
// every record — the state any platform has reached by the time its
// final reduce wave runs — so reduce-side logic that consults the
// watermark (e.g. sessionization's emit horizon) sees end-of-input
// conditions instead of a zero watermark. It returns the outputs and
// the final watermark (0 when the query has none).
func RunWithWatermarks(q mr.Query, input dfs.Input) ([]Output, int64) {
	var wm int64
	if w, ok := q.(mr.Watermarker); ok {
		eachRecord(input, func(line []byte) {
			if ts := w.RecordTime(line); ts > wm {
				wm = ts
			}
		})
		w.AdvanceWatermark(wm)
	}
	return Run(q, input), wm
}

// Keys returns the distinct output keys, sorted.
func Keys(outs []Output) []string {
	seen := map[string]bool{}
	var keys []string
	for _, o := range outs {
		if !seen[o.Key] {
			seen[o.Key] = true
			keys = append(keys, o.Key)
		}
	}
	sort.Strings(keys)
	return keys
}
