// Package dfs models the distributed file system underneath the jobs:
// input datasets split into fixed-size chunks (the 64MB-default HDFS
// blocks that set MapReduce task granularity, §2.2), replica placement
// across nodes, and locality-aware assignment of chunks to map tasks.
//
// Chunk contents are synthesized deterministically and on demand by
// the workload generators, so arbitrarily large logical datasets never
// have to be materialized: the engine charges the input-read I/O when
// a map task consumes a chunk.
package dfs

import "fmt"

// Input is a chunked input dataset. Implementations must be
// deterministic: ChunkBytes(i) always returns the same records.
type Input interface {
	// Name identifies the dataset in reports.
	Name() string
	// NumChunks returns the number of chunks (map tasks).
	NumChunks() int
	// ChunkBytes synthesizes chunk i as newline-delimited records, in
	// a fresh buffer: the caller owns it and may hand it to
	// bytestore.Put once nothing reads it.
	ChunkBytes(i int) []byte
}

// Placement decides which nodes hold a chunk's replicas, HDFS-style:
// replicas on distinct nodes, spread round-robin so every node owns an
// equal share of primaries.
type Placement struct {
	Nodes       int
	Replication int
}

// NewPlacement creates a placement over n nodes with the given
// replication factor (clamped to the node count, minimum 1).
func NewPlacement(nodes, replication int) Placement {
	if nodes < 1 {
		panic("dfs: need at least one node")
	}
	if replication < 1 {
		replication = 1
	}
	if replication > nodes {
		replication = nodes
	}
	return Placement{Nodes: nodes, Replication: replication}
}

// Replicas returns the nodes holding chunk i, primary first.
func (p Placement) Replicas(chunk int) []int {
	out := make([]int, p.Replication)
	for r := 0; r < p.Replication; r++ {
		out[r] = (chunk + r) % p.Nodes
	}
	return out
}

// Primary returns the primary replica node of chunk i.
func (p Placement) Primary(chunk int) int { return chunk % p.Nodes }

// Assignment maps every chunk to the node that will run its map task.
// Chunks go to their primary replica: with round-robin placement this
// is both perfectly local and perfectly balanced, which matches the
// paper's assumption that each node handles D/(C·N) map tasks.
type Assignment struct {
	p      Placement
	chunks int
}

// NewAssignment creates the chunk→node schedule for an input.
func NewAssignment(in Input, p Placement) Assignment {
	return Assignment{p: p, chunks: in.NumChunks()}
}

// Node returns the node assigned to chunk i.
func (a Assignment) Node(chunk int) int {
	if chunk < 0 || chunk >= a.chunks {
		panic(fmt.Sprintf("dfs: chunk %d out of range [0,%d)", chunk, a.chunks))
	}
	return a.p.Primary(chunk)
}
