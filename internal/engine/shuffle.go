package engine

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/storage"
)

// mapOutput is one published unit of map output: the whole output of a
// completed map task (sort-merge, hash), or one pushed spill (HOP
// pipelining, where mappers publish eagerly at spill granularity).
type mapOutput struct {
	node *node

	parts     core.MapParts // per partition: encoded segments and their pair counts
	partBytes []int64
	partOff   []int64 // byte offset of each partition in file
	file      *storage.File

	inMemory bool
	refs     int // partitions not yet fetched by all reducers

	// task is the map task index this output came from (-1 for HOP
	// spill pushes, which are never re-executed, and for node-combined
	// runs).
	task int
	// tasks is the ascending set of map tasks a node-combined run
	// covers (nil for per-task outputs and HOP pushes). Reducers
	// consume all of them atomically.
	tasks []int
	// lost marks the output unfetchable: its node died before every
	// reducer got its partition. Reducers skip lost outputs; the
	// tracker re-executes the task if anyone still needs it.
	lost bool
}

// shuffleService is the centralized "which mappers have completed"
// service reducers poll (§2.2); Broadcast replaces polling in the
// simulation.
type shuffleService struct {
	cond        *sim.Cond
	outputs     []*mapOutput
	mappersDone int
	mappersAll  int
	reducers    int

	// retain disables end-of-fetch reclamation. Set for runs whose reduce
	// attempts can restart (JobSpec.ReduceRestarts): a restarted reducer
	// must be able to re-fetch outputs that every other reducer already
	// drained.
	retain bool
}

func newShuffleService(k *sim.Kernel, mappers, reducers int) *shuffleService {
	return &shuffleService{
		cond:       sim.NewCond(k, "shuffle"),
		mappersAll: mappers,
		reducers:   reducers,
	}
}

// publish makes a map output unit available to reducers.
func (s *shuffleService) publish(o *mapOutput) {
	o.refs = s.reducers
	s.outputs = append(s.outputs, o)
	s.cond.Broadcast()
}

// mapperFinished records one map task completion.
func (s *shuffleService) mapperFinished() {
	s.mappersDone++
	s.cond.Broadcast()
}

// allPublished reports whether every mapper has finished, i.e. no more
// outputs will appear.
func (s *shuffleService) allPublished() bool { return s.mappersDone == s.mappersAll }

// release notes that one reducer has fetched its partition; when all
// have, the output's memory and disk file are reclaimed (unless the
// run retains outputs for possible re-fetch after failures).
func (s *shuffleService) release(o *mapOutput) {
	o.refs--
	if o.refs == 0 && !s.retain {
		if o.file != nil {
			o.node.store.Delete(o.file)
			o.file = nil
		}
		o.parts = core.MapParts{}
	}
}

// markLost invalidates every output stored on the given node: the
// node's disk (and page cache) died with it. The encoded bytes are
// kept — they back the deterministic re-execution check in tests —
// but reducers treat lost outputs as unfetchable. Broadcast wakes
// reducers parked waiting on an output that will now never be served.
func (s *shuffleService) markLost(nodeIdx int) (lost []*mapOutput) {
	for _, o := range s.outputs {
		if o.node.idx == nodeIdx && !o.lost {
			o.lost = true
			lost = append(lost, o)
		}
	}
	s.cond.Broadcast()
	return lost
}
