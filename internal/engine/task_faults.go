package engine

// The fault plan's structural interpretation, written once for both
// drivers: where a task runs, which outputs a node kill loses, which
// chunks race a speculative backup and on which node, and which chunks
// the in-node combiner may keep. Every answer is a pure function of the
// spec and the frame — never of timing — so both backends lose, redo,
// back up and combine the same tasks. A driver keeps only its own
// mechanics: when a crash is detected, how a fetch backs off, when a
// straggler looks slow enough to back up.

// Dies reports whether node is killed at some point in the run.
func (f *JobFrame) Dies(node int) bool { _, ok := f.KillAfter[node]; return ok }

// Place is the node recovery work for task runs on: the never-dying
// nodes other than avoid, in ascending order, indexed by task mod their
// count (-1 when there is none). It places displaced map tasks,
// re-executions of lost or damaged outputs, restarted reducers
// (task = reducer index) and backups, spreading them over the survivors
// as round-robin would without depending on event order.
func (f *JobFrame) Place(task, avoid int) int {
	var live []int
	for n := range f.spec.Cluster.Nodes {
		if n != avoid && !f.Dies(n) {
			live = append(live, n)
		}
	}
	if len(live) == 0 {
		return -1
	}
	return live[task%len(live)]
}

// Home is the node chunk's primary map attempt runs on: its assigned
// node, unless that node dies before the chunk's turn (chunk ≥ K), in
// which case no work is lost and the task runs on a survivor instead.
func (f *JobFrame) Home(chunk int) int {
	n := f.Node(chunk)
	if k, ok := f.KillAfter[n]; ok && chunk >= k {
		return f.Place(chunk, -1)
	}
	return n
}

// Lost reports whether chunk's output dies with its node: the node
// crashes once chunks 0…K-1 have all completed, so its chunks below K
// had published and lose their output.
func (f *JobFrame) Lost(chunk int) bool {
	k, ok := f.KillAfter[f.Node(chunk)]
	return ok && chunk < k
}

// Backup is the node a speculative backup of chunk races on, or -1 when
// the task runs unraced: with Speculate, a chunk homed on a straggler
// that never dies and has no injected map failures (its ladder length
// stays fixed) may race one backup, placed away from its home.
func (f *JobFrame) Backup(chunk int) int {
	fp, home := &f.spec.Faults, f.Node(chunk)
	if !fp.Speculate || fp.SlowNodes[home] <= 1 || fp.MapFailures[chunk] > 0 || f.Dies(home) {
		return -1
	}
	return f.Place(chunk, home)
}

// Keep reports whether chunk deposits into the in-node combiner: its
// output provably survives on its home node until the fold (the node
// never dies, no backup can publish it elsewhere) and no disk damage
// can strike the combined run, which covers several tasks and so has no
// single task to re-execute.
func (f *JobFrame) Keep(chunk int) bool {
	return !f.Dies(f.Node(chunk)) && f.Backup(chunk) < 0 && !f.spec.Faults.Disk.any()
}
