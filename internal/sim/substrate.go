package sim

import (
	"fmt"
	"time"

	"repro/internal/substrate"
)

// The DES is one implementation of the execution substrate: a
// simulated process is a substrate.Proc (virtual clock, Offload onto
// the compute pool; Fork and Join are the DES drivers' own and not
// part of the interface), and a capacity-1 resource is a
// substrate.Timer (FIFO-queued device arm). Platform components written
// against the substrate interfaces run unchanged on either backend.
var (
	_ substrate.Proc  = (*Proc)(nil)
	_ substrate.Timer = (*Resource)(nil)
)

// Use implements substrate.Timer: acquire tokens units, hold them for
// d of virtual time, release them — a CPU burst or an I/O service
// time. The Proc must be a simulated process of this resource's
// kernel — substrate implementations are never mixed within one run,
// so anything else is a wiring bug worth a loud panic.
func (r *Resource) Use(p substrate.Proc, tokens int64, d time.Duration) {
	sp, ok := p.(*Proc)
	if !ok {
		panic(fmt.Sprintf("sim: resource %s used by non-simulated proc %T", r.name, p))
	}
	sp.Acquire(r, tokens)
	sp.Hold(d)
	sp.Release(r, tokens)
}
