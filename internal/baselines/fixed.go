package baselines

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/trace"
)

// FixedKeepAlive keeps every function loaded for a fixed number of minutes
// after its last invocation — the classic OpenWhisk-style policy the paper
// runs with a 10-minute window.
//
// Expiries run on a shared timing wheel (sched.Agenda) by default; the
// map-backed reference engine survives behind NewFixedKeepAliveReference for
// the equivalence suite.
type FixedKeepAlive struct {
	keepAlive int
	name      string
	mapAgenda bool // reference engine: map-backed agenda instead of the wheel

	set   *loadedSet
	wheel *sched.Agenda // event engine (default)
	ref   *agenda       // reference engine (mapAgenda)
	last  []int         // last invocation slot per function, -1 when never
}

// NewFixedKeepAlive creates the policy; keepAlive is in slots (minutes) and
// must be positive.
func NewFixedKeepAlive(keepAlive int) *FixedKeepAlive {
	if keepAlive <= 0 {
		panic(fmt.Sprintf("baselines: keep-alive must be positive, got %d", keepAlive))
	}
	return &FixedKeepAlive{
		keepAlive: keepAlive,
		name:      fmt.Sprintf("Fixed-%dmin", keepAlive),
	}
}

// NewFixedKeepAliveReference creates the policy on the retained map-backed
// agenda — the reference engine the equivalence tests run the wheel engine
// against (the FixedKeepAlive counterpart of core.Config.DenseScan).
func NewFixedKeepAliveReference(keepAlive int) *FixedKeepAlive {
	p := NewFixedKeepAlive(keepAlive)
	p.mapAgenda = true
	return p
}

// Name implements sim.Policy.
func (p *FixedKeepAlive) Name() string { return p.name }

// Train implements sim.Policy. The fixed policy has no model to fit, but it
// carries its end-of-training state into the simulation: a function invoked
// within the keep-alive window before the boundary starts the simulation
// loaded, exactly as if the policy had been running all along.
func (p *FixedKeepAlive) Train(training *trace.Trace) {
	p.init(training.NumFunctions())
	for fid, s := range training.Series {
		last := s.LastSlot()
		if last < 0 {
			continue
		}
		rebased := int(last) - training.Slots // negative: slots before sim start
		p.last[fid] = rebased
		if expire := rebased + p.keepAlive; expire > 0 {
			p.set.add(trace.FuncID(fid))
			p.schedule(-1, expire, fid)
		}
	}
}

func (p *FixedKeepAlive) init(n int) {
	p.set = newLoadedSet(n)
	if p.mapAgenda {
		p.ref = newAgenda(n)
	} else {
		p.wheel = sched.NewAgenda(n, p.keepAlive+2)
	}
	p.last = make([]int, n)
	for i := range p.last {
		p.last[i] = -1
	}
}

// grow extends the per-function state to cover FuncIDs up to n-1. Tick grows
// on demand when Train was skipped, so an ad-hoc driver whose later slots
// introduce larger FuncIDs no longer indexes out of range (the first slot
// used to fix the size for good).
func (p *FixedKeepAlive) grow(n int) {
	p.set.grow(n)
	if p.mapAgenda {
		p.ref.grow(n)
	} else {
		p.wheel.Grow(n)
	}
	for len(p.last) < n {
		p.last = append(p.last, -1)
	}
}

// Tick implements sim.Policy.
func (p *FixedKeepAlive) Tick(t int, invs []trace.FuncCount) {
	if p.set == nil {
		p.init(0) // tolerate missing Train; grow on demand below
	}
	for _, fc := range invs {
		f := int(fc.Func)
		if f >= len(p.last) {
			p.grow(f + 1)
		}
		p.last[f] = t
		p.bump(f)
		p.schedule(t, t+p.keepAlive, f)
		p.set.add(fc.Func)
	}
	if p.ref != nil {
		p.ref.drain(t, func(owner, _ int) {
			p.set.remove(trace.FuncID(owner))
		})
		return
	}
	p.wheel.Drain(t, func(owner, _ int) {
		p.set.remove(trace.FuncID(owner))
	})
}

func (p *FixedKeepAlive) bump(f int) {
	if p.ref != nil {
		p.ref.bump(f)
		return
	}
	p.wheel.Bump(f)
}

func (p *FixedKeepAlive) schedule(current, slot, f int) {
	if p.ref != nil {
		p.ref.schedule(slot, f, 0)
		return
	}
	p.wheel.Schedule(current, slot, f, 0)
}

// NextWake implements sim.IdleSkipper: the earliest slot in (after, limit]
// holding a scheduled expiry, -1 when there is none. The map-backed
// reference engine reports ok=false so it stays on the per-slot path.
func (p *FixedKeepAlive) NextWake(after, limit int) (int, bool) {
	if p.wheel == nil {
		return 0, false
	}
	return p.wheel.Next(after, limit), true
}

// Loaded implements sim.Policy.
func (p *FixedKeepAlive) Loaded(f trace.FuncID) bool { return p.set.has(f) }

// LoadedCount implements sim.Policy.
func (p *FixedKeepAlive) LoadedCount() int { return p.set.count }

// TakeLoadDeltas implements sim.LoadDeltaTracker.
func (p *FixedKeepAlive) TakeLoadDeltas() []trace.FuncID { return p.set.takeDeltas() }
