package core

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// denseSPES is Algorithm 1 in its literal form: every slot scans every
// function, keeping an explicit idle counter (the paper's currentWT) per
// function. It is the oracle the event-driven engine is checked against
// (equivalence_test.go): both must produce bit-identical simulations.
//
// It wraps an SPES for the profiles, the adaptive strategies and the loaded
// set, and shares its helpers (shouldPreload, recordOnlineWT,
// preloadThrough, online correlation). Those helpers still arm the wrapped
// policy's wheel deadlines; nothing drains them and no decision here reads
// them. The wrapper deliberately implements neither sim.ConfigHasher nor
// sim.IdleSkipper: no shard cache can hold an entry it produced, and the
// simulator ticks it slot by slot.
type denseSPES struct {
	s    *SPES
	idle []int // idle slots since the last invocation, per function
}

func newDenseSPES(cfg Config) *denseSPES { return &denseSPES{s: New(cfg)} }

func (d *denseSPES) Name() string                   { return d.s.Name() }
func (d *denseSPES) Loaded(f trace.FuncID) bool     { return d.s.Loaded(f) }
func (d *denseSPES) LoadedCount() int               { return d.s.LoadedCount() }
func (d *denseSPES) TypeOf(f trace.FuncID) string   { return d.s.TypeOf(f) }
func (d *denseSPES) TakeLoadDeltas() []trace.FuncID { return d.s.TakeLoadDeltas() }
func (d *denseSPES) NewShard() sim.Policy           { return newDenseSPES(d.s.cfg) }
func (d *denseSPES) Retrain(t int, window *trace.Trace) {
	d.s.Retrain(t, window)
}

// Train trains the wrapped policy and seeds each idle counter with the idle
// time at the end of training: slots since the last training invocation,
// or the whole window for a function never invoked in it.
func (d *denseSPES) Train(training *trace.Trace) {
	d.s.Train(training)
	d.idle = make([]int, len(d.s.states))
	for fid := range d.idle {
		d.idle[fid] = -int(d.s.lastInvoked[fid]) - 1 + int(d.s.wtOff[fid])
	}
}

// Tick scans every function for slot t.
func (d *denseSPES) Tick(t int, invs []trace.FuncCount) {
	s := d.s
	// invs is FuncID-ascending, so walk it in lockstep with the scan.
	next := 0
	for i := range s.states {
		fid := trace.FuncID(i)
		if next < len(invs) && invs[next].Func == fid {
			next++
			// Lines 3-12: record the finished WT, reset, adapt, load.
			if d.idle[i] > 0 && int(s.lastInvoked[fid]) > -s.trainSlots {
				s.recordOnlineWT(fid, d.idle[i])
			}
			s.lastInvoked[fid] = int32(t)
			d.idle[i] = 0
			s.wtOff[fid] = 0
			s.preloadUntil[fid] = -1
			s.load(fid)
			continue
		}

		// Lines 13-20: idle bookkeeping, pre-load or evict.
		d.idle[i]++
		if s.shouldPreload(fid, t) {
			s.load(fid)
		} else if s.loaded[fid] && d.idle[i] >= s.thetaGivenup(s.typ[fid]) {
			s.unload(fid)
		}
	}

	// Indicator-driven pre-loading: offline correlated links and online
	// correlation for unseen functions (line 22, UCorr.update()).
	for _, fc := range invs {
		for _, l := range s.listeners[fc.Func] {
			s.preloadThrough(l.target, t, t+int(l.lag)+s.cfg.Classify.ThetaPrewarm)
		}
	}
	if s.ucorr != nil {
		s.ucorr.observe(t, invs, s)
	}
}
