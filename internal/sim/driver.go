package sim

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// Driver is the event-stream form of the simulation loop: it drives a
// trained Policy one slot at a time through the exact three-phase contract
// the batch simulator established (cold-start accounting against the
// pre-Tick loaded set, Tick, post-Tick memory/WMT/EMCR accounting), with
// retrain boundaries and the idle-skip batch charge handled internally.
//
// The batch engine (runOne) is one driver of it — it feeds the Driver the
// trace's slot index — and the serving daemon (internal/serve) is another,
// feeding it live invocation events over HTTP. That split is what divorces
// SIM TIME from WALL TIME: the Driver's clock is the slot number its caller
// passes to Step, never the wall clock, so a daemon ingesting events hours
// apart and a simulator replaying them back-to-back compute bit-identical
// policy states and metrics. Wall time is only ever read for the optional
// Overhead measurement, which annotates results without influencing them.
//
// Gap semantics: Step(t, invs) first advances the policy through every slot
// in (NextSlot()-1, t) as an invocation-free slot, exactly as the batch loop
// would — batch-charging provably idle spans when the policy is an
// IdleSkipper with delta tracking, ticking slot by slot otherwise, and never
// crossing a retrain boundary without processing it. A caller that only ever
// hears about occupied slots therefore reproduces the full per-slot run.
type Driver struct {
	policy Policy
	res    *Result
	log    *slotLog

	// Delta mode (see runOne): the tracked mirror of the loaded set and the
	// per-function residency intervals, nil/unused when the policy does not
	// track load deltas.
	tracker       LoadDeltaTracker
	loaded        []bool
	loadedFrom    []int32
	invokedLoaded []int32

	// invokedAt backs the dense fallback's idle scan.
	invokedAt []bool

	skipper IdleSkipper

	retrainer    Retrainer
	retrainEvery int
	retrainWin   int
	window       WindowFunc

	measureOverhead bool
	collectCold     bool
	cold            []trace.FuncID
	flips           []trace.FuncID

	progress      func(slot int)
	progressEvery int

	next   int // next slot to process; NextSlot()
	closed bool

	// Mid-slot split state (StepBegin/FinishStep): the slot and invocations
	// phases 1-2 ran for, awaiting phase 3.
	pendingSlot int
	pendingInvs []trace.FuncCount
	midSlot     bool
}

// WindowFunc builds the sliding-window trace handed to Retrainer.Retrain at
// boundary slot t (see the Retrainer contract): w slots of recorded history
// ending just before t, re-based so window slot 0 is slot t-w. The batch
// engine builds it from the train/sim trace pair (BuildRetrainWindow); the
// serving daemon builds it from its recorded live history.
type WindowFunc func(t, w int) *trace.Trace

// BuildRetrainWindow is the exported form of the batch engine's window
// builder: w slots ending just before t, filled from recorded (the
// simulation-timeline history, slot 0 = simulation slot 0) and, for t < w,
// from the tail of training. Anything before recorded history is empty.
func BuildRetrainWindow(training, recorded *trace.Trace, t, w int) *trace.Trace {
	return retrainWindow(training, recorded, t, w)
}

// DriverConfig configures a Driver around an already-trained policy.
type DriverConfig struct {
	// MeasureOverhead wall-clock-times every Tick into Result.Overhead.
	// It disables the idle-skip batch charge so the overhead metric counts
	// every Tick the per-slot loop would have counted.
	MeasureOverhead bool

	// RetrainEvery/RetrainWindow/Window enable periodic online
	// re-categorization for policies implementing Retrainer: at every slot
	// t = k*RetrainEvery the driver calls Retrain(t, Window(t,
	// RetrainWindow)) before t's invocations are observed. RetrainWindow
	// must be resolved (positive) by the caller; all three must be set
	// together.
	RetrainEvery  int
	RetrainWindow int
	Window        WindowFunc

	// CollectCold makes Step report the slot's cold-started functions
	// (serving daemons turn them into decisions); off for batch runs, which
	// only need the counters.
	CollectCold bool

	// StartSlot is the first slot the driver will process (NextSlot). 0 for
	// a fresh run; a daemon restoring a snapshot taken after slot S passes
	// S+1.
	StartSlot int

	// Progress, when non-nil, is called every ProgressEvery processed slots.
	Progress      func(slot int)
	ProgressEvery int

	// log records per-slot (loaded, active) counts for the sharded merge.
	log *slotLog
}

// NewDriver wraps a trained policy. The post-Train loaded set is scanned
// once to seed the delta mirror (training-era deltas are discarded by the
// probe call), matching the batch engine's baseline exactly.
func NewDriver(policy Policy, n int, cfg DriverConfig) *Driver {
	d := &Driver{
		policy:          policy,
		res:             &Result{Policy: policy.Name(), Functions: n, PerFunc: make([]FuncMetrics, n)},
		log:             cfg.log,
		measureOverhead: cfg.MeasureOverhead,
		collectCold:     cfg.CollectCold,
		progress:        cfg.Progress,
		progressEvery:   cfg.ProgressEvery,
		next:            cfg.StartSlot,
	}
	if tr, ok := policy.(LoadDeltaTracker); ok {
		tr.TakeLoadDeltas() // discard training-era deltas
		d.tracker = tr
		d.loaded = make([]bool, n)
		d.loadedFrom = make([]int32, n)
		d.invokedLoaded = make([]int32, n)
		for fid := 0; fid < n; fid++ {
			if policy.Loaded(trace.FuncID(fid)) {
				d.loaded[fid] = true
				d.loadedFrom[fid] = int32(cfg.StartSlot)
			}
		}
	}
	if d.tracker == nil {
		d.invokedAt = make([]bool, n)
	}
	if d.tracker != nil && !cfg.MeasureOverhead {
		if s, ok := policy.(IdleSkipper); ok {
			d.skipper = s
		}
	}
	if cfg.RetrainEvery > 0 && cfg.Window != nil {
		if r, ok := policy.(Retrainer); ok {
			d.retrainer = r
			d.retrainEvery = cfg.RetrainEvery
			d.retrainWin = cfg.RetrainWindow
			d.window = cfg.Window
		}
	}
	return d
}

// NextSlot returns the next slot Step will accept.
func (d *Driver) NextSlot() int { return d.next }

// Loaded reports the policy's current loaded state for f (post most recent
// Step).
func (d *Driver) Loaded(f trace.FuncID) bool { return d.policy.Loaded(f) }

// StepInfo is one processed slot's outcome, the raw material of a serving
// daemon's decisions. Cold and Flips alias driver-owned buffers valid only
// until the next Step.
type StepInfo struct {
	// Cold lists the functions invoked this slot that were not loaded
	// (each suffered a cold start), FuncID-ascending. Only populated under
	// DriverConfig.CollectCold with delta tracking.
	Cold []trace.FuncID
	// Flips lists every loaded-set flip the slot's Tick performed, in flip
	// order (a load immediately followed by an evict appears twice);
	// toggling reconstructs the pre-warm/evict decisions. nil when the
	// policy does not track deltas.
	Flips []trace.FuncID
	// Loaded is the post-Tick loaded count (memory units).
	Loaded int
}

// Step processes slot t's invocations (FuncID-ascending, only invoked
// functions present — the SlotIndex shape). t must be at least NextSlot();
// slots in between are advanced as invocation-free. It returns the slot's
// outcome for decision-emitting callers.
func (d *Driver) Step(t int, invs []trace.FuncCount) (StepInfo, error) {
	if err := d.StepBegin(t, invs); err != nil {
		return StepInfo{}, err
	}
	return d.FinishStep(), nil
}

// StepBegin runs phases 1-2 of slot t — gap advancement, retraining,
// cold-start accounting against the pre-Tick loaded set, and the Tick
// itself — and stops at the phase-3 boundary. It exists for the capacity-
// arbitrated sharded engine, which must interleave a global eviction round
// between every shard's Tick and its post-Tick accounting; FinishStep
// completes the slot. Plain callers use Step, which composes the two.
func (d *Driver) StepBegin(t int, invs []trace.FuncCount) error {
	if d.closed {
		return fmt.Errorf("sim: Step(%d) on a closed driver", t)
	}
	if d.midSlot {
		return fmt.Errorf("sim: Step(%d) while slot %d awaits FinishStep", t, d.pendingSlot)
	}
	if t < d.next {
		return fmt.Errorf("sim: Step slot %d is behind the stream (next is %d): slots are monotonic", t, d.next)
	}
	d.advanceTo(t)
	d.slotBegin(t, invs)
	d.next = t + 1
	return nil
}

// FinishStep runs phase 3 of the slot StepBegin opened — memory/WMT/EMCR
// accounting on the now-final post-Tick (and post-arbitration) loaded set —
// and returns the slot's outcome. It must follow every StepBegin before the
// next slot; calling it with no slot open returns the current state with no
// accounting.
func (d *Driver) FinishStep() StepInfo {
	d.slotFinish()
	return StepInfo{Cold: d.cold, Flips: d.flips, Loaded: d.policy.LoadedCount()}
}

// advanceTo processes every slot in [next, t) as invocation-free: ticking
// slot by slot when the policy cannot prove empties are no-ops, and
// otherwise batch-charging spans with no pending wake-up — never across a
// retrain boundary, whose slot must run its Retrain + Tick even if empty.
func (d *Driver) advanceTo(t int) {
	for d.next < t {
		u := d.next
		if d.skipper == nil {
			d.slot(u, nil)
			d.next = u + 1
			continue
		}
		limit := t - 1
		if d.retrainer != nil {
			if b := ((u-1)/d.retrainEvery+1)*d.retrainEvery - 1; b < limit {
				limit = b
			}
		}
		if limit < u {
			// u itself is the last slot before a boundary — or the boundary
			// slot; either way no span to skip.
			d.slot(u, nil)
			d.next = u + 1
			continue
		}
		// NextWake's contract wants `after` to be a slot the policy ticked;
		// u-1 always is (slot() ran there, or it is StartSlot-1, the
		// train/restore baseline).
		wake, ok := d.skipper.NextWake(u-1, limit)
		if !ok {
			d.slot(u, nil)
			d.next = u + 1
			continue
		}
		end := limit
		if wake >= 0 {
			end = wake - 1
		}
		if end >= u {
			d.chargeSpan(u, end)
			d.next = end + 1
		}
		if wake >= 0 {
			d.slot(wake, nil)
			d.next = wake + 1
		}
	}
}

// chargeSpan accounts the invocation-free, wake-free slots u..end (inclusive)
// in one step, exactly as changing-nothing Ticks would: loadedCount memory
// units per slot, all idle, EMCR term 0/loadedCount. Per-function idle
// minutes need no work — delta mode charges whole residency intervals at
// unload time, and skipped slots just extend them.
func (d *Driver) chargeSpan(u, end int) {
	span := int64(end - u + 1)
	loadedCount := d.policy.LoadedCount()
	lc := int64(loadedCount)
	d.res.TotalMemory += span * lc
	d.res.TotalWMT += span * lc
	if loadedCount > 0 {
		d.res.EMCRSlots += span
	}
	if d.log != nil {
		for s := u; s <= end; s++ {
			d.log.loaded = append(d.log.loaded, int32(loadedCount))
			d.log.active = append(d.log.active, 0)
		}
	}
}

// slot runs the full three-phase contract for one slot.
func (d *Driver) slot(t int, invs []trace.FuncCount) {
	d.slotBegin(t, invs)
	d.slotFinish()
}

// slotBegin is phases 1-2: retrain boundary, cold-start accounting, Tick.
// The slot stays open until slotFinish accounts it.
func (d *Driver) slotBegin(t int, invs []trace.FuncCount) {
	if d.retrainer != nil && t > 0 && t%d.retrainEvery == 0 {
		d.retrainer.Retrain(t, d.window(t, d.retrainWin))
	}

	// Phase 1: cold-start accounting against the pre-Tick loaded set. In
	// delta mode the tracked mirror equals policy.Loaded and spares an
	// interface call per invocation.
	if d.collectCold {
		d.cold = d.cold[:0]
	}
	if d.tracker != nil {
		for _, fc := range invs {
			m := &d.res.PerFunc[fc.Func]
			m.Invocations += int64(fc.Count)
			m.InvokedSlot++
			if !d.loaded[fc.Func] {
				m.ColdStarts++
				d.res.TotalColdStarts++
				if d.collectCold {
					d.cold = append(d.cold, fc.Func)
				}
			}
		}
	} else {
		for _, fc := range invs {
			m := &d.res.PerFunc[fc.Func]
			m.Invocations += int64(fc.Count)
			m.InvokedSlot++
			if !d.policy.Loaded(fc.Func) {
				m.ColdStarts++
				d.res.TotalColdStarts++
				if d.collectCold {
					d.cold = append(d.cold, fc.Func)
				}
			}
			d.invokedAt[fc.Func] = true
		}
	}
	d.res.TotalInvocations += funcCountTotal(invs)
	d.res.TotalInvokedSlot += int64(len(invs))

	// Phase 2: let the policy observe and re-provision. The wall clock is
	// read only to annotate Overhead — it never feeds a decision.
	if d.measureOverhead {
		start := time.Now()
		d.policy.Tick(t, invs)
		d.res.Overhead += time.Since(start)
	} else {
		d.policy.Tick(t, invs)
	}

	d.pendingSlot = t
	d.pendingInvs = invs
	d.midSlot = true
}

// slotFinish is phase 3: memory/WMT/EMCR accounting on the post-Tick loaded
// set — which, under the capacity engine, includes the arbiter's evictions,
// so the flips consumed here carry the Tick's loads and the global evictions
// as one slot's deltas.
func (d *Driver) slotFinish() {
	if !d.midSlot {
		return
	}
	t, invs := d.pendingSlot, d.pendingInvs
	d.pendingInvs = nil
	d.midSlot = false

	loadedCount := d.policy.LoadedCount()
	d.res.TotalMemory += int64(loadedCount)
	if loadedCount > d.res.MaxLoaded {
		d.res.MaxLoaded = loadedCount
	}

	d.flips = nil
	if d.tracker != nil {
		// Each delta entry is one flip; toggling replays the Tick's
		// loaded-set changes exactly. An unload closes the residency
		// [loadedFrom, t-1] and charges its idle minutes (length minus the
		// invoked-while-loaded slots) in one step.
		deltas := d.tracker.TakeLoadDeltas()
		d.flips = deltas
		for _, fid := range deltas {
			if d.loaded[fid] {
				d.loaded[fid] = false
				d.res.PerFunc[fid].WMTMinutes +=
					int64(t) - int64(d.loadedFrom[fid]) - int64(d.invokedLoaded[fid])
				d.invokedLoaded[fid] = 0
			} else {
				d.loaded[fid] = true
				d.loadedFrom[fid] = int32(t)
			}
		}
	}

	activeLoaded := 0
	if d.tracker != nil {
		for _, fc := range invs {
			if d.loaded[fc.Func] {
				activeLoaded++
				d.invokedLoaded[fc.Func]++
			}
		}
	} else {
		for _, fc := range invs {
			if d.policy.Loaded(fc.Func) {
				activeLoaded++
			}
		}
	}
	if d.log != nil {
		d.log.loaded = append(d.log.loaded, int32(loadedCount))
		d.log.active = append(d.log.active, int32(activeLoaded))
	}
	idle := loadedCount - activeLoaded
	if idle < 0 {
		// A policy evicting a function in the same slot it was invoked
		// cannot push idle below zero; guard against miscounting bugs.
		idle = 0
	}
	d.res.TotalWMT += int64(idle)
	if loadedCount > 0 {
		d.res.EMCRSum += float64(activeLoaded) / float64(loadedCount)
		d.res.EMCRSlots++
	}

	// Dense fallback: charge idle minutes to the loaded-but-not-invoked
	// functions by scanning the whole population.
	if d.tracker == nil {
		for fid := range d.invokedAt {
			if d.policy.Loaded(trace.FuncID(fid)) && !d.invokedAt[fid] {
				d.res.PerFunc[fid].WMTMinutes++
			}
		}
		for _, fc := range invs {
			d.invokedAt[fc.Func] = false
		}
	}

	if d.progress != nil && d.progressEvery > 0 && t%d.progressEvery == 0 {
		d.progress(t)
	}
}

// Grow extends the driver's per-function state to n functions, for live
// admission: the new functions start unloaded with zero metrics, exactly
// like a batch run whose trace always contained them with no events. The
// policy must have been grown first (core.SPES.Admit).
func (d *Driver) Grow(n int) {
	for len(d.res.PerFunc) < n {
		d.res.PerFunc = append(d.res.PerFunc, FuncMetrics{})
	}
	d.res.Functions = n
	if d.tracker != nil {
		for len(d.loaded) < n {
			d.loaded = append(d.loaded, false)
			d.loadedFrom = append(d.loadedFrom, 0)
			d.invokedLoaded = append(d.invokedLoaded, 0)
		}
	} else {
		for len(d.invokedAt) < n {
			d.invokedAt = append(d.invokedAt, false)
		}
	}
}

// Close advances through any remaining invocation-free slots so the run
// spans exactly `slots` slots, closes the residencies still open, labels
// types, and returns the accumulated Result. The driver cannot Step again.
func (d *Driver) Close(slots int) *Result {
	if !d.closed {
		d.advanceTo(slots)
		d.next = slots
		d.closed = true
		if d.tracker != nil {
			for fid := range d.loaded {
				if d.loaded[fid] {
					d.res.PerFunc[fid].WMTMinutes +=
						int64(slots) - int64(d.loadedFrom[fid]) - int64(d.invokedLoaded[fid])
				}
			}
		}
		d.res.Slots = slots
		n := len(d.res.PerFunc)
		if tagger, ok := d.policy.(TypeTagger); ok {
			d.res.Types = make([]string, n)
			for fid := 0; fid < n; fid++ {
				d.res.Types[fid] = tagger.TypeOf(trace.FuncID(fid))
			}
		}
	}
	return d.res
}
