package sim

import (
	"sort"

	"repro/internal/par"
	"repro/internal/trace"
)

// retrainEffectiveWindow resolves Options.RetrainWindow: 0 defaults to the
// training window length (the retrained categorization sees as much history
// as the offline phase did), or to RetrainEvery when there is no training
// trace.
func (o Options) retrainEffectiveWindow(training *trace.Trace) int {
	if o.RetrainWindow > 0 {
		return o.RetrainWindow
	}
	if training != nil && training.Slots > 0 {
		return training.Slots
	}
	return o.RetrainEvery
}

// retrainChunk is the window build's work unit: functions are handed out in
// fixed chunks so the fan-out's atomic hand-off stays noise.
const retrainChunk = 256

// retrainWindow builds the sliding-window trace handed to Retrainer.Retrain
// at simulation slot t: w slots of history ending just before t, re-based
// so window slot 0 is simulation slot t-w. Slots still inside the training
// trace (t < w) are filled from it; anything before recorded history is
// empty. Function metadata is shared with the simulation trace — only the
// window's event slices are fresh — so the build costs O(events in window):
// each function's window series is one exact-sized copy, its training part
// and its live part re-based in a single pass, and empty windows stay nil.
// Functions are independent, so the build fans out over the shared worker
// budget (internal/par), which concurrent shard retrains draw from too.
func retrainWindow(training, simTrace *trace.Trace, t, w int) *trace.Trace {
	n := len(simTrace.Series)
	win := &trace.Trace{Slots: w, Functions: simTrace.Functions, Series: make([]trace.Series, n)}
	a := t - w // simulation-timeline slot where the window begins
	par.Do(0, (n+retrainChunk-1)/retrainChunk, func(k int) {
		lo, hi := k*retrainChunk, min((k+1)*retrainChunk, n)
		for fid := lo; fid < hi; fid++ {
			var pre trace.Series
			preFrom := int32(0)
			if a < 0 && training != nil {
				// Training slot trainSlots+a lands at window slot 0; a
				// negative start (a window reaching before recorded history)
				// clamps to the series start.
				preFrom = int32(training.Slots + a)
				pre = slotRange(training.Series[fid], preFrom, int32(training.Slots))
			}
			// Live slot a lands at window slot 0; for a < 0 that is every
			// live event before t, shifted up by -a.
			live := slotRange(simTrace.Series[fid], int32(a), int32(t))
			if len(pre)+len(live) == 0 {
				continue
			}
			out := make(trace.Series, len(pre)+len(live))
			for i, e := range pre {
				out[i] = trace.Event{Slot: e.Slot - preFrom, Count: e.Count}
			}
			for i, e := range live {
				out[len(pre)+i] = trace.Event{Slot: e.Slot - int32(a), Count: e.Count}
			}
			win.Series[fid] = out
		}
	})
	return win
}

// slotRange returns the events of s with slots in [from, to), not copied.
func slotRange(s trace.Series, from, to int32) trace.Series {
	lo := sort.Search(len(s), func(i int) bool { return s[i].Slot >= from })
	hi := lo + sort.Search(len(s)-lo, func(i int) bool { return s[lo+i].Slot >= to })
	return s[lo:hi]
}
