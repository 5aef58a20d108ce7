package classify

import (
	"sort"
	"sync"

	"repro/internal/par"
	"repro/internal/series"
	"repro/internal/trace"
)

// catChunk is the per-function pass's work-unit size: large enough that the
// atomic hand-off is noise, small enough to balance skewed populations
// (dense always-warm series cost far more than silent ones).
const catChunk = 512

// Outcome is the offline categorization result for an entire trace.
type Outcome struct {
	Profiles []Profile // indexed by trace.FuncID
}

// Count returns how many functions landed in each type.
func (o *Outcome) Count() map[Type]int {
	counts := make(map[Type]int)
	for _, p := range o.Profiles {
		counts[p.Type]++
	}
	return counts
}

// Categorize runs SPES's complete offline phase over a training trace:
// deterministic categorization with forgetting, correlation mining over
// application/user co-membership, and validation-scored indeterminate
// assignment. Ablation switches: disableCorrelation drops the correlated
// strategy (Fig. 14's "w/o Corr"), disableForgetting skips the forgetting
// rule (Fig. 15's "w/o Forgetting").
func Categorize(training *trace.Trace, cfg Config, disableCorrelation, disableForgetting bool) *Outcome {
	n := training.NumFunctions()
	out := &Outcome{Profiles: make([]Profile, n)}
	valStart := int(float64(training.Slots) * (1 - cfg.ValidationFrac))
	if valStart <= 0 || valStart >= training.Slots {
		valStart = training.Slots / 2
	}

	// Pass 1: deterministic (with forgetting), collecting the leftovers.
	// Activities come straight from the sparse event series — O(events per
	// function), not O(slots) — so the pass costs nothing for the mostly-idle
	// long tail of a large population. Functions are independent, so the pass
	// fans out over fixed chunks; each chunk owns its output slots and its
	// leftover list, and the chunk-order concatenation below restores the
	// exact serial ordering, making the outcome identical for any worker
	// count. Each chunk also lays out its functions' slot sets and
	// validation fires for the link mining and strategy scoring below.
	chunks := (n + catChunk - 1) / catChunk
	words := slotWords(training.Slots)
	sets := make([]slotSet, n)
	valFires := make([][]int32, n) // validation-window fires, re-based to valStart
	indetFids := make([][]trace.FuncID, chunks)
	indetChunkActs := make([][]series.Activity, chunks)
	actPool := sync.Pool{New: func() any { return new(actScratch) }}
	par.Do(cfg.Workers, chunks, func(k int) {
		lo, hi := k*catChunk, min((k+1)*catChunk, n)
		buildSlotSets(training.Series[lo:hi], words, valStart, sets[lo:hi], valFires[lo:hi])
		sc := actPool.Get().(*actScratch)
		defer actPool.Put(sc)
		for fid := lo; fid < hi; fid++ {
			s := training.Series[fid]
			if len(s) == 0 {
				out.Profiles[fid] = Profile{Type: TypeUnknown}
				continue
			}
			// Always-warm resolves straight off the series (definition 1 is
			// tested on the full window first under both paths), sparing the
			// heaviest functions — the ones with events in nearly every slot —
			// the full extraction.
			p, ok := alwaysWarmFast(s, training.Slots, cfg)
			var act series.Activity
			if !ok {
				act = sc.extractWindow(s, 0, training.Slots)
				if disableForgetting {
					p, ok = categorizeActivity(act, cfg, sc)
				} else {
					p, ok = categorizeWithForgettingSparse(s, act, cfg, sc)
				}
			}
			if ok {
				out.Profiles[fid] = p
				continue
			}
			indetFids[k] = append(indetFids[k], trace.FuncID(fid))
			indetChunkActs[k] = append(indetChunkActs[k], cloneActivity(act))
		}
	})
	var indeterminate []trace.FuncID
	var indetActs []series.Activity // full-window activities, parallel to indeterminate
	for k := range indetFids {
		indeterminate = append(indeterminate, indetFids[k]...)
		indetActs = append(indetActs, indetChunkActs[k]...)
	}
	if len(indeterminate) == 0 {
		return out
	}

	// Candidate sets: functions sharing an application or a user.
	apps := training.AppFunctions()
	users := training.UserFunctions()
	meta := training.Functions

	// Targets are mutually independent (each writes only its own profile
	// slot, all mined state is read-only), so the assignment fans out too;
	// each worker borrows its link-mining scratch from the pool rather than
	// sharing one.
	valSlots := training.Slots - valStart
	linkPool := sync.Pool{New: func() any { return newLinkScratch(n, words, valSlots, cfg) }}
	par.Do(cfg.Workers, len(indeterminate), func(i int) {
		fid := indeterminate[i]
		sc := linkPool.Get().(*linkScratch)
		defer linkPool.Put(sc)
		var links []Link
		var candFires [][]int32
		if !disableCorrelation {
			links = mineLinks(fid, sets, apps[meta[fid].App], users[meta[fid].User], cfg, sc)
			candFires = make([][]int32, len(links))
			for j, l := range links {
				candFires[j] = valFires[l.Cand]
			}
		}
		out.Profiles[fid] = assignIndeterminateActivity(indetActs[i], valFires[fid],
			valSlots, links, candFires, cfg, sc.cover)
	})
	return out
}

// slotSet is one function's invoked training slots in the smaller of two
// exact forms: an ascending slot list, or — once the function fires in more
// than 2*words slots, where 8*words bytes of bitset undercut 4 bytes per
// listed slot — a bitset (bitset.go). So the sets of a whole population
// take at most min(4*events, 8*words) bytes per function.
type slotSet struct {
	n    int      // invoked slots
	list []int32  // ascending slots; nil when bits is set
	bits []uint64 // slot bitset of a dense function; nil when sparse
}

// buildSlotSets lays out the slot sets and validation fires (slots at or
// after valStart, re-based to it) of a run of functions. Every output is an
// exact-sized view into one of three backing arrays sized for the whole
// run, so a chunk of functions costs three allocations; functions without
// events (or without validation fires) keep nil.
func buildSlotSets(ss []trace.Series, words, valStart int, sets []slotSet, valFires [][]int32) {
	nList, nBits, nVal := 0, 0, 0
	for _, s := range ss {
		if len(s) > 2*words {
			nBits += words
		} else {
			nList += len(s)
		}
		nVal += len(s) - valIndex(s, valStart)
	}
	lists := make([]int32, nList)
	bitsBacking := make([]uint64, nBits)
	vals := make([]int32, nVal)
	for i, s := range ss {
		sets[i].n = len(s)
		switch {
		case len(s) > 2*words:
			b := bitsBacking[:words:words]
			bitsBacking = bitsBacking[words:]
			for _, e := range s {
				b[e.Slot>>6] |= 1 << (uint(e.Slot) & 63)
			}
			sets[i].bits = b
		case len(s) > 0:
			l := lists[:len(s):len(s)]
			lists = lists[len(s):]
			for j, e := range s {
				l[j] = e.Slot
			}
			sets[i].list = l
		}
		tail := s[valIndex(s, valStart):]
		if len(tail) == 0 {
			continue
		}
		v := vals[:len(tail):len(tail)]
		vals = vals[len(tail):]
		for j, e := range tail {
			v[j] = e.Slot - int32(valStart)
		}
		valFires[i] = v
	}
}

// valIndex returns the index of s's first event at or after slot valStart.
func valIndex(s trace.Series, valStart int) int {
	return sort.Search(len(s), func(i int) bool { return int(s[i].Slot) >= valStart })
}

// cloneActivity returns a copy of act whose AT, AN and WT share one
// exactly-sized backing array of their own.
func cloneActivity(act series.Activity) series.Activity {
	backing := make([]int, len(act.AT)+len(act.AN)+len(act.WT))
	out := act
	out.AT = backing[:len(act.AT):len(act.AT)]
	copy(out.AT, act.AT)
	backing = backing[len(act.AT):]
	out.AN = backing[:len(act.AN):len(act.AN)]
	copy(out.AN, act.AN)
	if act.WT != nil {
		out.WT = backing[len(act.AN):]
		copy(out.WT, act.WT)
	}
	return out
}

// extractWindow computes the series.Activity of the window [start,
// start+slots) of a sparse event series, reproducing
// series.Extract(dense[start:]) bit for bit in O(events in window) time.
// It relies on the trace.Series invariants: ascending unique slots,
// positive counts. AT, AN and WT live in scratch run buffers, so the
// activity is valid until the next extraction into sc.
func (sc *actScratch) extractWindow(s trace.Series, start, slots int) series.Activity {
	a := series.Activity{Slots: slots}
	i := sort.Search(len(s), func(i int) bool { return int(s[i].Slot) >= start })
	evs := s[i:]
	if len(evs) == 0 {
		a.LeadingIdle = slots
		return a
	}
	at, an, wt := sc.at[:0], sc.an[:0], sc.wt[:0]
	first := int(evs[0].Slot) - start
	a.LeadingIdle = first
	runStart := first
	runSum := 0
	prev := first - 1 // window-relative slot of the previous event
	for _, e := range evs {
		slot := int(e.Slot) - start
		c := int(e.Count)
		a.Invocations += c
		if slot == prev+1 {
			runSum += c
		} else {
			at = append(at, prev-runStart+1)
			an = append(an, runSum)
			wt = append(wt, slot-prev-1)
			runStart = slot
			runSum = c
		}
		prev = slot
	}
	at = append(at, prev-runStart+1)
	an = append(an, runSum)
	sc.at, sc.an, sc.wt = at, an, wt
	a.AT, a.AN = at, an
	if len(wt) > 0 {
		a.WT = wt
	}
	a.TrailingIdle = slots - prev - 1
	return a
}

// seriesExtract is a full-window extraction annotated with per-run metadata
// so forgetting-suffix activities can be derived without re-scanning the
// events: a suffix shares the full window's WT/AT/AN tails (zero-copy when
// the cut lands between runs), and only a run straddling the cut needs its
// length and invocation sum recomputed.
type seriesExtract struct {
	act       series.Activity
	events    trace.Series
	runStarts []int32 // absolute first slot of each run
	runEvIdx  []int32 // index into events of each run's first event
	prefixInv []int   // prefixInv[r] = total invocations of runs [0, r)
	slots     int
	sc        *actScratch // holds the metadata and straddling-run buffers
}

// alwaysWarmFast evaluates the always-warm definition straight off the
// sparse series — every event is one active slot, so the active-slot count
// is len(s) and the summed inter-run idle is the span minus it — returning
// the profile without materializing an Activity. It is exact: the condition
// and the resulting profile match categorizeActivity's branch 1.
func alwaysWarmFast(s trace.Series, slots int, cfg Config) (Profile, bool) {
	active := len(s)
	if active == 0 {
		return Profile{}, false
	}
	totalWT := int(s[active-1].Slot-s[0].Slot) + 1 - active
	if active == slots ||
		(float64(totalWT) <= cfg.AlwaysWarmIdleFrac*float64(slots) &&
			float64(active) >= 0.5*float64(slots)) {
		runs := 1
		for i := 1; i < active; i++ {
			if s[i].Slot != s[i-1].Slot+1 {
				runs++
			}
		}
		return Profile{Type: TypeAlwaysWarm, WTCount: runs - 1}, true
	}
	return Profile{}, false
}

// extractMeta annotates an existing full-window Activity with the run
// metadata suffix derivation needs, in sc's metadata buffers.
func (sc *actScratch) extractMeta(s trace.Series, slots int, act series.Activity) seriesExtract {
	se := seriesExtract{act: act, events: s, slots: slots, sc: sc}
	runs := len(se.act.AT)
	sc.starts = append(sc.starts[:0], make([]int32, runs)...)
	sc.evIdx = append(sc.evIdx[:0], make([]int32, runs)...)
	sc.prefix = append(sc.prefix[:0], make([]int, runs+1)...)
	se.runStarts, se.runEvIdx, se.prefixInv = sc.starts, sc.evIdx, sc.prefix
	r := 0
	for i, e := range s {
		if i == 0 || e.Slot != s[i-1].Slot+1 {
			se.runStarts[r] = e.Slot
			se.runEvIdx[r] = int32(i)
			se.prefixInv[r+1] = se.prefixInv[r] + se.act.AN[r]
			r++
		}
	}
	return se
}

// suffix derives the Activity of the window [start, slots), bit-identical to
// extractWindow(s, start, slots-start). A run straddling the cut is rebuilt
// in the scratch cut buffer, valid until the next suffix.
func (se *seriesExtract) suffix(start int) series.Activity {
	w := se.slots - start
	runs := len(se.act.AT)
	// First run ending at or after start.
	r := sort.Search(runs, func(i int) bool {
		return int(se.runStarts[i])+se.act.AT[i] > start
	})
	if r == runs {
		return series.Activity{Slots: w, LeadingIdle: w}
	}
	a := series.Activity{
		Slots:        w,
		TrailingIdle: se.act.TrailingIdle,
		Invocations:  se.prefixInv[runs] - se.prefixInv[r],
	}
	if r+1 < runs {
		a.WT = se.act.WT[r:]
	}
	if int(se.runStarts[r]) >= start {
		// Clean cut between runs: the tails are shared as-is.
		a.LeadingIdle = int(se.runStarts[r]) - start
		a.AT = se.act.AT[r:]
		a.AN = se.act.AN[r:]
		return a
	}
	// Run r straddles the cut: rebuild its truncated length and count.
	n := runs - r
	se.sc.cut = append(se.sc.cut[:0], make([]int, 2*n)...)
	backing := se.sc.cut
	a.AT = backing[:n:n]
	a.AN = backing[n:]
	copy(a.AT, se.act.AT[r:])
	copy(a.AN, se.act.AN[r:])
	runEnd := int(se.runStarts[r]) + se.act.AT[r] // one past the run's last slot
	a.AT[0] = runEnd - start
	dropped := 0
	for i := se.runEvIdx[r]; int(se.events[i].Slot) < start; i++ {
		dropped += int(se.events[i].Count)
	}
	a.AN[0] -= dropped
	a.Invocations -= dropped
	return a
}

// categorizeWithForgettingSparse is CategorizeWithForgetting fed from the
// sparse event series: the full window is extracted once (O(events)), and
// each forgetting suffix reuses its run structure instead of re-scanning.
// The run metadata is only built when the full window fails to categorize,
// which the majority of functions never reach.
func categorizeWithForgettingSparse(s trace.Series, act series.Activity, cfg Config, sc *actScratch) (Profile, bool) {
	slots := act.Slots
	if p, ok := categorizeActivity(act, cfg, sc); ok {
		return p, true
	}
	days := slots / cfg.SlotsPerDay
	if days/2 < 1 {
		return Profile{}, false
	}
	se := sc.extractMeta(s, slots, act)
	for drop := 1; drop <= days/2; drop++ {
		if p, ok := categorizeActivity(se.suffix(drop*cfg.SlotsPerDay), cfg, sc); ok {
			return p, true
		}
	}
	return Profile{}, false
}

// linkScratch is one worker's reusable link-mining and scoring state.
type linkScratch struct {
	// seen/gen deduplicate candidates across a target's app and user peer
	// lists without a per-target map: a candidate is seen when its stamp
	// matches the current generation.
	seen []uint32
	gen  uint32
	// tBits and cBits hold a sparse target's or candidate's slots as a
	// bitset when the other side of a pair is dense; both are all-zero
	// between uses (clearSlots).
	tBits, cBits []uint64
	// dilated is the target's slots dilated by the follow-rate slack, long
	// enough for bit c+lag of every candidate slot c at every lag.
	dilated []uint64
	// cover is scoreCorrelated's coverage bitset over the validation
	// window.
	cover []uint64
}

func newLinkScratch(n, words, valSlots int, cfg Config) *linkScratch {
	return &linkScratch{
		seen:    make([]uint32, n),
		tBits:   make([]uint64, words),
		cBits:   make([]uint64, words),
		dilated: make([]uint64, words+slotWords(int(max(cfg.MaxLag, 0)))),
		cover:   make([]uint64, slotWords(valSlots)),
	}
}

// dilate returns target dilated by slack (dilateBits) in the scratch
// dilation buffer.
func (sc *linkScratch) dilate(target []uint64, slack int32) []uint64 {
	clear(sc.dilated)
	dilateBits(sc.dilated, target, int(slack))
	return sc.dilated
}

// followSlack is the window half-width of the precision gate: the pre-warm
// the validation scoring assumes.
func (cfg Config) followSlack() int32 {
	if cfg.ValidationPrewarm > 0 {
		return int32(cfg.ValidationPrewarm)
	}
	return int32(cfg.ThetaPrewarm)
}

// mineLinks computes T-lagged COR between the target and every candidate
// sharing its application or user, accepting candidates whose best lagged
// COR clears the threshold. Links are ordered by descending COR and capped
// at a small fan-in to bound online work.
//
// A pair of sparse functions runs the sparse merges (BestLaggedCOR,
// FollowRate); a pair with a dense side runs the bitset kernels, with the
// sparse side's slots set into scratch. Both count the same integer hits
// and divide them the same way, so the outcome does not depend on which
// ran.
func mineLinks(target trace.FuncID, sets []slotSet, appPeers, userPeers []trace.FuncID, cfg Config, sc *linkScratch) []Link {
	const maxLinks = 5
	ts := &sets[target]
	if ts.n == 0 {
		return nil
	}
	sc.gen++
	sc.seen[target] = sc.gen
	slack := cfg.followSlack()
	// A target slot t is "followed" by the candidate slots c in
	// [t-lag-slack, t-lag+slack], so a follow rate counts at most
	// maxFollow hits: an exact bound that rejects a candidate too busy for
	// the target before any scan.
	maxFollow := ts.n * max(0, 2*int(slack)+1)
	tBits, dilated := ts.bits, []uint64(nil) // set up on first use
	type scored struct {
		link Link
		cor  float64
	}
	var accepted []scored
	consider := func(cand trace.FuncID) {
		if sc.seen[cand] == sc.gen {
			return
		}
		sc.seen[cand] = sc.gen
		cs := &sets[cand]
		if cs.n == 0 {
			return
		}
		// A lag's hit count can't exceed the candidate's invocation count,
		// so a candidate too quiet relative to the target can never clear
		// the COR threshold — skip the lag scan.
		if float64(cs.n) < cfg.CORThreshold*float64(ts.n) {
			return
		}
		// Likewise the precision gate below can never pass.
		if float64(maxFollow)/float64(cs.n) < cfg.LinkPrecision {
			return
		}
		var lag int32
		var cor, follow float64
		if ts.bits == nil && cs.bits == nil {
			lag, cor = BestLaggedCOR(ts.list, cs.list, cfg.MaxLag)
			if cor < cfg.CORThreshold {
				return
			}
			follow = FollowRate(cs.list, ts.list, lag, slack)
		} else {
			if tBits == nil {
				tBits = sc.tBits
				setSlots(tBits, ts.list)
			}
			cBits := cs.bits
			if cBits == nil {
				cBits = sc.cBits
				setSlots(cBits, cs.list)
				defer clearSlots(cBits, cs.list)
			}
			lag, cor = bestLaggedCORBits(tBits, cBits, ts.n, cfg.MaxLag)
			if cor < cfg.CORThreshold {
				return
			}
			if dilated == nil {
				dilated = sc.dilate(tBits, slack)
			}
			follow = followRateBits(cBits, dilated, cs.n, lag)
		}
		// Precision gate: most of the candidate's fires must actually
		// precede a target invocation, otherwise pre-loading on its fires
		// wastes memory continuously.
		if follow < cfg.LinkPrecision {
			return
		}
		accepted = append(accepted, scored{link: Link{Cand: int32(cand), Lag: lag}, cor: cor})
	}
	for _, c := range appPeers {
		consider(c)
	}
	for _, c := range userPeers {
		consider(c)
	}
	if ts.bits == nil && tBits != nil {
		clearSlots(tBits, ts.list)
	}
	sort.Slice(accepted, func(i, j int) bool {
		if accepted[i].cor != accepted[j].cor {
			return accepted[i].cor > accepted[j].cor
		}
		return accepted[i].link.Cand < accepted[j].link.Cand
	})
	if len(accepted) > maxLinks {
		accepted = accepted[:maxLinks]
	}
	links := make([]Link, len(accepted))
	for i, a := range accepted {
		links[i] = a.link
	}
	return links
}
