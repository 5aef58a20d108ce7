package classify

import (
	"cmp"
	"slices"

	"repro/internal/series"
	"repro/internal/stats"
)

// Indeterminate assignment (Section IV-B2): functions that match none of
// the five deterministic definitions (even after forgetting) are scored
// under three supplementary strategies on a validation slice, and assigned
// to whichever wins the cold-start / wasted-memory trade-off.

// StrategyCost is a strategy's validation outcome for one function.
type StrategyCost struct {
	ColdStarts int
	WastedMem  int
	Feasible   bool
}

// scorePulsed simulates the pulsed strategy over a function's invoked slots
// within [0, slots): tolerate a cold start when a flurry begins, keep the
// function warm until its idle time reaches thetaGivenup.
func scorePulsed(invoked []int32, slots int, thetaGivenup int) StrategyCost {
	cost := StrategyCost{Feasible: true}
	if len(invoked) == 0 {
		return cost
	}
	cost.ColdStarts = 1 // the first invocation is always cold
	for i := 1; i < len(invoked); i++ {
		gap := int(invoked[i]-invoked[i-1]) - 1
		if gap >= thetaGivenup {
			// Evicted after thetaGivenup idle slots; those idle slots up to
			// the eviction (exclusive) were wasted.
			cost.WastedMem += thetaGivenup - 1
			cost.ColdStarts++
		} else {
			cost.WastedMem += gap
		}
	}
	// Trailing idle until window end.
	trailing := slots - int(invoked[len(invoked)-1]) - 1
	if trailing > 0 {
		waste := thetaGivenup - 1
		if trailing < waste {
			waste = trailing
		}
		cost.WastedMem += waste
	}
	return cost
}

// scorePossible simulates the possible strategy: predictive values are the
// duplicated WTs; the function is pre-loaded when a predicted invocation
// falls within thetaPrewarm, and evicted after thetaGivenup idle slots.
func scorePossible(invoked []int32, slots int, values []int, thetaPrewarm, thetaGivenup int) StrategyCost {
	if len(values) == 0 {
		return StrategyCost{Feasible: false}
	}
	cost := StrategyCost{Feasible: true}
	if len(invoked) == 0 {
		return cost
	}
	cost.ColdStarts = 1
	type span struct{ lo, hi int }
	spans := make([]span, 0, len(values))
	for i := 1; i < len(invoked); i++ {
		prev, cur := int(invoked[i-1]), int(invoked[i])
		gap := cur - prev - 1

		warm := gap < thetaGivenup
		// Pre-load windows: [prev+v-thetaPrewarm, prev+v+thetaPrewarm] per
		// predictive value v. The invocation is warm when it lands inside
		// one; idle slots covered by windows before cur are waste.
		spans = spans[:0]
		for _, v := range values {
			pred := prev + v
			lo, hi := pred-thetaPrewarm, pred+thetaPrewarm
			if cur >= lo && cur <= hi {
				warm = true
			}
			// Clip the waste span to the idle gap (prev, cur).
			if lo < prev+1 {
				lo = prev + 1
			}
			if hi > cur-1 {
				hi = cur - 1
			}
			if lo <= hi {
				spans = append(spans, span{lo, hi})
			}
		}
		if warm {
			if gap < thetaGivenup {
				cost.WastedMem += gap
			}
		} else {
			cost.ColdStarts++
			if thetaGivenup-1 < gap {
				cost.WastedMem += thetaGivenup - 1
			} else {
				cost.WastedMem += gap
			}
		}
		// Merged pre-load coverage inside the gap (waste beyond keep-alive).
		if len(spans) > 0 {
			// Equal-lo spans may land in any order: the union is the same.
			slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
			covered := 0
			curLo, curHi := spans[0].lo, spans[0].hi
			for _, s := range spans[1:] {
				if s.lo > curHi+1 {
					covered += curHi - curLo + 1
					curLo, curHi = s.lo, s.hi
				} else if s.hi > curHi {
					curHi = s.hi
				}
			}
			covered += curHi - curLo + 1
			// Keep-alive waste already charged the first thetaGivenup-1
			// idle slots; only count pre-load coverage beyond it.
			beyond := covered - (thetaGivenup - 1)
			if beyond > 0 {
				cost.WastedMem += beyond
			}
		}
	}
	return cost
}

// scoreCorrelated simulates the correlated strategy: each linked candidate
// firing at slot c pre-loads the target during [c+lag-prewarm, c+lag+prewarm]
// (clipped to c+1..), the window the online provision would hold it for. An
// invocation is warm when some candidate's window covers it; covered slots
// not carrying a target invocation are waste. The windows are unioned in a
// coverage bitset over the scored slots, so overlapping windows count once:
// cold starts are the target slots outside the union, waste the union's
// slots minus the covered target slots. cover is reusable scratch; it is
// replaced when shorter than the slots need.
func scoreCorrelated(target []int32, candFires [][]int32, lags []int32, slots int, thetaPrewarm int32, cover []uint64) StrategyCost {
	if len(candFires) == 0 {
		return StrategyCost{Feasible: false}
	}
	if words := slotWords(slots); len(cover) < words {
		cover = make([]uint64, words)
	} else {
		cover = cover[:words]
		clear(cover)
	}
	covered := 0 // union size
	for i, fires := range candFires {
		lag := int32(1)
		if i < len(lags) && lags[i] > 0 {
			lag = lags[i]
		}
		for _, c := range fires {
			lo, hi := c+lag-thetaPrewarm, c+lag+thetaPrewarm
			if lo <= c {
				lo = c + 1
			}
			if hi >= int32(slots) {
				hi = int32(slots) - 1
			}
			for x := lo; x <= hi; x++ {
				w, b := &cover[x>>6], uint64(1)<<(uint(x)&63)
				if *w&b == 0 {
					*w |= b
					covered++
				}
			}
		}
	}
	if covered == 0 {
		return StrategyCost{Feasible: false}
	}
	cost := StrategyCost{Feasible: true, WastedMem: covered}
	for _, t := range target {
		if t >= 0 && int(t) < slots && cover[t>>6]&(1<<(uint(t)&63)) != 0 {
			cost.WastedMem--
		} else {
			cost.ColdStarts++
		}
	}
	return cost
}

// ChooseStrategy applies the assignment rule of Section IV-B2: a strategy
// that minimizes both cold starts and wasted memory wins outright;
// otherwise the rise rates between the cold-start winner and the memory
// winner are compared under the scaling factor alpha (smaller alpha puts
// more weight on cold starts). The returned index is into costs; -1 means
// no strategy was feasible.
func ChooseStrategy(costs []StrategyCost, alpha float64) int {
	csWinner, wmWinner := -1, -1
	for i, c := range costs {
		if !c.Feasible {
			continue
		}
		if csWinner < 0 || c.ColdStarts < costs[csWinner].ColdStarts {
			csWinner = i
		}
		if wmWinner < 0 || c.WastedMem < costs[wmWinner].WastedMem {
			wmWinner = i
		}
	}
	if csWinner < 0 {
		return -1
	}
	if csWinner == wmWinner {
		return csWinner
	}
	// Rise rate of cold starts if we pick the memory winner, and of memory
	// if we pick the cold-start winner. Guard denominators: a zero-cost
	// winner makes the other side's rise rate infinite.
	dcs := riseRate(costs[wmWinner].ColdStarts, costs[csWinner].ColdStarts)
	dwm := riseRate(costs[csWinner].WastedMem, costs[wmWinner].WastedMem)
	if dcs*alpha <= dwm {
		return csWinner
	}
	return wmWinner
}

// riseRate returns the relative increase from best to worse. A zero best is
// clamped to one so a perfect strategy yields a large-but-finite rise rate
// instead of the paper formula's division by zero.
func riseRate(worse, best int) float64 {
	if worse < best {
		worse = best
	}
	denom := best
	if denom == 0 {
		denom = 1
	}
	return float64(worse-best) / float64(denom)
}

// AssignIndeterminate scores the three supplementary strategies for one
// function and returns its profile. counts is the function's full training
// sequence; valStart is the slot where the validation slice begins; links
// holds its accepted correlations (already thresholded); candFires the
// validation-window invoked slots of each linked candidate.
func AssignIndeterminate(counts []int, valStart int, links []Link, candFires [][]int32, cfg Config) Profile {
	act := series.Extract(counts)

	// Validation-window invoked slots of the target.
	var valInvoked []int32
	for _, s := range series.InvokedSlots(counts[valStart:]) {
		valInvoked = append(valInvoked, int32(s))
	}
	return assignIndeterminateActivity(act, valInvoked, len(counts)-valStart, links, candFires, cfg, nil)
}

// assignIndeterminateActivity is AssignIndeterminate over pre-extracted
// inputs: the function's full-window Activity and its validation-window
// invoked slots (rebased to the validation start), letting the offline phase
// skip the dense per-slot expansion entirely. cover is scoreCorrelated's
// scratch (nil allocates).
func assignIndeterminateActivity(act series.Activity, valInvoked []int32, valSlots int, links []Link, candFires [][]int32, cfg Config, cover []uint64) Profile {
	possibleValues := stats.RepeatedValues(act.WT)

	if len(valInvoked) == 0 {
		// Never invoked during validation: no basis for scoring. Fall back
		// on static structure, preferring informative strategies.
		switch {
		case len(possibleValues) > 0:
			return possibleProfile(act, possibleValues)
		case len(links) > 0:
			return Profile{Type: TypeCorrelated, Links: links, WTCount: len(act.WT)}
		case act.Invocations == 0:
			return Profile{Type: TypeUnknown}
		default:
			return Profile{Type: TypePulsed, WTCount: len(act.WT)}
		}
	}

	lags := make([]int32, len(links))
	for i, l := range links {
		lags[i] = l.Lag
	}
	prewarm := cfg.ValidationPrewarm
	if prewarm <= 0 {
		prewarm = cfg.ThetaPrewarm
	}
	costs := []StrategyCost{
		scorePulsed(valInvoked, valSlots, cfg.ThetaGivenup(TypePulsed)),
		scoreCorrelated(valInvoked, candFires, lags, valSlots, int32(prewarm), cover),
		scorePossible(valInvoked, valSlots, possibleValues, prewarm, cfg.ThetaGivenup(TypePossible)),
	}
	switch ChooseStrategy(costs, cfg.Alpha) {
	case 1:
		return Profile{Type: TypeCorrelated, Links: links, WTCount: len(act.WT)}
	case 2:
		return possibleProfile(act, possibleValues)
	default:
		return Profile{Type: TypePulsed, WTCount: len(act.WT)}
	}
}

func possibleProfile(act series.Activity, values []int) Profile {
	fw := stats.IntsToFloats(act.WT)
	return Profile{
		Type:     TypePossible,
		Values:   values,
		MedianWT: stats.Median(fw),
		StdWT:    stats.StdDev(fw),
		WTCount:  len(act.WT),
	}
}
