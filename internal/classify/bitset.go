package classify

import "math/bits"

// Slot bitsets for link mining. A function's invoked training slots are a
// set over [0, Slots); bit x%64 of word x/64 is slot x. For a function that
// fires in more than 2*words slots (words = ceil(Slots/64)) the bitset is
// smaller than its int32 slot list, and the two co-occurrence kernels
// become word-parallel: the hits at one lag are popcounts over the words,
// independent of how many events the functions carry. The hit counts are
// exactly the integers the sparse merges in cor.go count, and the callers
// divide them exactly as BestLaggedCOR and FollowRate do, so results are
// bit-identical. The fuzz target in bitset_test.go pins both kernels to
// those merges.

// slotWords returns how many 64-bit words hold a bitset over slots slots.
func slotWords(slots int) int { return (slots + 63) / 64 }

// setSlots sets the bit of every slot in xs.
func setSlots(b []uint64, xs []int32) {
	for _, x := range xs {
		b[x>>6] |= 1 << (uint(x) & 63)
	}
}

// clearSlots clears the bit of every slot in xs: a scratch bitset filled by
// setSlots is returned to all-zero in O(len(xs)), not O(words).
func clearSlots(b []uint64, xs []int32) {
	for _, x := range xs {
		b[x>>6] = 0
	}
}

// shlWord returns word i of b shifted toward higher slots by s >= 0 bits:
// bit x of the result is bit x-s of b. Words outside b read as zero. (A Go
// shift by 64 or more yields zero, so a whole-word shift needs no branch.)
func shlWord(b []uint64, i, s int) uint64 {
	j, r := i-s>>6, uint(s&63)
	var w uint64
	if j >= 0 && j < len(b) {
		w = b[j] << r
	}
	if j >= 1 && j-1 < len(b) {
		w |= b[j-1] >> (64 - r)
	}
	return w
}

// shrWord returns word i of b shifted toward lower slots by s >= 0 bits:
// bit x of the result is bit x+s of b. Words outside b read as zero.
func shrWord(b []uint64, i, s int) uint64 {
	j, r := i+s>>6, uint(s&63) // j >= 0: i and s are
	var w uint64
	if j < len(b) {
		w = b[j] >> r
	}
	if j+1 < len(b) {
		w |= b[j+1] << (64 - r)
	}
	return w
}

// laggedHitsBits counts the target slots t whose slot t-lag the candidate
// fired in: popcount(target & candidate<<lag). Both bitsets span the same
// words; lag >= 1.
func laggedHitsBits(target, cand []uint64, lag int) int {
	q, r := lag>>6, uint(lag&63)
	if q >= len(target) {
		return 0
	}
	hits := bits.OnesCount64(target[q] & (cand[0] << r))
	for i := q + 1; i < len(target); i++ {
		hits += bits.OnesCount64(target[i] & (cand[i-q]<<r | cand[i-q-1]>>(64-r)))
	}
	return hits
}

// bestLaggedCORBits is BestLaggedCOR over bitsets: nTarget is the target's
// slot count. The lag scan, the division and the tie-break (smallest lag
// wins) are BestLaggedCOR's.
func bestLaggedCORBits(target, cand []uint64, nTarget int, maxLag int32) (bestLag int32, bestCOR float64) {
	if nTarget == 0 || maxLag < 1 {
		return 0, 0
	}
	for lag := int32(1); lag <= maxLag; lag++ {
		if c := float64(laggedHitsBits(target, cand, int(lag))) / float64(nTarget); c > bestCOR {
			bestCOR = c
			bestLag = lag
		}
	}
	return bestLag, bestCOR
}

// dilateBits ORs into d every slot within slack of a slot of b: bit x of d
// ends up set iff b holds a slot y with |x-y| <= slack. d may be longer
// than b, so the spill past b's last word is kept; a negative slack sets
// nothing.
func dilateBits(d, b []uint64, slack int) {
	for s := 0; s <= slack; s++ {
		for i := range d {
			d[i] |= shlWord(b, i, s) | shrWord(b, i, s)
		}
	}
}

// followHitsBits counts the candidate slots c for which the target fired
// within slack of c+lag: popcount(candidate & dilated>>lag), where dilated
// is the target dilated by slack (dilateBits) and long enough to hold bit
// c+lag for every candidate slot c. lag >= 0.
func followHitsBits(cand, dilated []uint64, lag int) int {
	hits := 0
	for i, w := range cand {
		if w != 0 {
			hits += bits.OnesCount64(w & shrWord(dilated, i, lag))
		}
	}
	return hits
}

// followRateBits is FollowRate over bitsets: nCand is the candidate's slot
// count, dilated the target dilated by the slack (see followHitsBits).
func followRateBits(cand, dilated []uint64, nCand int, lag int32) float64 {
	if nCand == 0 {
		return 0
	}
	return float64(followHitsBits(cand, dilated, int(lag))) / float64(nCand)
}
