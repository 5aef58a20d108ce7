package classify

import (
	"math"
	"testing"
)

// maskSlots decodes a slot set over [0, slots) from a little-endian bitmask:
// slot x is in the set iff bit x%8 of mask[x/8] is set. Slots past the mask
// are absent. It returns the set as an ascending slot list.
func maskSlots(mask []byte, slots int) []int32 {
	var out []int32
	for x := 0; x < slots && x/8 < len(mask); x++ {
		if mask[x/8]&(1<<(x%8)) != 0 {
			out = append(out, int32(x))
		}
	}
	return out
}

// slotMask encodes slot lists as maskSlots reads them.
func slotMask(slots ...int) []byte {
	var mask []byte
	for _, x := range slots {
		for len(mask) <= x/8 {
			mask = append(mask, 0)
		}
		mask[x/8] |= 1 << (x % 8)
	}
	return mask
}

// checkBitsetKernels asserts that the bitset kernels agree exactly with the
// sparse merges on one pair of slot sets: the best lag and its COR (compared
// by bit pattern), and the follow rate at every lag 0..maxLag.
func checkBitsetKernels(t *testing.T, slots int, maxLag, slack int32, target, cand []int32) {
	t.Helper()
	words := slotWords(slots)
	tb, cb := make([]uint64, words), make([]uint64, words)
	setSlots(tb, target)
	setSlots(cb, cand)

	wantLag, wantCOR := BestLaggedCOR(target, cand, maxLag)
	gotLag, gotCOR := bestLaggedCORBits(tb, cb, len(target), maxLag)
	if gotLag != wantLag || math.Float64bits(gotCOR) != math.Float64bits(wantCOR) {
		t.Fatalf("slots=%d maxLag=%d: bitset (lag %d, cor %v), sparse (lag %d, cor %v)\ntarget %v\ncand %v",
			slots, maxLag, gotLag, gotCOR, wantLag, wantCOR, target, cand)
	}

	// The dilation buffer is mineLinks's own, sized for the config's MaxLag.
	dilated := newLinkScratch(0, words, 0, Config{MaxLag: maxLag}).dilate(tb, slack)
	for lag := int32(0); lag <= maxLag; lag++ {
		want := FollowRate(cand, target, lag, slack)
		got := followRateBits(cb, dilated, len(cand), lag)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("slots=%d lag=%d slack=%d: bitset follow rate %v, sparse %v\ntarget %v\ncand %v",
				slots, lag, slack, got, want, target, cand)
		}
	}

	// The scratch bitsets return to all-zero.
	clearSlots(tb, target)
	clearSlots(cb, cand)
	for i := range tb {
		if tb[i] != 0 || cb[i] != 0 {
			t.Fatalf("clearSlots left word %d set", i)
		}
	}
}

// FuzzBitsetKernels pins the bitset link-mining kernels to the sparse merges
// they replace (BestLaggedCOR, FollowRate) on arbitrary ascending slot
// lists. The committed corpus (testdata/fuzz/FuzzBitsetKernels) holds the
// word-boundary cases: slots 0, 63, 64 and Slots-1, lags and slacks that
// carry bits across a word edge, and windows that are not a multiple of 64
// slots.
func FuzzBitsetKernels(f *testing.F) {
	f.Add(uint16(200), uint8(10), uint8(2), slotMask(0, 63, 64, 199), slotMask(1, 53, 62, 63, 189, 197))
	f.Fuzz(func(t *testing.T, slots uint16, maxLag, slack uint8, targetMask, candMask []byte) {
		n := int(slots)%1200 + 1
		checkBitsetKernels(t, n, int32(maxLag%140), int32(slack%70),
			maskSlots(targetMask, n), maskSlots(candMask, n))
	})
}

// TestBitsetKernelsWordEdges runs the word-boundary cases directly, so they
// are checked even where the fuzz corpus is not read.
func TestBitsetKernelsWordEdges(t *testing.T) {
	every := func(from, to, step int) []int32 {
		var out []int32
		for x := from; x < to; x += step {
			out = append(out, int32(x))
		}
		return out
	}
	cases := []struct {
		slots         int
		maxLag, slack int32
		target, cand  []int32
	}{
		{64, 10, 2, []int32{0, 63}, []int32{0, 53, 62}},
		{65, 10, 2, []int32{0, 63, 64}, []int32{54, 62, 63}},
		{130, 70, 3, []int32{0, 64, 128, 129}, []int32{0, 1, 58, 63, 64, 65}},
		{200, 64, 64, every(0, 200, 7), every(3, 200, 5)},
		{1000, 130, 9, every(5, 1000, 3), every(0, 1000, 2)},
		{127, 1, 0, every(0, 127, 1), every(0, 127, 1)},
		{300, 10, 2, nil, every(0, 300, 4)},
		{300, 0, 2, every(0, 300, 4), every(0, 300, 4)},
	}
	for _, c := range cases {
		checkBitsetKernels(t, c.slots, c.maxLag, c.slack, c.target, c.cand)
	}
}
