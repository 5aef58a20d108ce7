// Package baselines implements the five schedulers the paper evaluates SPES
// against: a fixed keep-alive policy, the Hybrid histogram policy of
// Shahrad et al. (ATC'20) at function (HF) and application (HA)
// granularity, Defuse (Shen et al., ICDCS'21), FaaSCache (Fuerst & Sharma,
// ASPLOS'21), and — as an extension — LCS (Sethi et al., ICDCN'23).
//
// All policies implement sim.Policy. Parameters default to the settings the
// original papers report, as the SPES evaluation prescribes.
package baselines

import "repro/internal/trace"

// loadedSet tracks the loaded-function set with O(1) membership and count,
// shared by the baseline policies. Every actual flip is appended to the
// delta log, which backs the policies' sim.LoadDeltaTracker implementations
// (takeDeltas hands the log to the simulator's incremental accounting).
type loadedSet struct {
	loaded []bool
	count  int
	deltas []trace.FuncID
}

func newLoadedSet(n int) *loadedSet {
	return &loadedSet{loaded: make([]bool, n)}
}

// grow extends the tracked function space to at least n entries, for
// policies that discover their population lazily (no Train).
func (l *loadedSet) grow(n int) {
	for len(l.loaded) < n {
		l.loaded = append(l.loaded, false)
	}
}

func (l *loadedSet) has(f trace.FuncID) bool { return l.loaded[f] }

func (l *loadedSet) add(f trace.FuncID) {
	if !l.loaded[f] {
		l.loaded[f] = true
		l.count++
		l.deltas = append(l.deltas, f)
	}
}

func (l *loadedSet) remove(f trace.FuncID) {
	if l.loaded[f] {
		l.loaded[f] = false
		l.count--
		l.deltas = append(l.deltas, f)
	}
}

// takeDeltas returns the flips logged since the previous call and resets the
// log; the slice is valid until the set's next mutation. A nil receiver
// (policy not yet initialized) has no flips to report.
func (l *loadedSet) takeDeltas() []trace.FuncID {
	if l == nil {
		return nil
	}
	d := l.deltas
	l.deltas = l.deltas[:0]
	return d
}

// agenda schedules per-slot callbacks keyed by an owner id and a sequence
// number, letting policies cancel stale actions cheaply: an action fires
// only if the owner's sequence still matches the one it was scheduled with.
//
// This map-backed implementation is the retained REFERENCE engine: the
// deadline-based baselines run on a sched.Agenda timing wheel by default
// (same firing semantics, recycled bucket storage instead of per-slot map
// churn) and keep this one behind their MapAgenda config switches so the
// equivalence suite can assert the wheel engine bit-identical, mirroring
// core.Config.DenseScan.
type agenda struct {
	bySlot map[int][]agendaItem
	seq    []uint32 // current sequence per owner
}

type agendaItem struct {
	owner int
	seq   uint32
	what  int
}

func newAgenda(owners int) *agenda {
	return &agenda{bySlot: make(map[int][]agendaItem), seq: make([]uint32, owners)}
}

// grow extends the owner space to at least owners entries.
func (a *agenda) grow(owners int) {
	for len(a.seq) < owners {
		a.seq = append(a.seq, 0)
	}
}

// bump invalidates all outstanding actions of an owner.
func (a *agenda) bump(owner int) { a.seq[owner]++ }

// schedule enqueues action `what` for the owner at the given slot, bound to
// the owner's current sequence.
func (a *agenda) schedule(slot, owner, what int) {
	a.bySlot[slot] = append(a.bySlot[slot], agendaItem{owner: owner, seq: a.seq[owner], what: what})
}

// drain invokes fn for every still-valid action scheduled at slot and
// releases the slot's storage.
func (a *agenda) drain(slot int, fn func(owner, what int)) {
	items, ok := a.bySlot[slot]
	if !ok {
		return
	}
	delete(a.bySlot, slot)
	for _, it := range items {
		if a.seq[it.owner] == it.seq {
			fn(it.owner, it.what)
		}
	}
}
