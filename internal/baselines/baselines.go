// Package baselines implements the five schedulers the paper evaluates SPES
// against: a fixed keep-alive policy, the Hybrid histogram policy of
// Shahrad et al. (ATC'20) at function (HF) and application (HA)
// granularity, Defuse (Shen et al., ICDCS'21), FaaSCache (Fuerst & Sharma,
// ASPLOS'21), and — as an extension — LCS (Sethi et al., ICDCN'23).
//
// All policies implement sim.Policy. Parameters default to the settings the
// original papers report, as the SPES evaluation prescribes.
package baselines

import (
	"repro/internal/sched"
	"repro/internal/trace"
)

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

// agendaEngine is the deadline agenda the deadline-based baselines (Fixed,
// Hybrid, Defuse) schedule their per-owner actions on: an action fires only
// if its owner was not bumped since it was scheduled. *sched.Agenda, the
// shared timing wheel, is the engine; the package tests substitute a
// map-backed oracle through the policies' newAgenda field.
type agendaEngine interface {
	Grow(owners int)
	Bump(owner int)
	Schedule(current, slot, owner, what int)
	Drain(slot int, fn func(owner, what int))
	Next(after, limit int) int
}

// buildAgenda returns mk(owners, span), or a sched.Agenda when mk is nil.
func buildAgenda(mk func(owners, span int) agendaEngine, owners, span int) agendaEngine {
	if mk == nil {
		return sched.NewAgenda(owners, span)
	}
	return mk(owners, span)
}
