package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/classify"
	"repro/internal/sim"
	"repro/internal/trace"
)

// snapshotTrace builds a mixed-behaviour population that exercises every
// serialized state family: a regular timer (predictive deadlines), an
// always-warm function, an erratic function (online-WT history and the
// adjusting strategy), and a same-trigger pair whose target is unseen in
// training (online correlation state).
func snapshotTrace(slots int) *trace.Trace {
	full := trace.NewTrace(slots)
	full.AddFunction("reg", "app-a", "u1", trace.TriggerTimer, periodicEvents(slots, 60, 30))
	aw := make([]trace.Event, 0, slots)
	for s := 0; s < slots; s++ {
		aw = append(aw, trace.Event{Slot: int32(s), Count: 1})
	}
	full.AddFunction("aw", "app-a", "u1", trace.TriggerTimer, aw)
	var err1 []trace.Event
	for _, s := range []int{3, 9, 40, 41, 100, 270, 271, 500, 900, 1500, 2100, 2900, 3600, 4200, 5000, 5800, 6600, 7400, 8200, 9000} {
		if s < slots {
			err1 = append(err1, trace.Event{Slot: int32(s), Count: 2})
		}
	}
	full.AddFunction("erratic", "app-b", "u2", trace.TriggerHTTP, err1)
	// Phase 60 puts the candidate's first simulated-window fire at sim slot
	// 20 — after the unseen target's first event (sim slot 12), which the
	// live-admission parity test needs: the newcomer must be admitted before
	// its candidates fire.
	full.AddFunction("cand", "app-c", "u3", trace.TriggerQueue, periodicEvents(slots, 200, 60))
	// The unseen target: silent through training, fires shortly after its
	// candidate in the simulated window.
	var tgt []trace.Event
	for s := 6*1440 + 12; s < slots; s += 200 {
		tgt = append(tgt, trace.Event{Slot: int32(s), Count: 1})
	}
	full.AddFunction("unseen", "app-c", "u3", trace.TriggerQueue, tgt)
	return full
}

// drainCompare ticks both policies through slot t with the same invocations
// and fails if their load/evict decisions (the delta streams) diverge.
func drainCompare(t *testing.T, slot int, invs []trace.FuncCount, a, b *SPES) {
	t.Helper()
	a.Tick(slot, invs)
	b.Tick(slot, invs)
	da := a.TakeLoadDeltas()
	db := b.TakeLoadDeltas()
	if len(da) != len(db) {
		t.Fatalf("slot %d: %d vs %d load deltas", slot, len(da), len(db))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("slot %d: delta[%d] = %d vs %d", slot, i, da[i], db[i])
		}
	}
}

func TestStateSnapshotRoundTrip(t *testing.T) {
	full := snapshotTrace(8 * 1440)
	train, simTr := full.Split(6 * 1440)
	idx := simTr.BuildSlotIndex()

	orig := New(DefaultConfig())
	orig.Train(train)
	half := simTr.Slots / 2
	for s := 0; s < half; s++ {
		orig.Tick(s, idx.Invocations[s])
	}
	orig.TakeLoadDeltas()

	data, err := orig.EncodeState()
	if err != nil {
		t.Fatalf("EncodeState: %v", err)
	}
	restored := New(DefaultConfig())
	if err := restored.RestoreState(data); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}

	ho, err := orig.StateHash()
	if err != nil {
		t.Fatalf("StateHash(orig): %v", err)
	}
	hr, err := restored.StateHash()
	if err != nil {
		t.Fatalf("StateHash(restored): %v", err)
	}
	if ho != hr {
		t.Fatalf("restored state hash %016x != original %016x", hr, ho)
	}

	// The restored instance must keep making the original's decisions, slot
	// for slot, through the rest of the simulation.
	for s := half; s < simTr.Slots; s++ {
		drainCompare(t, s, idx.Invocations[s], orig, restored)
	}
	ho, _ = orig.StateHash()
	hr, _ = restored.StateHash()
	if ho != hr {
		t.Fatalf("post-continuation hash %016x != %016x: restored instance diverged", hr, ho)
	}
}

// snapshotAt trains SPES on snapshotTrace and ticks it through the first
// ticks simulated slots, ready to encode.
func snapshotAt(tb testing.TB, ticks int) *SPES {
	tb.Helper()
	full := snapshotTrace(8 * 1440)
	train, simTr := full.Split(6 * 1440)
	p := New(DefaultConfig())
	p.Train(train)
	idx := simTr.BuildSlotIndex()
	for s := 0; s < ticks; s++ {
		p.Tick(s, idx.Invocations[s])
	}
	p.TakeLoadDeltas()
	return p
}

func mustEncode(tb testing.TB, p *SPES) []byte {
	tb.Helper()
	data, err := p.EncodeState()
	if err != nil {
		tb.Fatalf("EncodeState: %v", err)
	}
	return data
}

// damagedSnapshot is one snapshot EncodeState cannot have produced from a
// live policy; RestoreState must refuse it with an error.
type damagedSnapshot struct {
	name string
	data []byte
}

// damagedSnapshots derives every refusal case from one valid snapshot:
// byte-level damage (truncation, trailing bytes, out-of-range fields,
// counts the input cannot back, the previous format version) and states
// that no sequence of Train/Tick/Retrain/Admit reaches, encoded from a
// deliberately corrupted policy.
func damagedSnapshots(tb testing.TB) (valid []byte, cases []damagedSnapshot) {
	tb.Helper()
	valid = mustEncode(tb, snapshotAt(tb, 200))
	bytesCase := func(name string, edit func(b []byte) []byte) {
		cases = append(cases, damagedSnapshot{name, edit(append([]byte(nil), valid...))})
	}
	stateCase := func(name string, corrupt func(p *SPES)) {
		p := New(DefaultConfig())
		if err := p.RestoreState(valid); err != nil {
			tb.Fatalf("RestoreState(valid): %v", err)
		}
		corrupt(p)
		cases = append(cases, damagedSnapshot{name, mustEncode(tb, p)})
	}
	le := binary.LittleEndian

	// Header: magic | config hash | trainSlots | lastTick | n at byte 32.
	bytesCase("truncated", func(b []byte) []byte { return b[:len(b)/2] })
	bytesCase("trailing byte", func(b []byte) []byte { return append(b, 0) })
	bytesCase("format version ST1", func(b []byte) []byte { return append([]byte("SPES-ST1"), b[8:]...) })
	bytesCase("negative training window", func(b []byte) []byte { le.PutUint64(b[16:], ^uint64(0)); return b })
	bytesCase("clock before -1", func(b []byte) []byte { le.PutUint64(b[24:], uint64(1<<64-5)); return b })
	bytesCase("function count beyond input", func(b []byte) []byte { le.PutUint64(b[32:], 1<<16); return b })
	bytesCase("negative function count", func(b []byte) []byte { le.PutUint64(b[32:], ^uint64(0)); return b })

	// The hot arrays of function 0 follow the metadata: lastInvoked,
	// eventSlot, seq (i64 each), loaded (bool), preloadUntil, wtOff.
	p := New(DefaultConfig())
	if err := p.RestoreState(valid); err != nil {
		tb.Fatalf("RestoreState(valid): %v", err)
	}
	arr := 40
	for _, f := range p.meta {
		arr += 3*8 + len(f.Name) + len(f.App) + len(f.User) + 1
	}
	bytesCase("lastInvoked overflows int32", func(b []byte) []byte { b[arr+4] = 1; return b })
	bytesCase("seq overflows uint32", func(b []byte) []byte { b[arr+16+4] = 1; return b })
	bytesCase("bool byte 2", func(b []byte) []byte { b[arr+24] = 2; return b })

	stateCase("trigger 200", func(p *SPES) { p.meta[0].Trigger = 200 })
	stateCase("type 200", func(p *SPES) { p.states[0].profile.Type = 200 })
	stateCase("type NumTypes", func(p *SPES) { p.states[0].profile.Type = classify.NumTypes })
	stateCase("WT offset 2", func(p *SPES) { p.wtOff[0] = 2 })
	stateCase("last invocation after the clock", func(p *SPES) { p.lastInvoked[0] = int32(p.lastTick + 1) })
	stateCase("last invocation before the training window", func(p *SPES) { p.lastInvoked[0] = int32(-p.trainSlots - 1) })
	stateCase("deadline at the clock", func(p *SPES) { p.eventSlot[0] = int32(p.lastTick) })
	stateCase("pre-load through slot -2", func(p *SPES) { p.preloadUntil[0] = -2 })
	stateCase("online WT -5", func(p *SPES) {
		st := &p.states[2]
		st.onlineWTs, st.wtHead, st.adjustedAt = []int{-5}, 0, 0
	})
	stateCase("online WT 0", func(p *SPES) {
		st := &p.states[2]
		st.onlineWTs, st.wtHead, st.adjustedAt = []int{3, 0}, 0, 0
	})
	stateCase("more online WTs than kept", func(p *SPES) {
		st := &p.states[2]
		st.onlineWTs, st.wtHead, st.adjustedAt = make([]int, maxOnlineWTs+1), 0, 0
		for i := range st.onlineWTs {
			st.onlineWTs[i] = i + 1
		}
	})
	stateCase("ring head before the ring is full", func(p *SPES) {
		st := &p.states[2]
		st.onlineWTs, st.wtHead, st.adjustedAt = []int{4, 5}, 1, 0
	})
	stateCase("ring head past the ring", func(p *SPES) {
		st := &p.states[2]
		st.onlineWTs, st.wtHead, st.adjustedAt = make([]int, maxOnlineWTs), maxOnlineWTs, 0
		for i := range st.onlineWTs {
			st.onlineWTs[i] = i + 1
		}
	})
	stateCase("adjusted past the samples", func(p *SPES) {
		st := &p.states[2]
		st.onlineWTs, st.wtHead, st.adjustedAt = []int{4, 5}, 0, 3
	})
	stateCase("link to a missing candidate", func(p *SPES) {
		p.states[0].profile.Links = []classify.Link{{Cand: int32(len(p.states)), Lag: 1}}
	})
	stateCase("last firing after the clock", func(p *SPES) { p.ucorr.lastFired[0] = p.lastTick + 1 })
	stateCase("more candidates than the cap", func(p *SPES) {
		tgt := &utarget{fid: 4}
		for i := 0; i <= p.cfg.OnlineCandidateCap; i++ {
			tgt.cands = append(tgt.cands, ucandidate{fid: 0})
		}
		p.ucorr.targets[4] = tgt
	})
	stateCase("candidate outside the population", func(p *SPES) {
		p.ucorr.targets[4] = &utarget{fid: 4, cands: []ucandidate{{fid: trace.FuncID(len(p.states))}}}
	})
	return valid, cases
}

func TestStateSnapshotRejectsDamage(t *testing.T) {
	valid, cases := damagedSnapshots(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := New(DefaultConfig()).RestoreState(c.data); err == nil {
				t.Fatal("damaged snapshot restored without error")
			}
		})
	}

	other := DefaultConfig()
	other.Classify.ThetaPrewarm += 1
	if err := New(other).RestoreState(valid); err == nil {
		t.Error("snapshot restored under a different config")
	}
	trained := New(DefaultConfig())
	if err := trained.RestoreState(valid); err != nil {
		t.Fatalf("RestoreState(valid): %v", err)
	}
	if err := trained.RestoreState(valid); err == nil {
		t.Error("RestoreState succeeded on an already-trained policy")
	}
}

// TestStateSnapshotRefusesOldVersion pins the version bump: a snapshot of
// the previous encoding is refused as a version mismatch, never decoded.
func TestStateSnapshotRefusesOldVersion(t *testing.T) {
	valid := mustEncode(t, snapshotAt(t, 200))
	st1 := append([]byte("SPES-ST1"), valid[len(snapMagic):]...)
	err := New(DefaultConfig()).RestoreState(st1)
	if !errors.Is(err, errSnapshotVersion) {
		t.Fatalf("ST1 payload: got %v, want errSnapshotVersion", err)
	}
}

// TestRestoreStateBoundsAllocation checks that a function count the input
// cannot back is refused before any per-function state is allocated.
func TestRestoreStateBoundsAllocation(t *testing.T) {
	valid := mustEncode(t, snapshotAt(t, 0))
	data := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(data[32:], 1<<16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := New(DefaultConfig()).RestoreState(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("snapshot claiming 65536 functions restored")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing a 65536-function claim over %d bytes allocated %d bytes", len(data), grew)
	}
}

// FuzzRestoreState feeds RestoreState arbitrary bytes. It must never panic;
// a snapshot it accepts must re-encode to exactly the same bytes and keep
// ticking for 100 slots.
func FuzzRestoreState(f *testing.F) {
	for _, ticks := range []int{0, 200, 2 * 1440} {
		f.Add(mustEncode(f, snapshotAt(f, ticks)))
	}
	_, cases := damagedSnapshots(f)
	for _, c := range cases {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := New(DefaultConfig())
		if err := p.RestoreState(data); err != nil {
			return
		}
		again, err := p.EncodeState()
		if err != nil {
			t.Fatalf("EncodeState after an accepted restore: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted snapshot re-encodes differently:\n in  %x\n out %x", data, again)
		}
		// Function f fires every (f%5)+2 slots.
		n, from := p.NumFunctions(), p.lastTick+1
		for s := from; s < from+100; s++ {
			var invs []trace.FuncCount
			for fid := 0; fid < n; fid++ {
				if s%(fid%5+2) == 0 {
					invs = append(invs, trace.FuncCount{Func: trace.FuncID(fid), Count: 1})
				}
			}
			p.Tick(s, invs)
			p.TakeLoadDeltas()
		}
	})
}

func TestEncodeStateRequiresDrainedDeltas(t *testing.T) {
	full := snapshotTrace(8 * 1440)
	train, simTr := full.Split(6 * 1440)
	p := New(DefaultConfig())
	p.Train(train)
	idx := simTr.BuildSlotIndex()
	for s := 0; s < 60; s++ {
		p.Tick(s, idx.Invocations[s])
	}
	// Deltas pending: the caller's accounting has not seen these flips yet.
	if _, err := p.EncodeState(); err == nil {
		t.Fatal("EncodeState succeeded with unconsumed load deltas")
	}
	p.TakeLoadDeltas()
	if _, err := p.EncodeState(); err != nil {
		t.Fatalf("EncodeState after draining deltas: %v", err)
	}
}

// TestAdmitMatchesBatchRun is the live-admission parity test: a function the
// daemon first hears about mid-stream (Admit) must end in exactly the state
// — wheel deadline included — it would have had in a batch run whose trace
// always contained it, given the same invocation history. Retrain boundaries
// run in both timelines so the newcomer is categorized via the Retrainer
// path, not just seeded.
func TestAdmitMatchesBatchRun(t *testing.T) {
	slots := 8 * 1440
	trainSlots := 6 * 1440
	full := snapshotTrace(slots) // function 4 ("unseen") is silent in training
	fullTrain, simTr := full.Split(trainSlots)
	idx := simTr.BuildSlotIndex()

	// The live timeline's training trace omits the newcomer entirely.
	liveTrain := trace.NewTrace(trainSlots)
	for fid := 0; fid < 4; fid++ {
		f := fullTrain.Functions[fid]
		ev := make([]trace.Event, len(fullTrain.Series[fid]))
		copy(ev, fullTrain.Series[fid])
		liveTrain.AddFunction(f.Name, f.App, f.User, f.Trigger, ev)
	}

	newcomer := trace.FuncID(4)
	firstSeen := int(simTr.Series[newcomer][0].Slot)
	cfg := DefaultConfig()
	retrainEvery := 1440
	window := func(at int) *trace.Trace {
		return sim.BuildRetrainWindow(fullTrain, simTr, at, trainSlots)
	}

	batch := New(cfg)
	batch.Train(fullTrain)
	live := New(cfg)
	live.Train(liveTrain)

	for s := 0; s < simTr.Slots; s++ {
		if s == firstSeen {
			if got := live.Admit(full.Functions[newcomer]); got != newcomer {
				t.Fatalf("Admit assigned id %d, want %d", got, newcomer)
			}
		}
		if s > 0 && s%retrainEvery == 0 {
			w := window(s)
			batch.Retrain(s, w)
			live.Retrain(s, w)
		}
		drainCompare(t, s, idx.Invocations[s], batch, live)
	}

	hb, err := batch.StateHash()
	if err != nil {
		t.Fatalf("StateHash(batch): %v", err)
	}
	hl, err := live.StateHash()
	if err != nil {
		t.Fatalf("StateHash(live): %v", err)
	}
	if hb != hl {
		t.Fatalf("live-admission state hash %016x != batch %016x", hl, hb)
	}
}
