package baselines

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func mkTrace(slots int, invocations map[int][]int32) (*trace.Trace, *trace.Trace) {
	full := trace.NewTrace(slots * 2)
	ids := make([]int, 0, len(invocations))
	for f := range invocations {
		ids = append(ids, f)
	}
	// Deterministic order by id.
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	for _, f := range ids {
		var events []trace.Event
		for _, s := range invocations[f] {
			// Offset into the simulation half.
			events = append(events, trace.Event{Slot: int32(slots) + s, Count: 1})
		}
		full.AddFunction("f", "app", "u", trace.TriggerHTTP, events)
	}
	return full.Split(slots)
}

func TestFixedKeepAliveBehaviour(t *testing.T) {
	// One function invoked at slots 0 and 8 with keep-alive 5: the second
	// invocation is cold (gap 8 > 5); then at 12 (gap 4) warm.
	train, simTr := mkTrace(100, map[int][]int32{0: {0, 8, 12}})
	p := NewFixedKeepAlive(5)
	res, err := sim.Run(p, train, simTr, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerFunc[0].ColdStarts != 2 {
		t.Errorf("cold starts = %d, want 2 (slot 0 and slot 8)", res.PerFunc[0].ColdStarts)
	}
	// Waste: slots 1-4 (evicted at 5), 9-11, 13-16 -> 4+3+4 = 11.
	if res.PerFunc[0].WMTMinutes != 11 {
		t.Errorf("WMT = %d, want 11", res.PerFunc[0].WMTMinutes)
	}
}

func TestFixedKeepAliveName(t *testing.T) {
	if got := NewFixedKeepAlive(10).Name(); got != "Fixed-10min" {
		t.Errorf("Name = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("zero keep-alive should panic")
		}
	}()
	NewFixedKeepAlive(0)
}

func TestFixedKeepAliveWithoutTrain(t *testing.T) {
	p := NewFixedKeepAlive(3)
	p.Tick(0, []trace.FuncCount{{Func: 2, Count: 1}})
	if !p.Loaded(2) || p.LoadedCount() != 1 {
		t.Error("ad-hoc use without Train failed")
	}
	p.Tick(1, nil)
	p.Tick(2, nil)
	p.Tick(3, nil)
	if p.Loaded(2) {
		t.Error("function should be evicted after keep-alive")
	}
}

// TestFixedKeepAliveUntrainedGrowth is the regression test for the lazy-init
// bug: driving FixedKeepAlive without Train used to size its per-function
// state from the first slot's largest FuncID for good, so a later slot
// introducing a larger FuncID indexed out of range. Growth is now on demand,
// on both engines.
func TestFixedKeepAliveUntrainedGrowth(t *testing.T) {
	for _, mk := range []struct {
		name string
		p    *FixedKeepAlive
	}{
		{"wheel", NewFixedKeepAlive(3)},
		{"map agenda", withMapAgenda(NewFixedKeepAlive(3)).(*FixedKeepAlive)},
	} {
		p := mk.p
		p.Tick(0, []trace.FuncCount{{Func: 1, Count: 1}})
		// Larger FuncID in a later slot: used to panic with index out of range.
		p.Tick(1, []trace.FuncCount{{Func: 5, Count: 1}})
		p.Tick(2, nil)
		p.Tick(3, nil)

		if !p.Loaded(5) {
			t.Fatalf("%s: f5 should still be within its keep-alive window", mk.name)
		}
		if p.Loaded(1) {
			t.Fatalf("%s: f1 expired at slot 3 and should be unloaded", mk.name)
		}
		p.Tick(4, nil)
		if p.Loaded(5) || p.LoadedCount() != 0 {
			t.Fatalf("%s: f5 should expire at slot 4, loaded=%d", mk.name, p.LoadedCount())
		}
	}
}

// TestFixedKeepAliveUntrainedMatchesTrained pins on-demand growth to the
// usual pre-sized behaviour on the same arrival sequence.
func TestFixedKeepAliveUntrainedMatchesTrained(t *testing.T) {
	arrivals := [][]trace.FuncCount{
		{{Func: 0, Count: 1}},
		{{Func: 7, Count: 2}},
		nil,
		{{Func: 3, Count: 1}, {Func: 7, Count: 1}},
		nil,
		nil,
		nil,
	}
	grown := NewFixedKeepAlive(2)
	sized := NewFixedKeepAlive(2)
	sized.init(8)
	for t0, invs := range arrivals {
		grown.Tick(t0, invs)
		sized.Tick(t0, invs)
		if grown.LoadedCount() != sized.LoadedCount() {
			t.Fatalf("slot %d: LoadedCount grown=%d sized=%d",
				t0, grown.LoadedCount(), sized.LoadedCount())
		}
	}
	for f := trace.FuncID(0); f < 8; f++ {
		if grown.Loaded(f) != sized.Loaded(f) {
			t.Fatalf("f%d: grown=%v sized=%v", f, grown.Loaded(f), sized.Loaded(f))
		}
	}
}

func TestFixedKeepAliveReinvocationExtends(t *testing.T) {
	train, simTr := mkTrace(100, map[int][]int32{0: {0, 2, 4, 6, 8}})
	p := NewFixedKeepAlive(3)
	res, err := sim.Run(p, train, simTr, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Gaps of 2 < 3: only the first invocation is cold.
	if res.PerFunc[0].ColdStarts != 1 {
		t.Errorf("cold starts = %d, want 1", res.PerFunc[0].ColdStarts)
	}
}
