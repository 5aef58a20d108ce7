package sim

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// retrainFixture builds a 2-function train/sim pair with known events:
// training slots 0..9 (10 slots), simulation slots 0..19.
func retrainFixture() (training, simTr *trace.Trace) {
	training = trace.NewTrace(10)
	training.AddFunction("f0", "a", "u", trace.TriggerHTTP,
		[]trace.Event{{Slot: 2, Count: 1}, {Slot: 9, Count: 2}})
	training.AddFunction("f1", "a", "u", trace.TriggerTimer, nil)
	simTr = trace.NewTrace(20)
	simTr.AddFunction("f0", "a", "u", trace.TriggerHTTP,
		[]trace.Event{{Slot: 0, Count: 3}, {Slot: 15, Count: 1}})
	simTr.AddFunction("f1", "a", "u", trace.TriggerTimer,
		[]trace.Event{{Slot: 4, Count: 5}})
	return training, simTr
}

func TestRetrainWindowInsideSim(t *testing.T) {
	training, simTr := retrainFixture()
	// Window [8, 16) on the sim timeline: only f0's slot-15 event, re-based
	// to window slot 7.
	win := retrainWindow(training, simTr, 16, 8)
	if win.Slots != 8 {
		t.Fatalf("slots = %d, want 8", win.Slots)
	}
	if want := (trace.Series{{Slot: 7, Count: 1}}); !reflect.DeepEqual(win.Series[0], want) {
		t.Errorf("f0 = %v, want %v", win.Series[0], want)
	}
	if len(win.Series[1]) != 0 {
		t.Errorf("f1 = %v, want empty", win.Series[1])
	}
}

func TestRetrainWindowStraddlesTrainingBoundary(t *testing.T) {
	training, simTr := retrainFixture()
	// Window of 10 slots ending at sim slot 6 ⇒ sim-timeline [-4, 6):
	// training slots 6..9 land at window slots 0..3, sim slots 0..5 at 4..9.
	win := retrainWindow(training, simTr, 6, 10)
	if want := (trace.Series{{Slot: 3, Count: 2}, {Slot: 4, Count: 3}}); !reflect.DeepEqual(win.Series[0], want) {
		t.Errorf("f0 = %v, want %v", win.Series[0], want)
	}
	if want := (trace.Series{{Slot: 8, Count: 5}}); !reflect.DeepEqual(win.Series[1], want) {
		t.Errorf("f1 = %v, want %v", win.Series[1], want)
	}
}

func TestRetrainWindowBeyondRecordedHistory(t *testing.T) {
	training, simTr := retrainFixture()
	// A 40-slot window at sim slot 5 reaches 25 slots before recorded
	// history: everything known lands at the tail, the prefix stays empty.
	win := retrainWindow(training, simTr, 5, 40)
	if want := (trace.Series{{Slot: 27, Count: 1}, {Slot: 34, Count: 2}, {Slot: 35, Count: 3}}); !reflect.DeepEqual(win.Series[0], want) {
		t.Errorf("f0 = %v, want %v", win.Series[0], want)
	}
	// Without a training trace the same window is just the sim prefix,
	// shifted to the window tail.
	win = retrainWindow(nil, simTr, 5, 40)
	if want := (trace.Series{{Slot: 35, Count: 3}}); !reflect.DeepEqual(win.Series[0], want) {
		t.Errorf("no-training f0 = %v, want %v", win.Series[0], want)
	}
}

// retrainWindowTwoCopy is the window builder the one-copy retrainWindow
// replaced, kept as its oracle: Series.Window copies each part, and a window
// straddling the training split concatenates them in a second copy.
func retrainWindowTwoCopy(training, simTrace *trace.Trace, t, w int) *trace.Trace {
	win := &trace.Trace{Slots: w, Functions: simTrace.Functions}
	win.Series = make([]trace.Series, len(simTrace.Series))
	a := t - w
	for fid := range simTrace.Series {
		if a >= 0 {
			win.Series[fid] = simTrace.Series[fid].Window(int32(a), int32(t))
			continue
		}
		var s trace.Series
		if training != nil {
			s = training.Series[fid].Window(int32(training.Slots+a), int32(training.Slots))
		}
		sim := simTrace.Series[fid].Window(0, int32(t))
		if len(sim) > 0 {
			out := make(trace.Series, 0, len(s)+len(sim))
			out = append(out, s...)
			for _, e := range sim {
				out = append(out, trace.Event{Slot: e.Slot + int32(-a), Count: e.Count})
			}
			s = out
		}
		win.Series[fid] = s
	}
	return win
}

// TestRetrainWindowMatchesTwoCopyOracle pins the one-copy builder to the
// two-copy oracle on a generated population, for windows that straddle the
// training split (t < w), end exactly at it (t == w), lie inside the live
// trace (t > w) and reach before recorded history; with a nil training
// trace; and with functions admitted after training (nil training series
// padded to the live population, as the serving daemon keeps them).
func TestRetrainWindowMatchesTwoCopyOracle(t *testing.T) {
	full, err := trace.Generate(trace.DefaultGeneratorConfig(300, 5, 3))
	if err != nil {
		t.Fatal(err)
	}
	training, simTr := full.Split(3 * 1440)
	// Daemon shape: the live trace admitted 40 functions training never
	// saw; their training series are nil.
	admitted := &trace.Trace{Slots: training.Slots, Functions: simTr.Functions,
		Series: append(append([]trace.Series(nil), training.Series[:260]...), make([]trace.Series, 40)...)}

	w := training.Slots
	cases := []struct {
		name     string
		training *trace.Trace
		t, w     int
	}{
		{"t<w", training, 1440, w},
		{"t<w short window", training, 700, 1000},
		{"t==w", training, 1440, 1440},
		{"t>w", training, 2500, 1440},
		{"before history", training, 100, w + 500},
		{"nil training", nil, 1440, w},
		{"nil training t>w", nil, 2000, 1000},
		{"nil-padded admits", admitted, 1440, w},
		{"empty window", training, 1440, 0},
	}
	for _, c := range cases {
		got := retrainWindow(c.training, simTr, c.t, c.w)
		want := retrainWindowTwoCopy(c.training, simTr, c.t, c.w)
		if got.Slots != want.Slots || len(got.Series) != len(want.Series) {
			t.Fatalf("%s: %d slots x %d series, want %d x %d", c.name, got.Slots, len(got.Series), want.Slots, len(want.Series))
		}
		events := 0
		for fid := range want.Series {
			events += len(want.Series[fid])
			if !reflect.DeepEqual(got.Series[fid], want.Series[fid]) {
				t.Fatalf("%s: f%d = %v, want %v", c.name, fid, got.Series[fid], want.Series[fid])
			}
			if s := got.Series[fid]; len(s) != cap(s) {
				t.Fatalf("%s: f%d has len %d cap %d, want one exact-sized copy", c.name, fid, len(s), cap(s))
			}
		}
		if events == 0 && c.w > 0 {
			t.Fatalf("%s: window holds no events; the case exercises nothing", c.name)
		}
	}
}

// TestRetrainEffectiveWindowDefaults pins the RetrainWindow resolution
// rule: explicit value wins, else the training window length, else
// RetrainEvery.
func TestRetrainEffectiveWindowDefaults(t *testing.T) {
	training, _ := retrainFixture()
	if got := (Options{RetrainEvery: 5, RetrainWindow: 7}).retrainEffectiveWindow(training); got != 7 {
		t.Errorf("explicit window: %d, want 7", got)
	}
	if got := (Options{RetrainEvery: 5}).retrainEffectiveWindow(training); got != training.Slots {
		t.Errorf("default window: %d, want %d", got, training.Slots)
	}
	if got := (Options{RetrainEvery: 5}).retrainEffectiveWindow(nil); got != 5 {
		t.Errorf("no-training window: %d, want 5", got)
	}
}

// countingRetrainer wraps a policy and records Retrain calls, to pin the
// retrain schedule and window sizing.
type countingRetrainer struct {
	Policy
	calls []int
	slots []int
}

func (c *countingRetrainer) Retrain(t int, w *trace.Trace) {
	c.calls = append(c.calls, t)
	c.slots = append(c.slots, w.Slots)
}

func TestRetrainSchedule(t *testing.T) {
	training, simTr := retrainFixture()
	p := &countingRetrainer{Policy: newOnDemand()}
	if _, err := Run(p, training, simTr, Options{RetrainEvery: 6}); err != nil {
		t.Fatal(err)
	}
	// 20 sim slots, every 6: retrains at 6, 12, 18 — never at 0.
	if want := []int{6, 12, 18}; !reflect.DeepEqual(p.calls, want) {
		t.Errorf("retrain slots = %v, want %v", p.calls, want)
	}
	for i, s := range p.slots {
		if s != training.Slots {
			t.Errorf("call %d window = %d slots, want training length %d", i, s, training.Slots)
		}
	}
	// Policies that do not implement Retrainer run unchanged under the same
	// options (same result as with retraining disabled).
	plain, err := Run(newOnDemand(), training, simTr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	retrained, err := Run(newOnDemand(), training, simTr, Options{RetrainEvery: 6})
	if err != nil {
		t.Fatal(err)
	}
	plain.Overhead, retrained.Overhead = 0, 0
	if !reflect.DeepEqual(plain, retrained) {
		t.Error("RetrainEvery changed a non-Retrainer policy's result")
	}
}
