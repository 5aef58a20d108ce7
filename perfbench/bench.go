package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/sim"
	"repro/internal/trace"
)

// report is what a workload hands back: counts, metric values by name, the
// output-check failures, and the tracer of a traced pass.
type report struct {
	attempted, failed int64
	values            map[string]float64
	errs              []error
	tr                *tracer
}

func newReport(tr *tracer) *report {
	return &report{values: map[string]float64{}, tr: tr}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// check records a failed output check; nil passes.
func (r *report) check(err error) {
	if err != nil {
		r.errs = append(r.errs, err)
	}
}

// span is one timed call: name, start and end relative to the tracer's
// creation, and the span that caused it (-1 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced pass runs the same code at no cost. It is safe
// for concurrent use: the store-compare source wrapper records from the
// engine's shard workers.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its id; close ends it.
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(now.Sub(t.t0)), End: -1})
	return id
}

func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = int64(now.Sub(t.t0))
	t.mu.Unlock()
}

// add records a span the caller timed itself.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

func (t *tracer) name(id int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].Name
}

func (t *tracer) dur(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// durations returns the durations of every span called name, in start
// order of recording.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// perParent sums the durations of spans called name under each parent in
// parents, one total per parent.
func (t *tracer) perParent(name string, parents []int) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	at := make(map[int]int, len(parents))
	for i, p := range parents {
		at[p] = i
	}
	out := make([]time.Duration, len(parents))
	for _, s := range t.spans {
		if i, ok := at[s.Parent]; ok && s.Name == name {
			out[i] += time.Duration(s.End - s.Start)
		}
	}
	return out
}

// children returns the ids of id's direct children.
func (t *tracer) children(id int) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s.ID)
		}
	}
	return out
}

// childSum sums the durations of id's direct children.
func (t *tracer) childSum(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Parent == id {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// coverage is the traced units' median share of wall time that their
// direct child spans account for.
func (t *tracer) coverage(units []int) float64 {
	fr := make([]float64, len(units))
	for i, u := range units {
		fr[i] = float64(t.childSum(u)) / float64(t.dur(u))
	}
	return median(fr)
}

// repeatFor calls unit until at least min calls have run and budget has
// elapsed, and returns each call's wall time. Between units it also makes
// passes untimed calls of side, the j-th once j/passes of the budget has
// gone and the rest after the loop, so that side's samples span the host
// conditions of the whole run rather than one moment of it.
func repeatFor(budget time.Duration, min int, unit func() error, passes int, side func() error) ([]time.Duration, error) {
	var times []time.Duration
	done := 0
	start := time.Now()
	for len(times) < min || time.Since(start) < budget {
		if done < passes && time.Since(start) >= budget*time.Duration(done)/time.Duration(passes) {
			if err := side(); err != nil {
				return times, err
			}
			done++
			continue
		}
		t0 := time.Now()
		if err := unit(); err != nil {
			return times, err
		}
		times = append(times, time.Since(t0))
	}
	for ; done < passes; done++ {
		if err := side(); err != nil {
			return times, err
		}
	}
	return times, nil
}

// heapSampler tracks the peak in-use heap (HeapInuse: object bytes plus
// unused span bytes) every 2 ms while it runs. It reads runtime/metrics,
// which unlike runtime.ReadMemStats does not stop the world, so it can run
// beside timed work.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func sampleHeap() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			h.peak = max(h.peak, samples[0].Value.Uint64()+samples[1].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// popSeed derives the generator seed of population j from the workload
// seed. Population 0 is the workload seed's own; the others hash (seed, j)
// with splitmix64, so two workload seeds share no population. A plain
// offset would not do: math/rand reduces a seed modulo 2³¹−1, where
// seed + j·2³² is seed + 2j, the population of a neighbouring seed.
func popSeed(seed int64, j int) int64 {
	if j == 0 {
		return seed
	}
	z := uint64(seed) + uint64(j)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// perPop collects one value per population for each metric. A workload's
// outcome and cost depend on its population as much as on the code, so a
// run serves several populations and reports their median.
type perPop map[string][]float64

func (p perPop) add(name string, v float64) { p[name] = append(p[name], v) }

func (p perPop) report(rep *report) {
	for name, vs := range p {
		rep.set(name, median(vs))
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func medianSecs(ds []time.Duration) float64 { return median(secs(ds)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fresh returns a trace sharing tr's series but not its memoized slot index,
// so every unit builds the index as a single run of the program does.
func fresh(tr *trace.Trace) *trace.Trace {
	return &trace.Trace{Slots: tr.Slots, Functions: tr.Functions, Series: tr.Series}
}

// sameResult reports whether got equals want in every field but Overhead,
// which no run here measures.
func sameResult(what string, want, got *sim.Result) error {
	if got == nil {
		return fmt.Errorf("%s: no result", what)
	}
	w, g := *want, *got
	w.Overhead, g.Overhead = 0, 0
	if !reflect.DeepEqual(&w, &g) {
		return fmt.Errorf("%s: %s result differs from the reference (cold starts %d, want %d; wmt %d, want %d)",
			what, got.Policy, g.TotalColdStarts, w.TotalColdStarts, g.TotalWMT, w.TotalWMT)
	}
	return nil
}

// stepRun is one policy driven the way the batch engine drives it: Train,
// BuildSlotIndex, then sim.Driver.Step over every occupied slot. Each Step
// is timed on its own, and traced under parent when tr is non-nil.
type stepRun struct {
	driver *sim.Driver
	slots  []int           // the occupied slots, in order
	steps  []time.Duration // each slot's Step time
}

func driveSteps(tr *tracer, parent int, p sim.Policy, train, simTr *trace.Trace, dcfg sim.DriverConfig) (*stepRun, error) {
	if train != nil {
		id := tr.open("core.SPES.Train", parent)
		p.Train(train)
		tr.close(id)
	}
	id := tr.open("trace.Trace.BuildSlotIndex", parent)
	idx := simTr.BuildSlotIndex()
	tr.close(id)
	run := &stepRun{driver: sim.NewDriver(p, simTr.NumFunctions(), dcfg)}
	for t, invs := range idx.Invocations {
		if len(invs) == 0 {
			continue
		}
		t0 := time.Now()
		_, err := run.driver.Step(t, invs)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		run.slots = append(run.slots, t)
		run.steps = append(run.steps, t1.Sub(t0))
		tr.add("sim.Driver.Step", parent, t0, t1)
	}
	return run, nil
}

// finish closes the driver over slots, traced as sim.Driver.Close.
func (r *stepRun) finish(tr *tracer, parent, slots int) *sim.Result {
	id := tr.open("sim.Driver.Close", parent)
	res := r.driver.Close(slots)
	tr.close(id)
	return res
}

// setStepMetrics reports the step spans recorded under units: per-unit step
// totals and Close times as medians, per-step percentiles over all steps.
func setStepMetrics(rep *report, units []int) {
	tr := rep.tr
	steps := tr.durations("sim.Driver.Step")
	rep.set("sim.steps", float64(len(steps)/max(1, len(units))))
	rep.set("sim.step_s", medianSecs(tr.perParent("sim.Driver.Step", units)))
	rep.set("sim.step_us_p50", float64(quantile(steps, 0.50))/float64(time.Microsecond))
	rep.set("sim.step_us_p99", float64(quantile(steps, 0.99))/float64(time.Microsecond))
	rep.set("sim.close_s", medianSecs(tr.durations("sim.Driver.Close")))
}

// setOutcome reports a SPES result's 75th-percentile function cold-start
// rate, cold starts, invoked slots and the count of functions in each SPES
// category.
func setOutcome(rep *report, res *sim.Result) {
	rep.set("core.q3_csr", res.QuantileCSR(0.75))
	rep.set("sim.cold_starts", float64(res.TotalColdStarts))
	rep.set("sim.invoked_slots", float64(res.TotalInvokedSlot))
	counts := map[string]int{}
	for _, t := range res.Types {
		counts[t]++
	}
	for _, t := range classify.Types() {
		rep.set("classify.type."+t.String(), float64(counts[t.String()]))
	}
}

// stepCost adds the p50 and p99, over occupied slots, of each slot's median
// Step time across the passes as the population's decide_* values. The
// passes time the same slots at the same indexes (0 marks a slot none
// stepped), so the per-slot median drops host interruptions, which rarely
// hit one slot in most passes, and keeps the cost of the slot itself: a few
// microseconds of jitter would otherwise set the p99 of a 40-microsecond
// step.
func stepCost(pops perPop, passes [][]time.Duration) {
	var perSlot []time.Duration
	times := make([]float64, len(passes))
	for i := range passes[0] {
		for j, p := range passes {
			times[j] = float64(p[i])
		}
		if m := median(times); m > 0 {
			perSlot = append(perSlot, time.Duration(m))
		}
	}
	pops.add("decide_p50_ms", ms(quantile(perSlot, 0.50)))
	pops.add("decide_p99_ms", ms(quantile(perSlot, 0.99)))
}

func okFrac(rep *report) {
	rep.set("ok_frac", float64(rep.attempted-rep.failed)/float64(rep.attempted))
}
