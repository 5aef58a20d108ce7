package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// daemon is an in-process serving daemon on a loopback listener, with the
// one client connection the sender uses.
type daemon struct {
	dir    string
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *serve.Client
}

// openDaemon starts a daemon over a fresh state directory: serve.New
// (which trains SPES) plus the listener. It returns the daemon and how long
// it took until it could accept a request.
func openDaemon(tr *tracer, dir string, train *trace.Trace, retrainEvery int) (*daemon, time.Duration, error) {
	t0 := time.Now()
	id := tr.open("serve.New", -1)
	srv, err := serve.New(serve.Config{
		Dir:          dir,
		Policy:       core.DefaultConfig(),
		Training:     train,
		RetrainEvery: retrainEvery,
	})
	tr.close(id)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	d := &daemon{
		dir:    dir,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	open := time.Since(t0)
	d.client = &serve.Client{
		Base: "http://" + ln.Addr().String(),
		HTTP: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
	}
	return d, open, nil
}

// shutdown stops the listener, waits for the serving goroutine, closes the
// daemon and removes its state directory.
func (d *daemon) shutdown() error {
	d.client.HTTP.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, d.srv.Close(), os.RemoveAll(d.dir))
}

// request is one occupied slot of the served window.
type request struct {
	slot   int
	events []serve.EventPair
}

// replayStats is one replay pass as the sender saw it.
type replayStats struct {
	wall     time.Duration   // first due time to last reply
	decide   []time.Duration // reply time minus due time, per request
	lag      []time.Duration // send time minus due time, per request
	send     []time.Duration // Client.Send round trip, per request
	stalls   []time.Duration // Send latency at the first slot of each retrain period
	failed   int64           // retried, degraded or unapplied requests
	queueMax int             // deepest ingest queue sampled between sends
	heapMB   float64         // peak in-use heap during the replay
}

// spinBelow is how close to a due time the sender stops sleeping and yields
// in a loop instead: time.Sleep overshoots by up to a millisecond here, and
// that lateness would otherwise be booked as daemon latency.
const spinBelow = 2 * time.Millisecond

func waitUntil(due time.Time) {
	if d := time.Until(due); d > spinBelow {
		time.Sleep(d - spinBelow)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// replay sends every request, one per Send on one connection, each due
// 1/rate after the previous whatever the replies do (open loop). When tr is
// non-nil the waits, sends and queue-depth samples are traced under parent.
func replay(tr *tracer, parent int, d *daemon, reqs []request, rate float64, retrainEvery int) (*replayStats, error) {
	st := &replayStats{}
	interval := time.Duration(float64(time.Second) / rate)
	nextRetrain := retrainEvery
	start := time.Now().Add(time.Millisecond)
	var done time.Time
	for i, r := range reqs {
		due := start.Add(time.Duration(i) * interval)
		w0 := time.Now()
		waitUntil(due)
		tr.add("bench.wait", parent, w0, time.Now())
		retries := d.client.Retries()
		sent := time.Now()
		replies, err := d.client.Send([]serve.Batch{{Slot: r.slot, Events: r.events}})
		done = time.Now()
		tr.add("serve.Client.Send", parent, sent, done)
		if err != nil {
			return nil, fmt.Errorf("slot %d: %w", r.slot, err)
		}
		st.decide = append(st.decide, done.Sub(due))
		st.lag = append(st.lag, sent.Sub(due))
		st.send = append(st.send, done.Sub(sent))
		if d.client.Retries() != retries || replies[0].Degraded || !replies[0].Applied {
			st.failed++
		}
		if retrainEvery > 0 && r.slot >= nextRetrain {
			st.stalls = append(st.stalls, done.Sub(sent))
			for nextRetrain <= r.slot {
				nextRetrain += retrainEvery
			}
		}
		if tr != nil {
			m0 := time.Now()
			m := d.srv.MetricsSnapshot()
			tr.add("serve.Server.MetricsSnapshot", parent, m0, time.Now())
			st.queueMax = max(st.queueMax, m.QueueDepth)
		}
	}
	st.wall = done.Sub(start)
	return st, nil
}

// checkServed verifies a daemon after a replay: every batch applied and the
// policy state equal to the batch reference's.
func checkServed(d *daemon, n int, want uint64) error {
	m := d.srv.MetricsSnapshot()
	if m.AppliedBatches != int64(n) {
		return fmt.Errorf("daemon applied %d of %d batches", m.AppliedBatches, n)
	}
	h, _, _, err := d.srv.StateHash()
	if err != nil {
		return err
	}
	if h != want {
		return fmt.Errorf("daemon state hash %016x, batch reference %016x", h, want)
	}
	return nil
}

// servePop is one population the daemon serves: its training days, its
// flash-crowd window as requests, and the batch reference's outcome.
type servePop struct {
	train *trace.Trace
	reqs  []request
	want  uint64      // reference state hash after the last request
	res   *sim.Result // reference result over the window
}

// newServePop generates population j and runs its batch reference: a
// sim.Driver fed the same events on the daemon's retrain schedule, hashed
// before Close advances it past the last served slot.
func newServePop(tr *tracer, cfg config, j int) (*servePop, error) {
	s := settings(cfg, j)
	if err := s.ApplyScenario("flashcrowd"); err != nil {
		return nil, err
	}
	_, train, simTr, _, err := generate(tr, s)
	if err != nil {
		return nil, err
	}
	p := &servePop{train: train}
	for slot, invs := range simTr.BuildSlotIndex().Invocations {
		if len(invs) == 0 {
			continue
		}
		ev := make([]serve.EventPair, len(invs))
		for i, fc := range invs {
			ev[i] = serve.EventPair{int64(fc.Func), int64(fc.Count)}
		}
		p.reqs = append(p.reqs, request{slot: slot, events: ev})
	}

	refID := tr.open("bench.reference", -1)
	defer tr.close(refID)
	policy := core.New(core.DefaultConfig())
	ref, err := driveSteps(tr, refID, policy, fresh(train), fresh(simTr), sim.DriverConfig{
		CollectCold:   true,
		RetrainEvery:  cfg.Scale.RetrainEvery,
		RetrainWindow: train.Slots,
		Window: func(t, w int) *trace.Trace {
			return sim.BuildRetrainWindow(train, simTr, t, w)
		},
	})
	if err != nil {
		return nil, err
	}
	if p.want, err = policy.StateHash(); err != nil {
		return nil, err
	}
	p.res = ref.finish(tr, refID, simTr.Slots)
	return p, nil
}

// serveOpenloop replays the two flash-crowd days of a population through
// an in-process daemon, one occupied slot per request from one sender at a
// fixed open-loop rate, with online retraining every RetrainEvery slots.
// Set-up is opening the daemon (serve.New trains SPES on the 12 training
// days). Each pass opens a fresh daemon, timed as a set-up, and must end on
// the state hash of its population's batch reference.
//
// A run serves populations drawn from the workload seed, one after
// another, at least ServePops and until the replays fill the budget, and
// reports medians over them. The decision tail is the retrain stall, and
// the stall's length is set by the population's largest applications as
// much as by the code: with one population per run the p99 moves by a
// quarter from seed to seed.
func serveOpenloop(cfg config) (*report, error) {
	var tr *tracer
	if cfg.Traced {
		tr = newTracer()
	}
	rep := newReport(tr)
	sc := cfg.Scale

	var opens []time.Duration
	// pass opens a daemon for population j, replays its window open loop
	// and checks the outcome.
	pass := func(j int, p *servePop, trp *tracer, parent int) (*replayStats, error) {
		d, took, err := openDaemon(tr, filepath.Join(cfg.Work, fmt.Sprintf("serve-%d", j)), p.train, sc.RetrainEvery)
		if err != nil {
			return nil, err
		}
		opens = append(opens, took)
		// The replay starts from live data only, and the heap is sampled
		// without stopping the world, so the sampling stays off the
		// latencies.
		runtime.GC()
		h := sampleHeap()
		st, err := replay(trp, parent, d, p.reqs, sc.Rate, sc.RetrainEvery)
		heapMB := h.finish()
		if err == nil {
			st.heapMB = heapMB
			rep.check(checkServed(d, len(p.reqs), p.want))
			rep.attempted += int64(len(p.reqs))
			rep.failed += st.failed
		}
		if trp != nil {
			m := d.srv.MetricsSnapshot()
			rep.set("serve.requests", float64(m.IngestRequests))
			rep.set("serve.retries", float64(d.client.Retries()))
			rep.set("serve.shed_queue", float64(m.ShedQueue))
			rep.set("serve.shed_decision", float64(m.ShedDecision))
			rep.set("serve.snapshots", float64(m.Snapshots))
			rep.set("serve.applied_events", float64(m.AppliedEvents))
		}
		return st, errors.Join(err, d.shutdown())
	}

	pops := perPop{}
	var (
		untraced    []time.Duration
		units, refs []int
		traced      []*replayStats
		outcome     *sim.Result
	)
	// One population at a time, so the heap holds only the one served; at
	// least ServePops of them, and as many as the replays need to fill the
	// budget.
	var timed time.Duration
	for j := 0; j < sc.ServePops || timed < cfg.Budget; j++ {
		p, err := newServePop(tr, cfg, j)
		if err != nil {
			return nil, err
		}
		if j == 0 {
			outcome = p.res
			if cfg.perturb {
				p.want ^= 1
			}
		}
		pops.add("wmt_min", float64(p.res.TotalWMT))

		if cfg.Traced {
			// Alternate untraced and traced passes over the populations.
			u := -1
			if j%2 == 1 {
				u = tr.open("bench.unit", -1)
			}
			trp := tr
			if u < 0 {
				trp = nil
			}
			st, err := pass(j, p, trp, u)
			tr.close(u)
			if err != nil {
				return nil, err
			}
			timed += st.wall
			if u < 0 {
				untraced = append(untraced, st.wall)
			} else {
				units = append(units, u)
				traced = append(traced, st)
			}
			continue
		}

		st, err := pass(j, p, nil, -1)
		if err != nil {
			return nil, err
		}
		timed += st.wall
		pops.add("run_s", st.wall.Seconds())
		pops.add("decide_p50_ms", ms(quantile(st.decide, 0.50)))
		pops.add("decide_p99_ms", ms(quantile(st.decide, 0.99)))
		pops.add("heap_peak_mb", st.heapMB)
	}

	if cfg.Traced {
		var send, lag, stalls []time.Duration
		queueMax := 0
		for _, st := range traced {
			send = append(send, st.send...)
			lag = append(lag, st.lag...)
			stalls = append(stalls, st.stalls...)
			queueMax = max(queueMax, st.queueMax)
		}
		for _, id := range tr.children(-1) {
			if tr.name(id) == "bench.reference" {
				refs = append(refs, id)
			}
		}
		rep.set("trace.generate_s", medianSecs(tr.durations("trace.Generate")))
		rep.set("trace.slot_index_s", medianSecs(tr.perParent("trace.Trace.BuildSlotIndex", refs)))
		rep.set("core.train_s", medianSecs(tr.durations("core.SPES.Train")))
		setStepMetrics(rep, refs)
		setOutcome(rep, outcome)
		rep.set("serve.open_s", medianSecs(opens))
		rep.set("serve.send_ms_p50", ms(quantile(send, 0.50)))
		rep.set("serve.send_ms_p99", ms(quantile(send, 0.99)))
		rep.set("serve.retrain_stall_ms", ms(quantile(stalls, 0.5)))
		rep.set("serve.queue_depth_max", float64(queueMax))
		rep.set("bench.lag_ms_p50", ms(quantile(lag, 0.50)))
		rep.set("bench.lag_ms_p99", ms(quantile(lag, 0.99)))
		setTraceCost(rep, units, untraced)
		return rep, nil
	}

	pops.report(rep)
	rep.set("setup_s", medianSecs(opens))
	okFrac(rep)
	return rep, nil
}
