package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"repro/internal/classify"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Snapshot/restore of live SPES policy state, the crash-safety half of the
// serving daemon (internal/serve): EncodeState serializes everything a
// restarted process needs to continue ticking exactly where the dead one
// stopped, RestoreState rebuilds a fresh instance from those bytes, and
// StateHash fingerprints the canonical state so tests can assert the
// bit-identity invariant (DESIGN.md "Failure semantics"): a daemon killed
// and restored from snapshot + journal tail reaches the same hash as one
// that was never disturbed.
//
// Only the CANONICAL state is serialized — the facts that define the
// policy's future decisions: profiles and their online-WT observations, the
// hot per-function arrays (lastInvoked, eventSlot, seq, loaded,
// preloadUntil, wtOff), the online-correlation counters, and the engine
// clock (lastTick). Everything else is a derived view and is rebuilt on
// restore: the type cache from profiles, the correlated-link reverse index
// from profile links, the WT histogram family by replaying histAdd over the
// serialized samples (an order-independent multiset), the loaded count from
// the loaded set, and the timing wheel by re-arming each function's single
// outstanding deadline from (eventSlot, seq). Abandoned stale-seq wheel
// events are NOT resurrected — in the undisturbed process they fire as
// no-ops (or surface as no-op wake-ups), neither of which changes canonical
// state, so the restored process stays bit-identical where it matters.

// snapMagic versions the encoding; any mismatch is a hard error, never a
// guess. ST2 dropped ST1's per-function idle counter, which only a per-slot
// scan engine maintained.
const snapMagic = "SPES-ST2"

// snapFamily is the magic prefix every SPES state version shares, so an
// older or newer version is refused as such rather than as foreign bytes.
const snapFamily = "SPES-ST"

// errSnapshotVersion is returned for a SPES state snapshot of another
// encoding version.
var errSnapshotVersion = errors.New("core: unsupported SPES state snapshot version")

// minFuncBytes is the smallest encoding of one function: three empty
// strings and the trigger (25 bytes), the hot arrays (41), and a profile
// with no values, links or online WTs (82). A claimed function count is
// checked against it before anything is allocated.
const minFuncBytes = 25 + 41 + 82

// EncodeState serializes the policy's canonical state. The policy must be
// trained, and any pending load deltas must have been consumed
// (TakeLoadDeltas) first — a snapshot between Tick and delta consumption
// would fork the caller's accounting from the policy's.
func (s *SPES) EncodeState() ([]byte, error) {
	if s.states == nil {
		return nil, fmt.Errorf("core: EncodeState on an untrained policy")
	}
	if len(s.deltas) > 0 {
		return nil, fmt.Errorf("core: EncodeState with %d unconsumed load deltas; drain TakeLoadDeltas first", len(s.deltas))
	}
	n := len(s.states)
	e := &stateEnc{buf: make([]byte, 0, 1<<16)}
	e.bytes([]byte(snapMagic))
	e.u64(sim.HashConfig(s.cfg))
	e.i64(int64(s.trainSlots))
	e.i64(int64(s.lastTick))
	e.i64(int64(n))

	for fid := 0; fid < n; fid++ {
		f := s.meta[fid]
		e.str(f.Name)
		e.str(f.App)
		e.str(f.User)
		e.u8(uint8(f.Trigger))
	}
	for fid := 0; fid < n; fid++ {
		e.i64(int64(s.lastInvoked[fid]))
		e.i64(int64(s.eventSlot[fid]))
		e.u64(uint64(s.seq[fid]))
		e.bool(s.loaded[fid])
		e.i64(int64(s.preloadUntil[fid]))
		e.i64(int64(s.wtOff[fid]))
	}
	for fid := 0; fid < n; fid++ {
		st := &s.states[fid]
		p := &st.profile
		e.u8(uint8(p.Type))
		e.ints(p.Values)
		e.i64(int64(p.RangeLo))
		e.i64(int64(p.RangeHi))
		e.f64(p.MedianWT)
		e.f64(p.StdWT)
		e.i64(int64(p.WTCount))
		e.i64(int64(len(p.Links)))
		for _, l := range p.Links {
			e.i64(int64(l.Cand))
			e.i64(int64(l.Lag))
		}
		e.bool(st.everTrained)
		e.ints(st.onlineWTs)
		e.i64(int64(st.wtHead))
		e.i64(int64(st.adjustedAt))
	}
	e.bool(s.ucorr != nil)
	if s.ucorr != nil {
		for fid := 0; fid < n; fid++ {
			e.i64(int64(s.ucorr.lastFired[fid]))
		}
		for fid := 0; fid < n; fid++ {
			tgt := s.ucorr.targets[fid]
			e.bool(tgt != nil)
			if tgt == nil {
				continue
			}
			e.i64(int64(tgt.invocations))
			e.i64(int64(len(tgt.cands)))
			for _, c := range tgt.cands {
				e.i64(int64(c.fid))
				e.i64(int64(c.hits))
				e.i64(int64(c.fires))
			}
		}
	}
	return e.buf, nil
}

// RestoreState rebuilds the full policy state from EncodeState bytes onto a
// freshly constructed (untrained) instance. The configuration must match the
// snapshotting policy's — the embedded config hash is verified, because
// thresholds baked into profiles and deadlines are meaningless under a
// different config. The bytes are untrusted: every value EncodeState cannot
// produce is refused with an error, and no allocation is sized by a count
// the remaining input could not back.
func (s *SPES) RestoreState(data []byte) error {
	if s.states != nil {
		return fmt.Errorf("core: RestoreState on an already-initialized policy")
	}
	d := &stateDec{buf: data}
	if magic := string(d.take(len(snapMagic))); magic != snapMagic {
		if strings.HasPrefix(magic, snapFamily) {
			return fmt.Errorf("%w: %q (this build reads %q)", errSnapshotVersion, magic, snapMagic)
		}
		return fmt.Errorf("core: snapshot magic mismatch (not a SPES state snapshot)")
	}
	if h := d.u64(); h != sim.HashConfig(s.cfg) {
		return fmt.Errorf("core: snapshot was taken under a different SPES config (hash %016x, have %016x)",
			h, sim.HashConfig(s.cfg))
	}
	trainSlots := d.i64()
	lastTick := d.i64()
	n := d.count(minFuncBytes)
	if d.err != nil {
		return fmt.Errorf("core: bad snapshot header: %w", d.err)
	}
	if trainSlots < 0 || trainSlots > math.MaxInt32 {
		return fmt.Errorf("core: snapshot training window of %d slots", trainSlots)
	}
	if lastTick < -1 || lastTick >= math.MaxInt32 {
		return fmt.Errorf("core: snapshot engine clock at slot %d", lastTick)
	}
	s.trainSlots = int(trainSlots)
	s.lastTick = int(lastTick)

	s.meta = make([]trace.Function, n)
	s.states = make([]funcState, n)
	s.listeners = make([][]listener, n)
	s.lastInvoked = make([]int32, n)
	s.eventSlot = make([]int32, n)
	s.seq = make([]uint32, n)
	s.loaded = make([]bool, n)
	s.typ = make([]classify.Type, n)
	s.preloadUntil = make([]int32, n)
	s.wtOff = make([]int8, n)
	for typ := classify.Type(0); typ < classify.NumTypes; typ++ {
		s.thetaGivenupByType[typ] = s.cfg.Classify.ThetaGivenup(typ)
	}

	for fid := 0; fid < n; fid++ {
		f := trace.Function{
			ID:      trace.FuncID(fid),
			Name:    d.str(),
			App:     d.str(),
			User:    d.str(),
			Trigger: trace.Trigger(d.u8()),
		}
		if _, err := trace.ParseTrigger(f.Trigger.String()); err != nil && d.err == nil {
			d.fail("function %d has trigger %d", fid, f.Trigger)
		}
		s.meta[fid] = f
	}
	s.loadedCount = 0
	for fid := 0; fid < n; fid++ {
		s.lastInvoked[fid] = d.i32()
		s.eventSlot[fid] = d.i32()
		s.seq[fid] = d.u32()
		s.loaded[fid] = d.bool()
		s.preloadUntil[fid] = d.i32()
		s.wtOff[fid] = int8(d.i64())
		if s.loaded[fid] {
			s.loadedCount++
		}
		if d.err != nil {
			break
		}
		// Train and Admit rebase a function's last invocation to no earlier
		// than the training window's start, Tick to no later than its own
		// clock; a live deadline always lies after the clock.
		if last := int(s.lastInvoked[fid]); last < -s.trainSlots || last > s.lastTick {
			d.fail("function %d last invoked at slot %d", fid, last)
		}
		if ev := int(s.eventSlot[fid]); ev != -1 && ev <= s.lastTick {
			d.fail("function %d has a deadline at slot %d, clock at %d", fid, ev, s.lastTick)
		}
		if s.preloadUntil[fid] < -1 {
			d.fail("function %d pre-loads through slot %d", fid, s.preloadUntil[fid])
		}
		if off := s.wtOff[fid]; off != 0 && off != 1 {
			d.fail("function %d has WT offset %d", fid, off)
		}
	}
	if d.err != nil {
		return fmt.Errorf("core: bad snapshot: %w", d.err)
	}
	for fid := 0; fid < n; fid++ {
		st := &s.states[fid]
		st.profile = classify.Profile{
			Type:     classify.Type(d.u8()),
			Values:   d.ints(),
			RangeLo:  int(d.i64()),
			RangeHi:  int(d.i64()),
			MedianWT: d.f64(),
			StdWT:    d.f64(),
			WTCount:  int(d.i64()),
		}
		if links := d.count(16); links > 0 {
			st.profile.Links = make([]classify.Link, links)
			for i := range st.profile.Links {
				cand := d.i64()
				if d.err == nil && (cand < 0 || cand >= int64(n)) {
					return fmt.Errorf("core: snapshot function %d links to candidate %d of %d", fid, cand, n)
				}
				st.profile.Links[i] = classify.Link{Cand: int32(cand), Lag: d.i32()}
			}
		}
		st.everTrained = d.bool()
		st.onlineWTs = d.ints()
		st.wtHead = d.i32()
		st.adjustedAt = int(d.i64())
		if d.err != nil {
			return fmt.Errorf("core: bad snapshot: %w", d.err)
		}
		if st.profile.Type >= classify.NumTypes {
			return fmt.Errorf("core: snapshot function %d has type %d", fid, st.profile.Type)
		}
		if err := st.checkOnlineWTs(); err != nil {
			return fmt.Errorf("core: snapshot function %d: %w", fid, err)
		}

		// Derived views: the type cache, the link reverse index, and the
		// online-WT histogram (histAdd over any sample order rebuilds the
		// same multiset the live instance maintained incrementally).
		s.typ[fid] = st.profile.Type
		for _, l := range st.profile.Links {
			s.listeners[l.Cand] = append(s.listeners[l.Cand], listener{
				target: trace.FuncID(fid), lag: l.Lag,
			})
		}
		for _, wt := range st.onlineWTs {
			st.histAdd(wt)
		}
	}
	// Train creates the online-correlation state exactly when the config
	// enables it.
	if hasCorr := d.bool(); d.err == nil && hasCorr == s.cfg.DisableOnlineCorr {
		return fmt.Errorf("core: snapshot online-correlation state (%v) contradicts the config", hasCorr)
	} else if hasCorr {
		if err := s.restoreOnlineCorr(d); err != nil {
			return err
		}
	}
	if d.err != nil {
		return fmt.Errorf("core: truncated snapshot: %w", d.err)
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("core: %d trailing bytes after snapshot payload", len(d.buf))
	}

	// Re-arm the timing wheel from each function's single outstanding
	// deadline. Stale-seq events the live wheel still carried are not
	// recreated; they were no-ops there and their absence only spares a
	// wake-up that would have changed nothing.
	s.wheel = sched.NewWheel(wheelSpan)
	for fid := 0; fid < n; fid++ {
		if ev := s.eventSlot[fid]; ev >= 0 {
			s.wheel.Schedule(s.lastTick, int(ev), sched.Event{
				Owner: int32(fid), Slot: ev, Seq: s.seq[fid],
			})
		}
	}
	return nil
}

// checkOnlineWTs refuses an online-WT history recordOnlineWT could not have
// built: samples are positive, at most maxOnlineWTs of them, the ring head
// moves only once the ring is full, and adjustment never runs ahead of the
// samples.
func (st *funcState) checkOnlineWTs() error {
	k := len(st.onlineWTs)
	if k > maxOnlineWTs {
		return fmt.Errorf("%d online WTs, at most %d are kept", k, maxOnlineWTs)
	}
	for _, wt := range st.onlineWTs {
		if wt <= 0 {
			return fmt.Errorf("online WT %d", wt)
		}
	}
	if st.wtHead < 0 || (k < maxOnlineWTs && st.wtHead != 0) || st.wtHead >= maxOnlineWTs {
		return fmt.Errorf("online-WT ring head %d with %d samples", st.wtHead, k)
	}
	if st.adjustedAt < 0 || st.adjustedAt > k {
		return fmt.Errorf("adjusted at %d of %d online WTs", st.adjustedAt, k)
	}
	return nil
}

// restoreOnlineCorr decodes the online-correlation section of a snapshot:
// every function's last firing, then each unseen target's candidate set.
func (s *SPES) restoreOnlineCorr(d *stateDec) error {
	n := len(s.states)
	s.ucorr = newOnlineCorr(s.meta, s.cfg)
	for fid := 0; fid < n; fid++ {
		s.ucorr.lastFired[fid] = int(d.i64())
		if v := s.ucorr.lastFired[fid]; d.err == nil && (v < -1 || v > s.lastTick) {
			d.fail("function %d last fired at slot %d", fid, v)
		}
	}
	for fid := 0; fid < n; fid++ {
		if !d.bool() {
			continue
		}
		tgt := &utarget{fid: trace.FuncID(fid), invocations: int(d.i64())}
		cands := d.count(24)
		if d.err != nil {
			return fmt.Errorf("core: bad snapshot: %w", d.err)
		}
		if tgt.invocations < 0 || cands > s.cfg.OnlineCandidateCap {
			return fmt.Errorf("core: snapshot target %d has %d invocations and %d candidates",
				fid, tgt.invocations, cands)
		}
		tgt.cands = make([]ucandidate, cands)
		for i := range tgt.cands {
			cand := d.i64()
			if d.err == nil && (cand < 0 || cand >= int64(n)) {
				return fmt.Errorf("core: snapshot target %d names candidate %d of %d", fid, cand, n)
			}
			c := ucandidate{fid: trace.FuncID(cand), hits: int(d.i64()), fires: int(d.i64())}
			if c.hits < 0 || c.fires < 0 {
				return fmt.Errorf("core: snapshot target %d candidate %d has %d hits in %d fires",
					fid, cand, c.hits, c.fires)
			}
			tgt.cands[i] = c
		}
		if d.err != nil {
			return fmt.Errorf("core: bad snapshot: %w", d.err)
		}
		s.ucorr.targets[fid] = tgt
		for _, c := range tgt.cands {
			s.ucorr.byCandidate[c.fid] = append(s.ucorr.byCandidate[c.fid], tgt)
		}
	}
	return nil
}

// StateHash fingerprints the canonical policy state (FNV-1a over the
// EncodeState bytes): two instances with equal hashes will make identical
// decisions forever after. It is the value the kill-and-restore tests — and
// the daemon's /v1/statehash endpoint — compare.
func (s *SPES) StateHash() (uint64, error) {
	data, err := s.EncodeState()
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64(), nil
}

// WheelDepth reports the live timing-wheel event count, a queue-depth gauge
// for serving metrics.
func (s *SPES) WheelDepth() int { return s.wheel.Live() }

// Admit grows the policy by one function observed for the first time after
// training — the live-admission path of the serving daemon. The newcomer is
// seeded exactly as Train seeds a never-trained function (unknown type,
// lazy-WT offset, lastInvoked rebased to before the training window) and is
// registered for online correlation, so a later Retrain window containing
// its history categorizes it just as a batch run over the full trace would.
// The policy must be trained (or restored); the returned FuncID is the next
// dense id, which the caller's trace metadata must agree with.
func (s *SPES) Admit(f trace.Function) trace.FuncID {
	fid := trace.FuncID(len(s.states))
	f.ID = fid
	s.meta = append(s.meta, f)
	s.states = append(s.states, funcState{})
	s.listeners = append(s.listeners, nil)
	s.lastInvoked = append(s.lastInvoked, int32(-s.trainSlots))
	s.eventSlot = append(s.eventSlot, -1)
	s.seq = append(s.seq, 0)
	s.loaded = append(s.loaded, false)
	s.typ = append(s.typ, classify.TypeUnknown)
	s.preloadUntil = append(s.preloadUntil, -1)
	s.wtOff = append(s.wtOff, 1)
	if s.ucorr != nil {
		s.ucorr.admit(s.meta)
		s.ucorr.register(fid)
	}
	return fid
}

// NumFunctions reports the policy's current population size (grows under
// Admit).
func (s *SPES) NumFunctions() int { return len(s.states) }

// admit extends the online-correlation state for one newly admitted
// function; meta is the policy's grown metadata slice (the newcomer last).
func (u *onlineCorr) admit(meta []trace.Function) {
	u.meta = meta
	u.targets = append(u.targets, nil)
	u.byCandidate = append(u.byCandidate, nil)
	u.lastFired = append(u.lastFired, -1)
}

// stateEnc appends fixed-width little-endian fields; the format needs no
// varints — snapshots are written through the disk-cache discipline, which
// already handles framing and integrity.
type stateEnc struct{ buf []byte }

func (e *stateEnc) bytes(b []byte) { e.buf = append(e.buf, b...) }
func (e *stateEnc) u8(v uint8)     { e.buf = append(e.buf, v) }
func (e *stateEnc) u64(v uint64)   { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *stateEnc) i64(v int64)    { e.u64(uint64(v)) }
func (e *stateEnc) f64(v float64)  { e.u64(math.Float64bits(v)) }
func (e *stateEnc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *stateEnc) str(s string) {
	e.i64(int64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *stateEnc) ints(v []int) {
	e.i64(int64(len(v)))
	for _, x := range v {
		e.i64(int64(x))
	}
}

// stateDec consumes a stateEnc buffer; the first short read or
// out-of-range value latches err and every later read returns zero, so
// decode loops stay linear and the caller checks err once per section.
type stateDec struct {
	buf []byte
	err error
}

// fail latches a decode error unless one is already latched.
func (d *stateDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *stateDec) take(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.buf) {
		d.fail("need %d bytes, have %d", n, len(d.buf))
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}
func (d *stateDec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (d *stateDec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
func (d *stateDec) i64() int64   { return int64(d.u64()) }
func (d *stateDec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *stateDec) str() string  { return string(d.take(int(d.i64()))) }

// i32 and u32 read the 64-bit fields that hold 32-bit state; a value that
// does not fit could not have been encoded.
func (d *stateDec) i32() int32 {
	v := d.i64()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.fail("value %d overflows int32", v)
		return 0
	}
	return int32(v)
}
func (d *stateDec) u32() uint32 {
	v := d.u64()
	if v > math.MaxUint32 {
		d.fail("value %d overflows uint32", v)
		return 0
	}
	return uint32(v)
}

func (d *stateDec) bool() bool {
	b := d.u8()
	if b > 1 {
		d.fail("bool byte %d", b)
	}
	return b == 1
}

// count reads a length field whose entries take at least minBytes each and
// refuses one the remaining input cannot back.
func (d *stateDec) count(minBytes int) int {
	n := d.i64()
	if n < 0 || n > int64(len(d.buf)/minBytes) {
		d.fail("count %d with %d bytes left", n, len(d.buf))
		return 0
	}
	return int(n)
}

func (d *stateDec) ints() []int {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.i64())
	}
	return out
}
