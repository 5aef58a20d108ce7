package sim

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/retry"
	"repro/internal/trace"
)

// DiskCache is the on-disk spill/restore tier behind ShardCache: one file
// per shard outcome, named and verified by the entry's content key, so
// cached sweeps survive process restarts and an LRU-evicted entry can be
// restored instead of re-simulated. Keys are pure content (policy name +
// config hash, shard trace fingerprint, slot count — see shardKey), which
// is what makes entries relocatable: any process that derives the same key
// would have produced a bit-identical outcome, so a restored entry is as
// good as a fresh run.
//
// Robustness rule: a disk read may only ever produce a bit-exact entry or
// a miss — never a wrong result. Every file carries a format version and a
// trailing checksum over its full contents; a truncated, corrupted,
// version-mismatched, or key-mismatched (filename collision) file is
// treated as a miss and the shard re-simulates. Writes go through a temp
// file and an atomic rename, so a crash mid-write can leave stray garbage
// but never a live half-entry.
//
// A DiskCache is an open directory handle, safe for concurrent use by any
// number of goroutines and processes: entries are immutable once renamed
// into place, and two writers racing on one key write bit-identical bytes.
type DiskCache struct {
	dir string
	fs  CacheFS
}

// CacheFS is the filesystem seam every DiskCache data operation routes
// through. Production code uses the real filesystem (OpenDiskCache); the
// deterministic fault-injection harness (internal/faultinject) substitutes
// an implementation that injects read/write/rename errors, short writes,
// and bit flips on a seeded schedule — which is how the "a disk read may
// only ever produce a bit-exact entry or a miss" rule is proven rather
// than hoped for. Implementations must be safe for concurrent use.
type CacheFS interface {
	// ReadFile reads the named file (os.ReadFile semantics: a missing file
	// returns an error satisfying os.IsNotExist).
	ReadFile(name string) ([]byte, error)
	// CreateTemp creates a new temp file in dir (os.CreateTemp pattern
	// semantics).
	CreateTemp(dir, pattern string) (CacheFile, error)
	// Rename atomically moves oldpath over newpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
}

// CacheFile is the writable temp-file handle CacheFS hands out.
type CacheFile interface {
	Write(p []byte) (n int, err error)
	Close() error
	Name() string
}

// osFS is the real-filesystem CacheFS.
type osFS struct{}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) CreateTemp(dir, pattern string) (CacheFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

// diskMagic opens every entry file; diskVersion is the serialization
// format version. Bump diskVersion on ANY change to the entry encoding —
// readers reject other versions as misses, which is the correct (and only
// safe) migration: the entry re-simulates and overwrites.
//
// engineEpoch extends the content key across commits: the shardKey covers
// the policy's CONFIG, not the engine's CODE, and disk entries deliberately
// outlive the process (CI carries the directory across workflow runs), so
// a change to simulation semantics that touches no config field would
// otherwise serve stale outcomes computed by an older binary. Bump
// engineEpoch with any commit that changes simulation results for an
// unchanged configuration — epoch-mismatched entries are rejected as
// misses and re-simulate.
const (
	diskMagic   = "SPESSHC\x00"
	diskVersion = uint32(1)
	engineEpoch = uint32(1)
)

// castagnoli is the CRC-32C table used for entry checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// tmpPattern names the temp files save stages entries in; tmpOrphanAge is
// how stale such a file must be before OpenDiskCache reclaims it. A process
// killed mid-write leaves its temp file behind (the atomic-rename design
// trades that for never exposing a half-entry), so without the sweep a
// crash-looping sweep would accumulate garbage forever. The age gate keeps
// the sweep safe under concurrency: a temp file younger than the gate may
// belong to a live writer in another process, so it is left alone — it
// either gets renamed into place or swept by a later open.
const (
	tmpPattern   = ".tmp-shard-*"
	tmpOrphanAge = 15 * time.Minute
)

// OpenDiskCache opens (creating if needed) an entry directory. The same
// directory may back many ShardCaches, concurrently and across processes.
// Orphaned temp files from writers that died mid-write are swept on open
// (best-effort; see tmpOrphanAge). Temp files are never served — loads
// only ever read final entry names — so the sweep is purely a disk-space
// reclaim.
func OpenDiskCache(dir string) (*DiskCache, error) {
	return OpenDiskCacheFS(dir, osFS{})
}

// OpenDiskCacheFS is OpenDiskCache with the filesystem seam explicit. Only
// fault-injection harnesses and tests supply a non-default fs.
func OpenDiskCacheFS(dir string, fs CacheFS) (*DiskCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("sim: disk cache needs a directory")
	}
	if fs == nil {
		fs = osFS{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sim: disk cache: %w", err)
	}
	d := &DiskCache{dir: dir, fs: fs}
	d.sweepOrphans()
	return d, nil
}

// sweepOrphans removes temp files older than tmpOrphanAge. Best-effort by
// design: a sweep failure costs disk space, never correctness, so errors
// are ignored (directory scans and removals race benignly with concurrent
// opens doing the same).
func (d *DiskCache) sweepOrphans() {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-tmpOrphanAge)
	for _, ent := range ents {
		if ok, _ := filepath.Match(tmpPattern, ent.Name()); !ok || ent.IsDir() {
			continue
		}
		info, err := ent.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		d.fs.Remove(filepath.Join(d.dir, ent.Name()))
	}
}

// Dir returns the cache's entry directory.
func (d *DiskCache) Dir() string { return d.dir }

// path maps a key to its entry file. The name is a hash of the full key —
// collisions are possible in principle, so load verifies the key block
// stored inside the file and treats a mismatch as a miss.
func (d *DiskCache) path(key shardKey) string {
	h := fnv.New64a()
	writeU64(h, uint64(len(key.policy)))
	h.Write([]byte(key.policy))
	writeU64(h, key.config)
	writeU64(h, key.trace)
	writeU64(h, uint64(key.slots))
	return filepath.Join(d.dir, fmt.Sprintf("shard-%016x.sce", h.Sum64()))
}

// Write-path retry bounds: a failing save re-stages the whole temp-file
// write up to diskSaveAttempts times with a short backoff (retry.Policy's
// doubling schedule: 2ms, then 4ms). Filesystem errors cannot be reliably
// classified from errno alone, so the write path treats every failure as
// possibly transient (nil classifier) and lets the attempt cap bound the
// damage; a save that still fails is reported to ShardCache, which counts
// it toward the disk-tier tripwire.
const (
	diskSaveAttempts = 3
	diskSaveBackoff  = 2 * time.Millisecond
)

// save serializes an entry and renames it into place atomically, retrying
// transiently failing writes. Errors are reported so ShardCache can count
// them, but callers treat the disk tier as best-effort: a failed save only
// costs a future re-simulation.
func (d *DiskCache) save(key shardKey, ent *shardEntry) error {
	buf := encodeEntry(key, ent)
	p := retry.Policy{MaxAttempts: diskSaveAttempts, BaseDelay: diskSaveBackoff}
	return p.Do(func(int) error { return d.writeEntry(buf, key) }, nil)
}

// writeEntry is one staged write: temp file, full-length write, close,
// atomic rename. A short write that the filesystem does not itself report
// is surfaced as io.ErrShortWrite (a lying disk that reports full length
// while persisting less is caught by the entry checksum on read instead).
func (d *DiskCache) writeEntry(buf []byte, key shardKey) error {
	tmp, err := d.fs.CreateTemp(d.dir, tmpPattern)
	if err != nil {
		return err
	}
	n, err := tmp.Write(buf)
	if err == nil && n < len(buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		tmp.Close()
		d.fs.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		d.fs.Remove(tmp.Name())
		return err
	}
	if err := d.fs.Rename(tmp.Name(), d.path(key)); err != nil {
		d.fs.Remove(tmp.Name())
		return err
	}
	return nil
}

// load reads, verifies, and decodes the entry for key. It returns (nil,
// nil) for a plain miss — no file, or a file that fails any verification
// step (corruption is a content problem, not a device problem, so it does
// not count toward the disk-tier tripwire) — and a non-nil error only for
// I/O failures, which ShardCache counts and eventually trips on.
func (d *DiskCache) load(key shardKey) (*shardEntry, error) {
	data, err := d.fs.ReadFile(d.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	ent, err := decodeEntry(key, data)
	if err != nil {
		// Corrupt, truncated, stale-version, or colliding entry: a miss.
		// The shard re-simulates and the store overwrites the bad file.
		return nil, nil
	}
	return ent, nil
}

// Entry file layout (all integers little-endian):
//
//	magic[8] | version u32 | engine epoch u32 | key block | payload | checksum u32
//
// key block: policy (u32 len + bytes), config u64, trace u64, slots u32.
// payload: Result fields, slotLog vectors, Global mapping (see
// encodeEntry). checksum: CRC-32C (Castagnoli — hardware-accelerated, so
// restart-warming large sweeps is not checksum-bound) over every preceding
// byte, so any truncation or flip anywhere — header, key, or payload —
// fails verification. Version is checked before the checksum only to give
// version skew a distinct (but equally miss-shaped) rejection.

// entryBuf is a tiny append-only encoder; decoding mirrors it with a
// bounds-checked cursor.
type entryBuf struct{ b []byte }

func (e *entryBuf) u8(v uint8)    { e.b = append(e.b, v) }
func (e *entryBuf) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *entryBuf) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *entryBuf) i64(v int64)   { e.u64(uint64(v)) }
func (e *entryBuf) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *entryBuf) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// encodeEntry serializes (key, entry) into the versioned checksummed file
// format.
func encodeEntry(key shardKey, ent *shardEntry) []byte {
	res, log := ent.res, ent.log
	e := &entryBuf{b: make([]byte, 0,
		64+len(key.policy)+len(res.Policy)+
			32*len(res.PerFunc)+8*len(log.loaded)+4*len(ent.global))}
	e.b = append(e.b, diskMagic...)
	e.u32(diskVersion)
	e.u32(engineEpoch)

	// Key block: verified on load against the key the reader derived, so a
	// filename hash collision can never alias two entries.
	e.str(key.policy)
	e.u64(key.config)
	e.u64(key.trace)
	e.u32(uint32(key.slots))

	// Result.
	e.str(res.Policy)
	e.u32(uint32(res.Slots))
	e.u32(uint32(res.Functions))
	e.u32(uint32(len(res.PerFunc)))
	for _, m := range res.PerFunc {
		e.i64(m.Invocations)
		e.i64(m.InvokedSlot)
		e.i64(m.ColdStarts)
		e.i64(m.WMTMinutes)
	}
	e.i64(res.TotalInvocations)
	e.i64(res.TotalInvokedSlot)
	e.i64(res.TotalColdStarts)
	e.i64(res.TotalWMT)
	e.i64(res.TotalMemory)
	e.u32(uint32(res.MaxLoaded))
	e.f64(res.EMCRSum)
	e.i64(res.EMCRSlots)
	e.i64(int64(res.Overhead))
	// Types: nil and present are distinct — the merge only labels the
	// global result when every shard is typed. Labels come from a small
	// fixed vocabulary (the policies' category names), so they are encoded
	// as a dictionary plus per-function indices whose width (1, 2, or 4
	// bytes) both sides derive from the dictionary size.
	if res.Types == nil {
		e.u8(0)
	} else {
		e.u8(1)
		var dict []string
		idx := make(map[string]uint32, 16)
		for _, t := range res.Types {
			if _, ok := idx[t]; !ok {
				idx[t] = uint32(len(dict))
				dict = append(dict, t)
			}
		}
		e.u32(uint32(len(dict)))
		for _, s := range dict {
			e.str(s)
		}
		e.u32(uint32(len(res.Types)))
		w := indexWidth(len(dict))
		for _, t := range res.Types {
			v := idx[t]
			switch w {
			case 1:
				e.u8(uint8(v))
			case 2:
				e.b = binary.LittleEndian.AppendUint16(e.b, uint16(v))
			default:
				e.u32(v)
			}
		}
	}

	// slotLog.
	e.u32(uint32(len(log.loaded)))
	for _, v := range log.loaded {
		e.u32(uint32(v))
	}
	for _, v := range log.active {
		e.u32(uint32(v))
	}

	// Global mapping.
	e.u32(uint32(len(ent.global)))
	for _, g := range ent.global {
		e.u32(uint32(g))
	}

	e.u32(crc32.Checksum(e.b, castagnoli))
	return e.b
}

// entryReader is the bounds-checked decode cursor: every read reports
// truncation as an error instead of panicking, so decodeEntry degrades any
// malformed file into a miss.
type entryReader struct {
	b   []byte
	off int
	err error
}

func (r *entryReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) || n < 0 {
		r.err = fmt.Errorf("sim: disk entry truncated at offset %d (+%d of %d)", r.off, n, len(r.b))
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *entryReader) u8() uint8 {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *entryReader) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (r *entryReader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *entryReader) i64() int64 { return int64(r.u64()) }

func (r *entryReader) str() string {
	n := int(r.u32())
	s := r.take(n)
	if s == nil {
		return ""
	}
	return string(s)
}

// indexWidth returns the byte width of a type-dictionary index, derived
// from the dictionary size identically by encoder and decoder.
func indexWidth(dictLen int) int {
	switch {
	case dictLen <= 1<<8:
		return 1
	case dictLen <= 1<<16:
		return 2
	default:
		return 4
	}
}

// decodeI32s bulk-decodes a fixed-width int32 vector.
func decodeI32s(r *entryReader, n int) []int32 {
	blk := r.take(4 * n)
	if blk == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(blk[i*4:]))
	}
	return out
}

// decodeEntry verifies and decodes one entry file. Any failure — bad magic,
// version skew, checksum mismatch, truncation, or a key block that does not
// match wantKey — returns an error the caller maps to a cache miss.
func decodeEntry(wantKey shardKey, data []byte) (*shardEntry, error) {
	if len(data) < len(diskMagic)+8+4 {
		return nil, fmt.Errorf("sim: disk entry too short (%d bytes)", len(data))
	}
	if string(data[:len(diskMagic)]) != diskMagic {
		return nil, fmt.Errorf("sim: disk entry has wrong magic")
	}
	if v := binary.LittleEndian.Uint32(data[len(diskMagic):]); v != diskVersion {
		return nil, fmt.Errorf("sim: disk entry format version %d, want %d", v, diskVersion)
	}
	if v := binary.LittleEndian.Uint32(data[len(diskMagic)+4:]); v != engineEpoch {
		return nil, fmt.Errorf("sim: disk entry engine epoch %d, want %d", v, engineEpoch)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, fmt.Errorf("sim: disk entry checksum mismatch")
	}

	r := &entryReader{b: body, off: len(diskMagic) + 8}
	got := shardKey{policy: r.str(), config: r.u64(), trace: r.u64(), slots: int(r.u32())}
	if r.err != nil {
		return nil, r.err
	}
	if got != wantKey {
		return nil, fmt.Errorf("sim: disk entry key mismatch (filename collision)")
	}

	res := &Result{
		Policy:    r.str(),
		Slots:     int(r.u32()),
		Functions: int(r.u32()),
	}
	nf := int(r.u32())
	if r.err == nil && nf >= 0 && nf <= (len(body)-r.off)/32 {
		// Bulk decode: one bounds check for the whole fixed-width block,
		// then direct offset reads — the restart-warming path decodes tens
		// of thousands of these per sweep.
		blk := r.take(32 * nf)
		res.PerFunc = make([]FuncMetrics, nf)
		for i := range res.PerFunc {
			o := blk[i*32:]
			res.PerFunc[i] = FuncMetrics{
				Invocations: int64(binary.LittleEndian.Uint64(o)),
				InvokedSlot: int64(binary.LittleEndian.Uint64(o[8:])),
				ColdStarts:  int64(binary.LittleEndian.Uint64(o[16:])),
				WMTMinutes:  int64(binary.LittleEndian.Uint64(o[24:])),
			}
		}
	} else if r.err == nil {
		return nil, fmt.Errorf("sim: disk entry per-func count %d exceeds payload", nf)
	}
	res.TotalInvocations = r.i64()
	res.TotalInvokedSlot = r.i64()
	res.TotalColdStarts = r.i64()
	res.TotalWMT = r.i64()
	res.TotalMemory = r.i64()
	res.MaxLoaded = int(r.u32())
	res.EMCRSum = math.Float64frombits(r.u64())
	res.EMCRSlots = r.i64()
	res.Overhead = time.Duration(r.i64())
	if typed := r.u8(); typed > 1 {
		return nil, fmt.Errorf("sim: disk entry types flag %d", typed)
	} else if typed == 1 {
		nd := int(r.u32())
		if r.err == nil && (nd < 0 || nd > (len(body)-r.off)/4) {
			return nil, fmt.Errorf("sim: disk entry type dictionary %d exceeds payload", nd)
		}
		dict := make([]string, 0, max(nd, 0))
		seen := make(map[string]bool)
		for i := 0; i < nd && r.err == nil; i++ {
			label := r.str()
			if seen[label] {
				return nil, fmt.Errorf("sim: disk entry type dictionary repeats %q", label)
			}
			seen[label] = true
			dict = append(dict, label)
		}
		w := indexWidth(nd)
		nt := int(r.u32())
		if r.err == nil && nt >= 0 && nt <= (len(body)-r.off)/w {
			blk := r.take(w * nt)
			res.Types = make([]string, nt)
			// The encoder numbers distinct labels in first-use order, so an
			// index may only name a seen label or the next new one; with no
			// unused labels, an accepted entry re-encodes to the same bytes.
			fresh := 0
			for i := range res.Types {
				var v uint32
				switch w {
				case 1:
					v = uint32(blk[i])
				case 2:
					v = uint32(binary.LittleEndian.Uint16(blk[i*2:]))
				default:
					v = binary.LittleEndian.Uint32(blk[i*4:])
				}
				if int(v) > fresh || int(v) >= len(dict) {
					return nil, fmt.Errorf("sim: disk entry type index %d out of first-use order (next new %d of %d)", v, fresh, len(dict))
				}
				if int(v) == fresh {
					fresh++
				}
				res.Types[i] = dict[v]
			}
			if fresh != len(dict) {
				return nil, fmt.Errorf("sim: disk entry type dictionary has %d unused labels", len(dict)-fresh)
			}
		} else if r.err == nil {
			return nil, fmt.Errorf("sim: disk entry type count %d exceeds payload", nt)
		}
	}

	log := &slotLog{}
	ns := int(r.u32())
	if r.err == nil && ns >= 0 && ns <= (len(body)-r.off)/8 {
		log.loaded = decodeI32s(r, ns)
		log.active = decodeI32s(r, ns)
	} else if r.err == nil {
		return nil, fmt.Errorf("sim: disk entry slot count %d exceeds payload", ns)
	}

	ng := int(r.u32())
	var global []trace.FuncID
	if r.err == nil && ng >= 0 && ng <= (len(body)-r.off)/4 {
		blk := r.take(4 * ng)
		global = make([]trace.FuncID, ng)
		for i := range global {
			global[i] = trace.FuncID(binary.LittleEndian.Uint32(blk[i*4:]))
		}
	} else if r.err == nil {
		return nil, fmt.Errorf("sim: disk entry global count %d exceeds payload", ng)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("sim: disk entry has %d trailing bytes", len(body)-r.off)
	}
	// Shape rules: one slot-log row (loaded and active alike) per simulated
	// slot, one global id and, when typed, one label per function. The
	// merge indexes by these lengths outside any per-shard recovery, so a
	// checksummed but misshapen entry (a buggy or foreign writer) must be a
	// miss, not a crash.
	if res.Slots != wantKey.slots || len(log.loaded) != wantKey.slots {
		return nil, fmt.Errorf("sim: disk entry covers %d slots with a %d-slot log, want %d",
			res.Slots, len(log.loaded), wantKey.slots)
	}
	if len(global) != len(res.PerFunc) || (res.Types != nil && len(res.Types) != len(res.PerFunc)) {
		return nil, fmt.Errorf("sim: disk entry maps %d global ids and %d labels for %d functions",
			len(global), len(res.Types), len(res.PerFunc))
	}
	return &shardEntry{res: res, log: log, global: global}, nil
}
