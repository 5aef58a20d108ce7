package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// testEntry builds a representative shard entry exercising every encoded
// field, including negative-looking values and the nil-vs-present Types
// distinction.
func testEntry(typed bool) (shardKey, *shardEntry) {
	key := shardKey{policy: "SPES", config: 0xdeadbeefcafef00d, trace: 42, slots: 3}
	res := &Result{
		Policy:           "SPES",
		Slots:            3,
		Functions:        2,
		PerFunc:          []FuncMetrics{{Invocations: 7, InvokedSlot: 3, ColdStarts: 1, WMTMinutes: 9}, {Invocations: 1, InvokedSlot: 1}},
		TotalInvocations: 8,
		TotalInvokedSlot: 4,
		TotalColdStarts:  1,
		TotalWMT:         9,
		TotalMemory:      5,
		MaxLoaded:        2,
		EMCRSum:          1.25,
		EMCRSlots:        3,
		Overhead:         17 * time.Microsecond,
	}
	if typed {
		res.Types = []string{"periodic", "rare"}
	}
	return key, &shardEntry{
		res:    res,
		log:    &slotLog{loaded: []int32{1, 2, 1}, active: []int32{1, 1, 0}},
		global: []trace.FuncID{3, 9},
	}
}

// sameEntry compares a decoded entry against the original field by field.
func sameEntry(t *testing.T, want, got *shardEntry) {
	t.Helper()
	if !reflect.DeepEqual(want.res, got.res) {
		t.Errorf("Result round trip: got %+v, want %+v", got.res, want.res)
	}
	if !reflect.DeepEqual(want.log, got.log) {
		t.Errorf("slotLog round trip: got %+v, want %+v", got.log, want.log)
	}
	if !reflect.DeepEqual(want.global, got.global) {
		t.Errorf("global round trip: got %v, want %v", got.global, want.global)
	}
}

// TestDiskEntryRoundTrip: encode/decode must reproduce the entry bit for
// bit, for both typed and untyped results (the merge distinguishes nil
// Types from present ones).
func TestDiskEntryRoundTrip(t *testing.T) {
	for _, typed := range []bool{true, false} {
		key, ent := testEntry(typed)
		got, err := decodeEntry(key, encodeEntry(key, ent))
		if err != nil {
			t.Fatalf("typed=%v: decode: %v", typed, err)
		}
		sameEntry(t, ent, got)
		if !typed && got.res.Types != nil {
			t.Error("untyped entry decoded with non-nil Types")
		}
	}
}

// TestDiskEntryWideTypeDictionary exercises the 2-byte index width of the
// type dictionary (more than 256 distinct labels — impossible for the real
// categorizers, but the encoding must round-trip it anyway).
func TestDiskEntryWideTypeDictionary(t *testing.T) {
	key, ent := testEntry(true)
	n := 300
	ent.res.PerFunc = make([]FuncMetrics, n)
	ent.res.Types = make([]string, n)
	ent.global = make([]trace.FuncID, n)
	for i := 0; i < n; i++ {
		ent.res.Types[i] = fmt.Sprintf("label-%03d", i)
		ent.global[i] = trace.FuncID(i)
	}
	got, err := decodeEntry(key, encodeEntry(key, ent))
	if err != nil {
		t.Fatal(err)
	}
	sameEntry(t, ent, got)
}

// TestDiskEntryVersionMismatch: an entry written by a different format
// version must be rejected — with a version error, not misread.
func TestDiskEntryVersionMismatch(t *testing.T) {
	key, ent := testEntry(true)
	buf := encodeEntry(key, ent)
	// Patch the version field and re-stamp the checksum so the version
	// check — not the corruption check — is what rejects the file.
	binary.LittleEndian.PutUint32(buf[len(diskMagic):], diskVersion+1)
	restamp(buf)
	_, err := decodeEntry(key, buf)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("decode of future-version entry: %v, want a version error", err)
	}
}

// TestDiskEntryEngineEpochMismatch: an entry computed under a different
// engine epoch (a commit that changed simulation semantics) must be
// rejected even though its serialization format and key match.
func TestDiskEntryEngineEpochMismatch(t *testing.T) {
	key, ent := testEntry(true)
	buf := encodeEntry(key, ent)
	binary.LittleEndian.PutUint32(buf[len(diskMagic)+4:], engineEpoch+1)
	restamp(buf)
	_, err := decodeEntry(key, buf)
	if err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("decode of other-epoch entry: %v, want an epoch error", err)
	}
}

// TestDiskEntryCorruption: any flipped byte anywhere in the file must fail
// the checksum (or a structural check) — a corrupt entry may cost a miss
// but can never produce a wrong result.
func TestDiskEntryCorruption(t *testing.T) {
	key, ent := testEntry(true)
	clean := encodeEntry(key, ent)
	for _, off := range []int{0, len(diskMagic) + 1, len(clean) / 2, len(clean) - 5, len(clean) - 1} {
		buf := append([]byte(nil), clean...)
		buf[off] ^= 0x40
		if _, err := decodeEntry(key, buf); err == nil {
			t.Errorf("flip at offset %d: decode succeeded, want rejection", off)
		}
	}
}

// TestDiskEntryTruncation: every proper prefix must be rejected, not
// partially decoded.
func TestDiskEntryTruncation(t *testing.T) {
	key, ent := testEntry(true)
	clean := encodeEntry(key, ent)
	for _, n := range []int{0, 4, len(diskMagic) + 4, len(clean) / 3, len(clean) - 1} {
		if _, err := decodeEntry(key, clean[:n]); err == nil {
			t.Errorf("truncation to %d bytes: decode succeeded, want rejection", n)
		}
	}
}

// TestDiskEntryKeyMismatch: a file whose embedded key differs from the one
// the reader derived (a filename hash collision) must be a miss.
func TestDiskEntryKeyMismatch(t *testing.T) {
	key, ent := testEntry(true)
	buf := encodeEntry(key, ent)
	other := key
	other.config++
	if _, err := decodeEntry(other, buf); err == nil || !strings.Contains(err.Error(), "key mismatch") {
		t.Fatalf("decode under a different key: %v, want a key mismatch error", err)
	}
}

// TestDiskCacheLoadDegradesToMiss: through the DiskCache API, a corrupted
// or truncated file is a plain miss (nil, nil), and a store overwrites it.
func TestDiskCacheLoadDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, ent := testEntry(true)
	if err := d.save(key, ent); err != nil {
		t.Fatal(err)
	}
	path := d.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := d.load(key)
	if got != nil || err != nil {
		t.Fatalf("load of truncated entry = (%v, %v), want a plain miss", got, err)
	}
	if err := d.save(key, ent); err != nil {
		t.Fatal(err)
	}
	got, err = d.load(key)
	if err != nil || got == nil {
		t.Fatalf("reload after overwrite = (%v, %v), want the entry back", got, err)
	}
	sameEntry(t, ent, got)
}

// TestShardCacheLRUSpill: with a 2-entry budget and a disk tier, storing 4
// entries evicts the two oldest from memory but keeps them restorable;
// without a disk tier the evicted keys are plain misses.
func TestShardCacheLRUSpill(t *testing.T) {
	keys := make([]shardKey, 4)
	ents := make([]*shardEntry, 4)
	for i := range keys {
		k, e := testEntry(true)
		k.trace = uint64(i)
		e.res.TotalColdStarts = int64(100 + i) // distinguishable payloads
		keys[i], ents[i] = k, e
	}

	for _, withDisk := range []bool{true, false} {
		c := NewShardCache()
		c.SetBudget(2, 0)
		if withDisk {
			d, err := OpenDiskCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			c.AttachDisk(d)
		}
		for i := range keys {
			c.store(keys[i], ents[i])
		}
		st := c.Stats()
		if st.Entries != 2 || st.Evictions != 2 {
			t.Fatalf("withDisk=%v: stats %+v, want 2 entries / 2 evictions", withDisk, st)
		}
		got := c.lookup(keys[0])
		if withDisk {
			if got == nil {
				t.Fatalf("withDisk=true: evicted entry not restored from disk")
			}
			if got.res.TotalColdStarts != 100 {
				t.Fatalf("withDisk=true: restored wrong entry: %+v", got.res)
			}
			if d := c.Stats(); d.DiskHits != 1 {
				t.Fatalf("withDisk=true: stats %+v, want 1 disk hit", d)
			}
		} else if got != nil {
			t.Fatalf("withDisk=false: evicted entry still served: %+v", got.res)
		}
	}
}

// TestOpenDiskCacheCreatesDir: the directory (including parents) is
// created on open; an empty path is rejected.
func TestOpenDiskCacheCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(d.Dir()); err != nil || !fi.IsDir() {
		t.Fatalf("entry directory not created: %v", err)
	}
	if _, err := OpenDiskCache(""); err == nil {
		t.Fatal("OpenDiskCache(\"\") succeeded, want an error")
	}
}

// restamp recomputes the trailing checksum after a deliberate header
// patch, reusing the encoder's table.
func restamp(buf []byte) {
	binary.LittleEndian.PutUint32(buf[len(buf)-4:],
		crc32.Checksum(buf[:len(buf)-4], castagnoli))
}

// peekKey reads the key block of an encoded entry without verifying
// anything, so a test can hand decodeEntry the key the bytes claim (a
// truncated key block yields a partial key, which then fails to match).
func peekKey(data []byte) shardKey {
	r := &entryReader{b: data, off: len(diskMagic) + 8}
	return shardKey{policy: r.str(), config: r.u64(), trace: r.u64(), slots: int(r.u32())}
}

// misshapenEntries returns checksummed entries that every earlier check
// accepts but that are not what encodeEntry writes for a shard of their
// key: shapes the merge would index past, and non-canonical type
// dictionaries that would not re-encode to the same bytes.
func misshapenEntries() map[string][]byte {
	out := make(map[string][]byte)
	shape := map[string]func(*shardEntry){
		"short slot log":       func(e *shardEntry) { e.log.loaded, e.log.active = e.log.loaded[:2], e.log.active[:2] },
		"long slot log":        func(e *shardEntry) { e.log.loaded, e.log.active = append(e.log.loaded, 1), append(e.log.active, 0) },
		"result slots":         func(e *shardEntry) { e.res.Slots++ },
		"short global map":     func(e *shardEntry) { e.global = e.global[:1] },
		"long global map":      func(e *shardEntry) { e.global = append(e.global, 11) },
		"short type labels":    func(e *shardEntry) { e.res.Types = e.res.Types[:1] },
		"empty slot log":       func(e *shardEntry) { e.log.loaded, e.log.active = nil, nil },
		"per-func, no ids":     func(e *shardEntry) { e.global = nil },
		"labels, no functions": func(e *shardEntry) { e.res.PerFunc, e.global = nil, nil },
	}
	for name, mutate := range shape {
		key, ent := testEntry(true)
		mutate(ent)
		out[name] = encodeEntry(key, ent)
	}

	// Byte patches of a typed entry with labels "lab1", "lab2". Its tail
	// after the two 1-byte type indices is: slot count, 3 loaded, 3 active,
	// global count, 2 globals, checksum — 44 bytes.
	patch := func(name string, edit func(buf []byte, idx int)) {
		key, ent := testEntry(true)
		ent.res.Types = []string{"lab1", "lab2"}
		buf := encodeEntry(key, ent)
		edit(buf, len(buf)-44-2)
		restamp(buf)
		out[name] = buf
	}
	patch("labels out of first-use order", func(buf []byte, idx int) { buf[idx], buf[idx+1] = 1, 0 })
	patch("unused label", func(buf []byte, idx int) { buf[idx+1] = 0 })
	patch("repeated label", func(buf []byte, _ int) {
		i := bytes.Index(buf, []byte("lab2"))
		copy(buf[i:], "lab1")
	})
	patch("types flag 2 on a typed entry", func(buf []byte, _ int) {
		i := bytes.Index(buf, []byte("lab1"))
		buf[i-4-4-1] = 2 // flag, dictionary length, first label length
	})
	key, ent := testEntry(false)
	buf := encodeEntry(key, ent)
	buf[len(buf)-44-1] = 2 // the untyped flag sits right before the tail
	restamp(buf)
	out["types flag 2 on an untyped entry"] = buf
	return out
}

// TestDiskEntryShapeRules: a checksummed entry shaped unlike its key — a
// slot log or Result not covering key.slots, a global map or label vector
// not one per function — or carrying a non-canonical type dictionary is a
// miss. The merge indexes by those lengths outside any per-shard recovery,
// so accepting one would crash the process instead of re-simulating.
func TestDiskEntryShapeRules(t *testing.T) {
	for name, data := range misshapenEntries() {
		if _, err := decodeEntry(peekKey(data), data); err == nil {
			t.Errorf("%s: decode succeeded, want rejection", name)
		}
	}
}

// TestShardedRunResimulatesForeignGlobalIDs: an entry whose global ids fall
// outside the run's population passes every decode check, but merging it
// would index past the population's vectors. The sharded engine must take
// it as a miss, re-simulate to the clean result, and overwrite it.
func TestShardedRunResimulatesForeignGlobalIDs(t *testing.T) {
	tr := tinyTrace()
	src := buildShardSet(tr, tr, 2)
	dir := t.TempDir()
	run := func() (*Result, CacheStats) {
		t.Helper()
		d, err := OpenDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		cache := NewShardCache()
		cache.AttachDisk(d)
		res, err := RunStreamed(shardedNever{}, src, Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		res.Overhead = 0
		return res, cache.Stats()
	}
	clean, _ := run()
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.sce"))
	if err != nil || len(files) != 2 {
		t.Fatalf("persisted entries = %v (err %v), want 2", files, err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		key := peekKey(data)
		ent, err := decodeEntry(key, data)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ent.global {
			ent.global[i] += trace.FuncID(tr.NumFunctions())
		}
		if err := os.WriteFile(path, encodeEntry(key, ent), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := run(); !reflect.DeepEqual(got, clean) {
		t.Errorf("run over foreign entries = %+v, want the clean %+v", got, clean)
	}
	if got, st := run(); !reflect.DeepEqual(got, clean) || st.DiskHits != 2 || st.Misses != 0 {
		t.Errorf("rerun = %+v with stats %+v, want the clean result from 2 rewritten entries", got, st)
	}
}

// FuzzDecodeEntry: decodeEntry never panics, and whatever it accepts is
// shaped like its key and re-encodes to the identical bytes — the decoding
// is canonical, so an accepted entry is exactly what encodeEntry writes for
// some shard outcome. Each input is decoded as given (the checksum gate)
// and with its checksum re-stamped, so mutations reach the structural
// checks behind the gate too.
func FuzzDecodeEntry(f *testing.F) {
	for _, typed := range []bool{true, false} {
		key, ent := testEntry(typed)
		clean := encodeEntry(key, ent)
		f.Add(clean)
		// The damage TestDiskCacheCorruptEntriesAreMisses inflicts.
		f.Add(append([]byte(nil), clean[:len(clean)*2/3]...))
		flipped := append([]byte(nil), clean...)
		flipped[len(flipped)/2] ^= 0x01
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(data []byte) {
			key := peekKey(data)
			ent, err := decodeEntry(key, data)
			if err != nil {
				return
			}
			res, log := ent.res, ent.log
			if len(log.loaded) != key.slots || len(log.active) != key.slots || res.Slots != key.slots {
				t.Fatalf("accepted %d/%d-row slot log, Result slots %d, for a %d-slot key",
					len(log.loaded), len(log.active), res.Slots, key.slots)
			}
			if len(ent.global) != len(res.PerFunc) || (res.Types != nil && len(res.Types) != len(res.PerFunc)) {
				t.Fatalf("accepted %d global ids and %d labels for %d functions",
					len(ent.global), len(res.Types), len(res.PerFunc))
			}
			if re := encodeEntry(key, ent); !bytes.Equal(re, data) {
				t.Fatalf("accepted entry re-encodes differently:\n in  %x\n out %x", data, re)
			}
		}
		check(data)
		if len(data) >= 4 {
			stamped := append([]byte(nil), data...)
			restamp(stamped)
			check(stamped)
		}
	})
}
