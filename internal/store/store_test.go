package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func frame(kind byte, payload string) []byte {
	return AppendRecord(nil, kind, []byte(payload))
}

func stream(recs ...Record) []byte {
	var b []byte
	for _, r := range recs {
		b = AppendRecord(b, r.Kind, r.Payload)
	}
	return b
}

func TestScanRoundTrip(t *testing.T) {
	in := []Record{
		{Kind: 1, Payload: []byte("hello")},
		{Kind: 2, Payload: nil},
		{Kind: 7, Payload: bytes.Repeat([]byte{0xAB}, 1000)},
	}
	recs, n, err := Scan(stream(in...))
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if n != len(stream(in...)) {
		t.Fatalf("consumed %d of %d", n, len(stream(in...)))
	}
	if len(recs) != len(in) {
		t.Fatalf("got %d records, want %d", len(recs), len(in))
	}
	for i := range in {
		if recs[i].Kind != in[i].Kind || !bytes.Equal(recs[i].Payload, in[i].Payload) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestScanClassification(t *testing.T) {
	a := frame(1, "first")
	b := frame(2, "second")
	corrupt := func(f []byte) []byte {
		c := append([]byte(nil), f...)
		c[len(c)-1] ^= 0xFF // checksum byte
		return c
	}
	cases := []struct {
		name string
		raw  []byte
		want error
		recs int
	}{
		{"clean", append(append([]byte{}, a...), b...), nil, 2},
		{"empty", nil, nil, 0},
		{"torn header", append(append([]byte{}, a...), b[:3]...), ErrTornLog, 1},
		{"torn payload", append(append([]byte{}, a...), b[:len(b)-4]...), ErrTornLog, 1},
		{"corrupt final is torn", append(append([]byte{}, a...), corrupt(b)...), ErrTornLog, 1},
		{"corrupt mid", append(append([]byte{}, corrupt(a)...), b...), ErrCorruptSegment, 0},
		{"huge length is torn", []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8, 9}, ErrTornLog, 0},
	}
	for _, tc := range cases {
		recs, _, err := Scan(tc.raw)
		if tc.want == nil && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if len(recs) != tc.recs {
			t.Errorf("%s: got %d intact records, want %d", tc.name, len(recs), tc.recs)
		}
	}
}

func TestScanAllSkipCorrupt(t *testing.T) {
	a, b, c := frame(1, "aa"), frame(2, "bb"), frame(3, "cc")
	bad := append([]byte(nil), b...)
	bad[headerLen] ^= 0x01 // payload byte
	raw := append(append(append([]byte{}, a...), bad...), c...)

	if _, err := ScanAll(raw, false); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("fail-fast: got %v, want ErrCorruptSegment", err)
	}
	res, err := ScanAll(raw, true)
	if err != nil {
		t.Fatalf("skip: %v", err)
	}
	if res.Skipped != 1 || len(res.Records) != 2 {
		t.Fatalf("skip: got %d records, %d skipped", len(res.Records), res.Skipped)
	}
	if res.Records[0].Kind != 1 || res.Records[1].Kind != 3 {
		t.Fatalf("skip: wrong survivors %v", res.Records)
	}
}

func TestLogAppendRecoverTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, rec, err := OpenLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 || rec.Torn {
		t.Fatalf("fresh log not empty: %+v", rec)
	}
	for i := 0; i < 5; i++ {
		if _, synced, err := l.Append(9, []byte(fmt.Sprintf("rec-%d", i))); err != nil || !synced {
			t.Fatalf("append %d: synced=%v err=%v", i, synced, err)
		}
	}
	if l.Records() != 5 {
		t.Fatalf("records=%d", l.Records())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: drop half the final record.
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, raw[:len(raw)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec, err = OpenLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 4 || !rec.Torn || rec.TornBytes == 0 {
		t.Fatalf("torn recovery: %d records torn=%v", len(rec.Records), rec.Torn)
	}
	// The torn tail must be truncated so the next append is intact.
	if _, _, err := l.Append(9, []byte("after-tear")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, rec, err = OpenLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 5 || rec.Torn {
		t.Fatalf("after tear+append: %d records torn=%v", len(rec.Records), rec.Torn)
	}
	if string(rec.Records[4].Payload) != "after-tear" {
		t.Fatalf("payload %q", rec.Records[4].Payload)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 || l.Records() != 0 {
		t.Fatalf("reset left size=%d records=%d", l.Size(), l.Records())
	}
	l.Close()
}

func TestLogFsyncPolicies(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenLog(filepath.Join(dir, "never.log"), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, synced, _ := l.Append(1, []byte("x")); synced {
		t.Fatal("FsyncNever synced")
	}
	l.Close()

	l, _, err = OpenLog(filepath.Join(dir, "interval.log"),
		Options{Fsync: FsyncInterval, FsyncEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, synced, _ := l.Append(1, []byte("x")); synced {
		t.Fatal("FsyncInterval synced inside the interval")
	}
	l.Close()
}

func TestLogHookCrash(t *testing.T) {
	boom := errors.New("boom")
	path := filepath.Join(t.TempDir(), "wal.log")
	calls := 0
	l, _, err := OpenLog(path, Options{Hook: func(name string, data []byte) ([]byte, error) {
		calls++
		if calls == 2 {
			return data[:len(data)/2], boom // torn write, then death
		}
		return data, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(1, []byte("survives")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(1, []byte("torn-away")); !errors.Is(err, boom) {
		t.Fatalf("got %v, want injected error", err)
	}
	// Dead log: everything fails with the same error.
	if _, _, err := l.Append(1, []byte("more")); !errors.Is(err, boom) {
		t.Fatalf("dead log admitted an append: %v", err)
	}
	l.Close()

	_, rec, err := OpenLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 || !rec.Torn {
		t.Fatalf("recovery after torn write: %d records torn=%v", len(rec.Records), rec.Torn)
	}
}

func TestSegmentAtomicity(t *testing.T) {
	dir := t.TempDir()
	recs := []Record{{Kind: 5, Payload: []byte("snapshot")}}
	if _, err := WriteAtomic(dir, "seg-a.seg", recs, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSegment(filepath.Join(dir, "seg-a.seg"))
	if err != nil || len(got) != 1 || string(got[0].Payload) != "snapshot" {
		t.Fatalf("read back: %v %v", got, err)
	}

	// A hook crash must leave no visible segment.
	boom := errors.New("boom")
	_, err = WriteAtomic(dir, "seg-b.seg", recs, func(string, []byte) ([]byte, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-b.seg")); !os.IsNotExist(err) {
		t.Fatal("crashed segment became visible")
	}

	// Damage is always corruption, never a tolerable tear.
	raw, _ := os.ReadFile(filepath.Join(dir, "seg-a.seg"))
	raw[len(raw)-1] ^= 0xFF
	os.WriteFile(filepath.Join(dir, "seg-a.seg"), raw, 0o644)
	if _, err := ReadSegment(filepath.Join(dir, "seg-a.seg")); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("corrupt segment: %v", err)
	}

	// Zero-length files are corrupt too.
	os.WriteFile(filepath.Join(dir, "seg-z.seg"), nil, 0o644)
	if _, err := ReadSegment(filepath.Join(dir, "seg-z.seg")); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("empty segment: %v", err)
	}
}

func TestDirLifecycle(t *testing.T) {
	path := t.TempDir()
	d, rec, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Segment != nil || len(rec.WAL) != 0 {
		t.Fatalf("fresh dir not empty: %+v", rec)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := d.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Compact(3, []Record{{Kind: 5, Payload: []byte("snap@3")}}); err != nil {
		t.Fatal(err)
	}
	if d.WALRecords() != 0 {
		t.Fatalf("compact left %d WAL records", d.WALRecords())
	}
	if _, _, err := d.Append(1, []byte{9}); err != nil {
		t.Fatal(err)
	}
	d.Close()

	d, rec, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SegmentEpoch != 3 || len(rec.Segment) != 1 || string(rec.Segment[0].Payload) != "snap@3" {
		t.Fatalf("segment recovery: %+v", rec)
	}
	if len(rec.WAL) != 1 || rec.WAL[0].Payload[0] != 9 {
		t.Fatalf("WAL recovery: %+v", rec.WAL)
	}

	// Compacting at a later epoch removes the older segment.
	if _, err := d.Compact(7, []Record{{Kind: 5, Payload: []byte("snap@7")}}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, err := os.Stat(filepath.Join(path, "seg-0000000000000003.seg")); !os.IsNotExist(err) {
		t.Fatal("old segment not removed")
	}
	_, rec, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SegmentEpoch != 7 {
		t.Fatalf("epoch %d", rec.SegmentEpoch)
	}
}

func TestDirCorruptSegmentPolicies(t *testing.T) {
	path := t.TempDir()
	d, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Compact(1, []Record{{Kind: 5, Payload: []byte("old")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Compact(2, []Record{{Kind: 5, Payload: []byte("new")}}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	// Resurrect an older segment, then corrupt the newest.
	if _, err := WriteAtomic(path, "seg-0000000000000001.seg",
		[]Record{{Kind: 5, Payload: []byte("old")}}, nil); err != nil {
		t.Fatal(err)
	}
	seg2 := filepath.Join(path, "seg-0000000000000002.seg")
	raw, _ := os.ReadFile(seg2)
	raw[len(raw)-2] ^= 0xFF
	os.WriteFile(seg2, raw, 0o644)

	if _, _, err := Open(path, Options{}); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("fail-fast open: %v", err)
	}
	d, rec, err := Open(path, Options{SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SegmentsDropped != 1 || rec.SegmentEpoch != 1 || string(rec.Segment[0].Payload) != "old" {
		t.Fatalf("skip open fell back wrong: %+v", rec)
	}
	d.Close()
}

func TestDirCrashBetweenSegmentAndReset(t *testing.T) {
	// A hook that dies right after the segment write (on the WAL reset's
	// sync there is no hook — so simulate by killing after Compact's
	// WriteAtomic and before Reset via a hook error on nothing; instead
	// we emulate the window by writing the segment manually and leaving
	// the WAL untouched).
	path := t.TempDir()
	d, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Append(1, []byte("covered")); err != nil {
		t.Fatal(err)
	}
	d.Close()
	// Segment appears (epoch 1) but the WAL was never reset — the
	// crash-between window.
	if _, err := WriteAtomic(path, "seg-0000000000000001.seg",
		[]Record{{Kind: 5, Payload: []byte("snap@1")}}, nil); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Both survive; the consumer's epoch filter skips the covered WAL
	// records.
	if rec.SegmentEpoch != 1 || len(rec.WAL) != 1 {
		t.Fatalf("window recovery: seg=%d wal=%d", rec.SegmentEpoch, len(rec.WAL))
	}
}

func TestDirRemovesStaleTemp(t *testing.T) {
	path := t.TempDir()
	tmp := filepath.Join(path, "seg-0000000000000009.seg.tmp")
	os.WriteFile(tmp, []byte("half-written"), 0o644)
	d, rec, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	if rec.Segment != nil {
		t.Fatal("temp file recovered as a segment")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived Open")
	}
}

// FuzzScanAll feeds arbitrary bytes to the record scanner recovery runs on
// every log and segment file: it must classify the damage or return the
// records, never panic, and the records it returns must frame back into a
// clean stream that scans to the same records.
func FuzzScanAll(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add(stream(Record{Kind: 1, Payload: []byte("hello")}, Record{Kind: 2}), false)
	torn := stream(Record{Kind: 1, Payload: []byte("ab")}, Record{Kind: 3, Payload: []byte("cd")})
	f.Add(torn[:len(torn)-3], false)
	corrupt := stream(Record{Kind: 1, Payload: []byte("ab")}, Record{Kind: 3, Payload: []byte("cd")})
	corrupt[6] ^= 0xff
	f.Add(corrupt, true)
	f.Fuzz(func(t *testing.T, raw []byte, skipCorrupt bool) {
		res, err := ScanAll(raw, skipCorrupt)
		if err != nil {
			if !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("unclassified scan error: %v", err)
			}
			return
		}
		if res.Keep < 0 || res.Keep > len(raw) || (res.Torn && res.Keep+res.TornBytes != len(raw)) {
			t.Fatalf("keep %d, torn %v (%d bytes) over %d bytes", res.Keep, res.Torn, res.TornBytes, len(raw))
		}
		again, err := ScanAll(stream(res.Records...), false)
		if err != nil || again.Torn || again.Skipped != 0 || len(again.Records) != len(res.Records) {
			t.Fatalf("re-framed records scan to %d records (torn %v, skipped %d, err %v), want %d clean",
				len(again.Records), again.Torn, again.Skipped, err, len(res.Records))
		}
		for i, r := range res.Records {
			if again.Records[i].Kind != r.Kind || !bytes.Equal(again.Records[i].Payload, r.Payload) {
				t.Fatalf("record %d changed when re-framed", i)
			}
		}
	})
}
