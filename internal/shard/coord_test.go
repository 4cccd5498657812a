package shard

import (
	"bytes"
	"encoding/binary"
	"maps"
	"testing"
)

func coordPage(t testing.TB, size int, gtid uint64, parts ...participantKey) []byte {
	t.Helper()
	page := make([]byte, size)
	if err := encodeCoordRecord(page, gtid, parts); err != nil {
		t.Fatal(err)
	}
	return page
}

// The coordinator log is read back after a power cut, from pages a torn
// append or later damage may have left behind. Whatever page
// decodeCoordRecord is handed it must not panic, and a page it accepts
// must be the one append writes for the record it read.
func FuzzCoordRecord(f *testing.F) {
	f.Add(coordPage(f, 64, 1))
	f.Add(coordPage(f, 64, 7, participantKey{0, 3}, participantKey{2, 1 << 40}))
	overrun := coordPage(f, 64, 9, participantKey{1, 5})
	binary.LittleEndian.PutUint16(overrun[6:], 200)
	f.Add(overrun)
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, page []byte) {
		gtid, parts, ok := decodeCoordRecord(page)
		if !ok {
			return
		}
		again := make([]byte, len(page))
		if err := encodeCoordRecord(again, gtid, parts); err != nil {
			t.Fatalf("accepted % x, which does not re-encode: %v", page, err)
		}
		if !bytes.Equal(again, page) {
			t.Fatalf("accepted % x, which re-encodes to % x", page, again)
		}
	})
}

// A record whose participant count overruns its page is damage, not a
// decision: replay commits none of its participants — not the ones that
// happen to fit — and reads nothing after it, as after a torn append.
func TestCoordReplayEndsAtOverrunningCount(t *testing.T) {
	fl := newTestFleet(t, 2)
	c := fl.coord
	first := []participantKey{{0, 11}, {1, 12}}
	if err := c.append(5, first); err != nil {
		t.Fatal(err)
	}
	f, err := c.open()
	if err != nil {
		t.Fatal(err)
	}
	bad := coordPage(t, c.fs.PageSize(), 6, participantKey{0, 21}, participantKey{1, 22})
	binary.LittleEndian.PutUint16(bad[6:], 0xFFFF)
	if err := f.WritePage(f.Pages(), bad); err != nil {
		t.Fatal(err)
	}
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := c.append(7, []participantKey{{0, 31}}); err != nil {
		t.Fatal(err)
	}

	decided, maxGtid, err := c.replay()
	if err != nil {
		t.Fatal(err)
	}
	want := map[participantKey]bool{first[0]: true, first[1]: true}
	if !maps.Equal(decided, want) || maxGtid != 5 {
		t.Fatalf("replay decided %v up to gtid %d, want %v up to 5", decided, maxGtid, want)
	}
}
