package metrics

import (
	"testing"
)

func TestHostCounters(t *testing.T) {
	var h HostCounters
	h.DBWrites.Add(3)
	h.JournalWrites.Add(2)
	h.FSMetaWrites.Add(1)
	h.Reads.Add(5)
	h.Fsyncs.Add(4)
	s := h.Snapshot()
	if s.DBWrites != 3 || s.Fsyncs != 4 || s.TotalWrites() != 6 {
		t.Errorf("snapshot = %+v", s)
	}
	h.DBWrites.Add(7)
	d := h.Snapshot().Sub(s)
	if d.DBWrites != 7 || d.JournalWrites != 0 {
		t.Errorf("diff = %+v", d)
	}
	h.Reset()
	if h.Snapshot().TotalWrites() != 0 || h.Fsyncs.Load() != 0 {
		t.Error("Reset left residue")
	}
}

func TestFlashCounters(t *testing.T) {
	var f FlashCounters
	f.PageWrites.Add(10)
	f.PageReads.Add(4)
	f.GCRuns.Add(2)
	f.BlockErases.Add(3)
	s := f.Snapshot()
	if s.PageWrites != 10 || s.GCRuns != 2 {
		t.Errorf("snapshot = %+v", s)
	}
	f.PageWrites.Add(5)
	d := f.Snapshot().Sub(s)
	if d.PageWrites != 5 || d.BlockErases != 0 {
		t.Errorf("diff = %+v", d)
	}
	f.Reset()
	if f.Snapshot() != (FlashSnapshot{}) {
		t.Error("Reset left residue")
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}
