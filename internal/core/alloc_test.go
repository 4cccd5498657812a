//go:build !race

package core

import (
	"testing"

	"repro/internal/ftl"
)

// A steady-state transaction — five write(t,p) and a commit(t), GC
// included — reuses its X-L2P rows, row list, table image and encode
// buffer from earlier commits. What is left is a small constant from the
// FTL's slot writes (payload mirrors, chain and sort slices), nothing
// page-sized and nothing that grows with the device or the table. (Not
// under -race: the race runtime allocates.)
func TestWriteTxCommitAllocsBounded(t *testing.T) {
	x, _ := newTestXFTL(t)
	x.cfg.CommitMapPages = DefaultConfig().CommitMapPages // the pad programs too
	data := page(x, 7)
	tid := TxID(0)
	txn := func() {
		tid++
		for j := 0; j < 5; j++ {
			if err := x.WriteTx(tid, ftl.LPN((int(tid)*5+j)%64), data); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.Commit(tid); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ {
		txn() // age: every block programmed, GC and ring laps under way
	}
	const maxAllocs = 32
	if allocs := testing.AllocsPerRun(400, txn); allocs > maxAllocs {
		t.Errorf("5 x WriteTx + Commit allocates %.1f objects, want at most %d", allocs, maxAllocs)
	}
}
