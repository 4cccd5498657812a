package tpcc

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/simfs"
	"repro/internal/sqlite"
	"repro/internal/sqlite/pager"
	"repro/internal/storage"
)

func testDB(t *testing.T, mode pager.JournalMode) *sqlite.DB {
	t.Helper()
	prof := storage.OpenSSD()
	prof.Nand.Blocks = 1024
	prof.Nand.PagesPerBlock = 32
	prof.Nand.PageSize = 2048
	transactional := mode == pager.Off
	fsMode := simfs.Ordered
	if transactional {
		fsMode = simfs.OffXFTL
	}
	dev, err := storage.New(prof, simclock.New(), storage.Options{Transactional: transactional})
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := simfs.New(dev, fsMode, &metrics.HostCounters{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sqlite.Open(fsys, "tpcc.db", sqlite.Config{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestKeyComposition(t *testing.T) {
	if districtKey(3, 7) != 307 {
		t.Errorf("districtKey = %d", districtKey(3, 7))
	}
	if customerKey(3, 7, 42) != 307*100000+42 {
		t.Errorf("customerKey = %d", customerKey(3, 7, 42))
	}
	if orderKey(1, 2, 3) != 102*10000000+3 {
		t.Errorf("orderKey = %d", orderKey(1, 2, 3))
	}
	if orderLineKey(orderKey(1, 2, 3), 4) != orderKey(1, 2, 3)*100+4 {
		t.Error("orderLineKey")
	}
	if stockKey(2, 99) != 2000099 {
		t.Errorf("stockKey = %d", stockKey(2, 99))
	}
}

func TestMixesSumTo100(t *testing.T) {
	for _, mix := range Mixes() {
		sum := 0
		for _, p := range mix.Percent {
			sum += p
		}
		if sum != 100 {
			t.Errorf("mix %s sums to %d", mix.Name, sum)
		}
	}
	// Spot-check against Table 3.
	if WriteIntensive.Percent[NewOrder] != 45 || WriteIntensive.Percent[Payment] != 43 {
		t.Error("write-intensive mix drifted from Table 3")
	}
	if SelectionOnly.Percent[OrderStatus] != 100 {
		t.Error("selection-only mix drifted from Table 3")
	}
	if JoinOnly.Percent[StockLevel] != 100 {
		t.Error("join-only mix drifted from Table 3")
	}
}

func TestLoadCardinalities(t *testing.T) {
	db := testDB(t, pager.Off)
	defer db.Close()
	sc := TinyScale()
	b := New(db, sc, 1)
	if err := b.Load(); err != nil {
		t.Fatalf("Load: %v", err)
	}
	checks := []struct {
		sql  string
		want int64
	}{
		{`SELECT COUNT(*) FROM warehouse`, int64(sc.Warehouses)},
		{`SELECT COUNT(*) FROM district`, int64(sc.Warehouses * sc.DistrictsPerWH)},
		{`SELECT COUNT(*) FROM customer`, int64(sc.Warehouses * sc.DistrictsPerWH * sc.CustomersPerDistrict)},
		{`SELECT COUNT(*) FROM stock`, int64(sc.Warehouses * sc.StockPerWarehouse)},
		{`SELECT COUNT(*) FROM item`, int64(sc.Items)},
		{`SELECT COUNT(*) FROM orders`, int64(sc.Warehouses * sc.DistrictsPerWH * sc.OrdersPerDistrict)},
	}
	for _, c := range checks {
		row, ok, err := db.QueryRow(c.sql)
		if err != nil || !ok {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if row[0].Int() != c.want {
			t.Errorf("%s = %d, want %d", c.sql, row[0].Int(), c.want)
		}
	}
	// Roughly a third of the initial orders are undelivered.
	row, _, _ := db.QueryRow(`SELECT COUNT(*) FROM new_order`)
	undelivered := row[0].Int()
	total := int64(sc.Warehouses * sc.DistrictsPerWH * sc.OrdersPerDistrict)
	if undelivered == 0 || undelivered >= total {
		t.Errorf("new_order backlog = %d of %d", undelivered, total)
	}
}

func TestEachTransactionType(t *testing.T) {
	db := testDB(t, pager.Off)
	defer db.Close()
	b := New(db, TinyScale(), 2)
	if err := b.Load(); err != nil {
		t.Fatal(err)
	}
	if err := b.newOrder(); err != nil {
		t.Errorf("newOrder: %v", err)
	}
	if err := b.payment(); err != nil {
		t.Errorf("payment: %v", err)
	}
	if err := b.orderStatus(); err != nil {
		t.Errorf("orderStatus: %v", err)
	}
	if err := b.delivery(); err != nil {
		t.Errorf("delivery: %v", err)
	}
	if err := b.stockLevel(); err != nil {
		t.Errorf("stockLevel: %v", err)
	}
}

func TestNewOrderEffects(t *testing.T) {
	db := testDB(t, pager.Off)
	defer db.Close()
	b := New(db, TinyScale(), 3)
	if err := b.Load(); err != nil {
		t.Fatal(err)
	}
	before, _, _ := db.QueryRow(`SELECT COUNT(*) FROM orders`)
	beforeNO, _, _ := db.QueryRow(`SELECT COUNT(*) FROM new_order`)
	if err := b.newOrder(); err != nil {
		t.Fatal(err)
	}
	after, _, _ := db.QueryRow(`SELECT COUNT(*) FROM orders`)
	afterNO, _, _ := db.QueryRow(`SELECT COUNT(*) FROM new_order`)
	if after[0].Int() != before[0].Int()+1 {
		t.Errorf("orders %d -> %d", before[0].Int(), after[0].Int())
	}
	if afterNO[0].Int() != beforeNO[0].Int()+1 {
		t.Errorf("new_order %d -> %d", beforeNO[0].Int(), afterNO[0].Int())
	}
}

func TestDeliveryDrainsBacklog(t *testing.T) {
	db := testDB(t, pager.Off)
	defer db.Close()
	sc := TinyScale()
	b := New(db, sc, 4)
	if err := b.Load(); err != nil {
		t.Fatal(err)
	}
	before, _, _ := db.QueryRow(`SELECT COUNT(*) FROM new_order`)
	if err := b.delivery(); err != nil {
		t.Fatal(err)
	}
	after, _, _ := db.QueryRow(`SELECT COUNT(*) FROM new_order`)
	drained := before[0].Int() - after[0].Int()
	if drained < 1 || drained > int64(sc.DistrictsPerWH) {
		t.Errorf("delivery drained %d new_order rows", drained)
	}
}

func TestRunMix(t *testing.T) {
	db := testDB(t, pager.WAL)
	defer db.Close()
	b := New(db, TinyScale(), 5)
	if err := b.Load(); err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(WriteIntensive, 40)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Completed != 40 {
		t.Errorf("completed = %d", res.Completed)
	}
	if res.PerType[NewOrder] == 0 || res.PerType[Payment] == 0 {
		t.Errorf("mix skewed: %+v", res.PerType)
	}
}

func TestBadMixRejected(t *testing.T) {
	db := testDB(t, pager.Off)
	defer db.Close()
	b := New(db, TinyScale(), 6)
	if err := b.Load(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(Mix{Name: "bad", Percent: [numTxTypes]int{NewOrder: 50}}, 1); err == nil {
		t.Error("mix not summing to 100 accepted")
	}
}
