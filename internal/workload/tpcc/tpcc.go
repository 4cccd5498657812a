// Package tpcc implements the TPC-C benchmark over the simulated SQLite
// engine, as driven through DBT2 in the paper (§6.2): the full schema,
// a scaled loader, the five transaction types, and the paper's four
// mixes (Table 3). tpmC is measured in transactions per simulated
// minute, matching the paper's Table 4 methodology on a single
// connection (SQLite locks whole database files).
//
// Composite TPC-C keys are encoded into single INTEGER PRIMARY KEYs
// (e.g. a district is w_id*100 + d_id), which maps every primary-key
// access onto a rowid lookup exactly as SQLite's own INTEGER PRIMARY
// KEY tables do.
package tpcc

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/sqlite"
)

// Scale sets the benchmark cardinalities. DefaultScale is reduced from
// the spec's per-warehouse sizes so simulations stay laptop-friendly;
// ratios between tables are preserved (see DESIGN.md substitution #6).
type Scale struct {
	Warehouses           int
	Items                int
	StockPerWarehouse    int
	DistrictsPerWH       int
	CustomersPerDistrict int
	OrdersPerDistrict    int // initial order backlog
}

// DefaultScale is the configuration used by the Table 4 reproduction.
func DefaultScale() Scale {
	return Scale{
		Warehouses:           10,
		Items:                2000,
		StockPerWarehouse:    2000,
		DistrictsPerWH:       10,
		CustomersPerDistrict: 100,
		OrdersPerDistrict:    100,
	}
}

// TinyScale keeps unit tests fast.
func TinyScale() Scale {
	return Scale{
		Warehouses:           1,
		Items:                100,
		StockPerWarehouse:    100,
		DistrictsPerWH:       2,
		CustomersPerDistrict: 10,
		OrdersPerDistrict:    10,
	}
}

// Key composition helpers.
func districtKey(w, d int) int64         { return int64(w)*100 + int64(d) }
func customerKey(w, d, c int) int64      { return districtKey(w, d)*100000 + int64(c) }
func orderKey(w, d, o int) int64         { return districtKey(w, d)*10000000 + int64(o) }
func orderLineKey(ok int64, n int) int64 { return ok*100 + int64(n) }
func stockKey(w, i int) int64            { return int64(w)*1000000 + int64(i) }

// TxType enumerates the five TPC-C transactions.
type TxType int

// Transaction types.
const (
	NewOrder TxType = iota
	Payment
	OrderStatus
	Delivery
	StockLevel
	numTxTypes
)

func (t TxType) String() string {
	switch t {
	case NewOrder:
		return "NewOrder"
	case Payment:
		return "Payment"
	case OrderStatus:
		return "OrderStatus"
	case Delivery:
		return "Delivery"
	case StockLevel:
		return "StockLevel"
	default:
		return fmt.Sprintf("TxType(%d)", int(t))
	}
}

// Mix is a transaction-type frequency table in percent.
type Mix struct {
	Name    string
	Percent [numTxTypes]int // indexed by TxType
}

// The paper's four workloads (Table 3). Column order in the paper is
// Delivery, OrderStatus, Payment, StockLevel, NewOrder.
var (
	WriteIntensive = Mix{Name: "write-intensive", Percent: [numTxTypes]int{NewOrder: 45, Payment: 43, OrderStatus: 4, Delivery: 4, StockLevel: 4}}
	ReadIntensive  = Mix{Name: "read-intensive", Percent: [numTxTypes]int{NewOrder: 5, Payment: 0, OrderStatus: 50, Delivery: 0, StockLevel: 45}}
	SelectionOnly  = Mix{Name: "selection-only", Percent: [numTxTypes]int{OrderStatus: 100}}
	JoinOnly       = Mix{Name: "join-only", Percent: [numTxTypes]int{StockLevel: 100}}
)

// Mixes lists the paper's four workloads in Table 3/4 order.
func Mixes() []Mix { return []Mix{WriteIntensive, ReadIntensive, SelectionOnly, JoinOnly} }

// Bench drives TPC-C against one open database.
type Bench struct {
	db    *sqlite.DB
	scale Scale
	rng   *rand.Rand

	// nextOrderID tracks each district's order counter locally (it is
	// also stored in the district row, as per spec).
	nextOID map[int64]int
	// oldest undelivered order per district for Delivery.
	deliveryHead map[int64]int

	stmts map[string]*sqlite.Stmt
}

// New creates a bench harness over a database that Load has populated
// (or will populate).
func New(db *sqlite.DB, scale Scale, seed int64) *Bench {
	return &Bench{
		db:           db,
		scale:        scale,
		rng:          rand.New(rand.NewSource(seed)),
		nextOID:      make(map[int64]int),
		deliveryHead: make(map[int64]int),
		stmts:        make(map[string]*sqlite.Stmt),
	}
}

func (b *Bench) prep(sql string) (*sqlite.Stmt, error) {
	if s, ok := b.stmts[sql]; ok {
		return s, nil
	}
	s, err := b.db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	b.stmts[sql] = s
	return s, nil
}

const schema = `
CREATE TABLE warehouse (w_id INTEGER PRIMARY KEY, w_name TEXT, w_tax REAL, w_ytd REAL);
CREATE TABLE district (d_key INTEGER PRIMARY KEY, d_w_id INTEGER, d_id INTEGER,
	d_name TEXT, d_tax REAL, d_ytd REAL, d_next_o_id INTEGER);
CREATE TABLE customer (c_key INTEGER PRIMARY KEY, c_w_id INTEGER, c_d_id INTEGER, c_id INTEGER,
	c_last TEXT, c_credit TEXT, c_balance REAL, c_ytd_payment REAL,
	c_payment_cnt INTEGER, c_delivery_cnt INTEGER, c_data TEXT);
CREATE TABLE history (h_id INTEGER PRIMARY KEY, h_c_key INTEGER, h_d_key INTEGER,
	h_amount REAL, h_data TEXT);
CREATE TABLE orders (o_key INTEGER PRIMARY KEY, o_w_id INTEGER, o_d_id INTEGER, o_id INTEGER,
	o_c_id INTEGER, o_entry_d INTEGER, o_carrier_id INTEGER, o_ol_cnt INTEGER);
CREATE TABLE new_order (no_key INTEGER PRIMARY KEY);
CREATE TABLE order_line (ol_key INTEGER PRIMARY KEY, ol_o_key INTEGER, ol_number INTEGER,
	ol_i_id INTEGER, ol_quantity INTEGER, ol_amount REAL, ol_dist_info TEXT);
CREATE TABLE item (i_id INTEGER PRIMARY KEY, i_name TEXT, i_price REAL, i_data TEXT);
CREATE TABLE stock (s_key INTEGER PRIMARY KEY, s_w_id INTEGER, s_i_id INTEGER,
	s_quantity INTEGER, s_ytd INTEGER, s_order_cnt INTEGER, s_dist TEXT);
CREATE INDEX idx_customer_last ON customer (c_w_id, c_d_id, c_last);
`

// loadBatch bounds how many inserts one load transaction carries: an
// X-FTL device caps the pages a single transaction may touch (the
// X-L2P table capacity), so bulk loads commit in batches.
const loadBatch = 2500

// maybeRebatch commits and reopens the load transaction every
// loadBatch inserts.
func (b *Bench) maybeRebatch(count *int) error {
	*count++
	if *count%loadBatch != 0 {
		return nil
	}
	if err := b.db.Commit(); err != nil {
		return err
	}
	return b.db.Begin()
}

// Load creates the schema and populates all tables, committing in
// batches.
func (b *Bench) Load() error {
	if err := b.db.ExecScript(schema); err != nil {
		return err
	}
	if err := b.db.Begin(); err != nil {
		return err
	}
	loaded := 0
	ok := false
	defer func() {
		if !ok && b.db.InTx() {
			_ = b.db.Rollback()
		}
	}()

	insItem, err := b.prep(`INSERT INTO item VALUES (?, ?, ?, ?)`)
	if err != nil {
		return err
	}
	for i := 1; i <= b.scale.Items; i++ {
		if _, err := insItem.Exec(i, fmt.Sprintf("item-%d", i),
			float64(b.rng.Intn(9900)+100)/100.0, pad(24)); err != nil {
			return err
		}
		if err := b.maybeRebatch(&loaded); err != nil {
			return err
		}
	}
	insWH, err := b.prep(`INSERT INTO warehouse VALUES (?, ?, ?, ?)`)
	if err != nil {
		return err
	}
	insDist, err := b.prep(`INSERT INTO district VALUES (?, ?, ?, ?, ?, ?, ?)`)
	if err != nil {
		return err
	}
	insCust, err := b.prep(`INSERT INTO customer VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`)
	if err != nil {
		return err
	}
	insStock, err := b.prep(`INSERT INTO stock VALUES (?, ?, ?, ?, ?, ?, ?)`)
	if err != nil {
		return err
	}
	insOrder, err := b.prep(`INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?, ?, ?)`)
	if err != nil {
		return err
	}
	insNO, err := b.prep(`INSERT INTO new_order VALUES (?)`)
	if err != nil {
		return err
	}
	insOL, err := b.prep(`INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, ?)`)
	if err != nil {
		return err
	}

	for w := 1; w <= b.scale.Warehouses; w++ {
		if _, err := insWH.Exec(w, fmt.Sprintf("wh-%d", w),
			float64(b.rng.Intn(20))/100.0, 300000.0); err != nil {
			return err
		}
		for i := 1; i <= b.scale.StockPerWarehouse; i++ {
			if _, err := insStock.Exec(stockKey(w, i), w, i,
				b.rng.Intn(91)+10, 0, 0, pad(24)); err != nil {
				return err
			}
			if err := b.maybeRebatch(&loaded); err != nil {
				return err
			}
		}
		for d := 1; d <= b.scale.DistrictsPerWH; d++ {
			dk := districtKey(w, d)
			nextO := b.scale.OrdersPerDistrict + 1
			b.nextOID[dk] = nextO
			// Two thirds of the backlog is already delivered.
			b.deliveryHead[dk] = b.scale.OrdersPerDistrict*2/3 + 1
			if _, err := insDist.Exec(dk, w, d, fmt.Sprintf("dist-%d-%d", w, d),
				float64(b.rng.Intn(20))/100.0, 30000.0, nextO); err != nil {
				return err
			}
			for c := 1; c <= b.scale.CustomersPerDistrict; c++ {
				if _, err := insCust.Exec(customerKey(w, d, c), w, d, c,
					lastName(b.rng.Intn(1000)), "GC", -10.0, 10.0, 1, 0, pad(100)); err != nil {
					return err
				}
				if err := b.maybeRebatch(&loaded); err != nil {
					return err
				}
			}
			for o := 1; o <= b.scale.OrdersPerDistrict; o++ {
				ok := orderKey(w, d, o)
				nLines := b.rng.Intn(11) + 5
				carrier := b.rng.Intn(10) + 1
				if o >= b.deliveryHead[dk] {
					carrier = 0 // undelivered
					if _, err := insNO.Exec(ok); err != nil {
						return err
					}
				}
				if _, err := insOrder.Exec(ok, w, d, o,
					b.rng.Intn(b.scale.CustomersPerDistrict)+1, o, carrier, nLines); err != nil {
					return err
				}
				for n := 1; n <= nLines; n++ {
					if _, err := insOL.Exec(orderLineKey(ok, n), ok, n,
						b.rng.Intn(b.scale.Items)+1, 5,
						float64(b.rng.Intn(999900)+100)/100.0, pad(24)); err != nil {
						return err
					}
					if err := b.maybeRebatch(&loaded); err != nil {
						return err
					}
				}
			}
		}
	}
	if err := b.db.Commit(); err != nil {
		return err
	}
	ok = true
	return nil
}

func pad(n int) string { return strings.Repeat("d", n) }

var lastNames = []string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}

// lastName builds the spec's syllable-composed customer last name.
func lastName(n int) string {
	return lastNames[n/100%10] + lastNames[n/10%10] + lastNames[n%10]
}

// Result summarizes one mix run.
type Result struct {
	Mix       Mix
	Completed int64
	PerType   [numTxTypes]int64
}

// Run executes n transactions drawn from the mix.
func (b *Bench) Run(mix Mix, n int) (Result, error) {
	res := Result{Mix: mix}
	var cdf [numTxTypes]int
	sum := 0
	for t := TxType(0); t < numTxTypes; t++ {
		sum += mix.Percent[t]
		cdf[t] = sum
	}
	if sum != 100 {
		return res, fmt.Errorf("tpcc: mix %q sums to %d%%", mix.Name, sum)
	}
	for i := 0; i < n; i++ {
		r := b.rng.Intn(100)
		var tt TxType
		for t := TxType(0); t < numTxTypes; t++ {
			if r < cdf[t] {
				tt = t
				break
			}
		}
		var err error
		switch tt {
		case NewOrder:
			err = b.newOrder()
		case Payment:
			err = b.payment()
		case OrderStatus:
			err = b.orderStatus()
		case Delivery:
			err = b.delivery()
		case StockLevel:
			err = b.stockLevel()
		}
		if err != nil {
			return res, fmt.Errorf("tpcc: %v txn: %w", tt, err)
		}
		res.Completed++
		res.PerType[tt]++
	}
	return res, nil
}

func (b *Bench) randWD() (int, int, int64) {
	w := b.rng.Intn(b.scale.Warehouses) + 1
	d := b.rng.Intn(b.scale.DistrictsPerWH) + 1
	return w, d, districtKey(w, d)
}

// newOrder is the TPC-C New-Order transaction: reads warehouse,
// district and customer, advances the district order counter, inserts
// the order, its new_order marker and 5..15 order lines, updating stock
// for each.
func (b *Bench) newOrder() error {
	w, d, dk := b.randWD()
	c := b.rng.Intn(b.scale.CustomersPerDistrict) + 1
	if err := b.db.Begin(); err != nil {
		return err
	}
	ok := false
	defer func() {
		if !ok {
			_ = b.db.Rollback()
		}
	}()

	selWH, _ := b.prep(`SELECT w_tax FROM warehouse WHERE w_id = ?`)
	rows, err := selWH.Query(w)
	if err != nil || rows.Len() != 1 {
		return fmt.Errorf("warehouse %d: %w", w, err)
	}
	selD, _ := b.prep(`SELECT d_tax, d_next_o_id FROM district WHERE d_key = ?`)
	rows, err = selD.Query(dk)
	if err != nil || rows.Len() != 1 {
		return fmt.Errorf("district %d: %w", dk, err)
	}
	oid := int(rows.Data[0][1].Int())
	updD, _ := b.prep(`UPDATE district SET d_next_o_id = ? WHERE d_key = ?`)
	if _, err := updD.Exec(oid+1, dk); err != nil {
		return err
	}
	b.nextOID[dk] = oid + 1
	selC, _ := b.prep(`SELECT c_last, c_credit FROM customer WHERE c_key = ?`)
	if _, err := selC.Query(customerKey(w, d, c)); err != nil {
		return err
	}

	okey := orderKey(w, d, oid)
	nLines := b.rng.Intn(11) + 5
	insO, _ := b.prep(`INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?, ?, ?)`)
	if _, err := insO.Exec(okey, w, d, oid, c, oid, 0, nLines); err != nil {
		return err
	}
	insNO, _ := b.prep(`INSERT INTO new_order VALUES (?)`)
	if _, err := insNO.Exec(okey); err != nil {
		return err
	}
	selI, _ := b.prep(`SELECT i_price FROM item WHERE i_id = ?`)
	selS, _ := b.prep(`SELECT s_quantity, s_ytd, s_order_cnt FROM stock WHERE s_key = ?`)
	updS, _ := b.prep(`UPDATE stock SET s_quantity = ?, s_ytd = ?, s_order_cnt = ? WHERE s_key = ?`)
	insOL, _ := b.prep(`INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, ?)`)
	for n := 1; n <= nLines; n++ {
		iid := b.rng.Intn(b.scale.Items) + 1
		rows, err := selI.Query(iid)
		if err != nil || rows.Len() != 1 {
			return fmt.Errorf("item %d: %w", iid, err)
		}
		price := rows.Data[0][0].Real()
		sk := stockKey(w, iid)
		rows, err = selS.Query(sk)
		if err != nil || rows.Len() != 1 {
			return fmt.Errorf("stock %d: %w", sk, err)
		}
		qty := int(rows.Data[0][0].Int())
		ytd := int(rows.Data[0][1].Int())
		cnt := int(rows.Data[0][2].Int())
		orderQty := b.rng.Intn(10) + 1
		if qty >= orderQty+10 {
			qty -= orderQty
		} else {
			qty = qty - orderQty + 91
		}
		if _, err := updS.Exec(qty, ytd+orderQty, cnt+1, sk); err != nil {
			return err
		}
		if _, err := insOL.Exec(orderLineKey(okey, n), okey, n, iid,
			orderQty, price*float64(orderQty), pad(24)); err != nil {
			return err
		}
	}
	if err := b.db.Commit(); err != nil {
		return err
	}
	ok = true
	return nil
}

// payment updates warehouse/district YTD and the customer balance, and
// records a history row.
func (b *Bench) payment() error {
	w, d, dk := b.randWD()
	c := b.rng.Intn(b.scale.CustomersPerDistrict) + 1
	amount := float64(b.rng.Intn(499900)+100) / 100.0
	if err := b.db.Begin(); err != nil {
		return err
	}
	ok := false
	defer func() {
		if !ok {
			_ = b.db.Rollback()
		}
	}()

	selWH, _ := b.prep(`SELECT w_ytd FROM warehouse WHERE w_id = ?`)
	rows, err := selWH.Query(w)
	if err != nil || rows.Len() != 1 {
		return fmt.Errorf("warehouse: %w", err)
	}
	updWH, _ := b.prep(`UPDATE warehouse SET w_ytd = ? WHERE w_id = ?`)
	if _, err := updWH.Exec(rows.Data[0][0].Real()+amount, w); err != nil {
		return err
	}
	selD, _ := b.prep(`SELECT d_ytd FROM district WHERE d_key = ?`)
	rows, err = selD.Query(dk)
	if err != nil || rows.Len() != 1 {
		return fmt.Errorf("district: %w", err)
	}
	updD, _ := b.prep(`UPDATE district SET d_ytd = ? WHERE d_key = ?`)
	if _, err := updD.Exec(rows.Data[0][0].Real()+amount, dk); err != nil {
		return err
	}
	ck := customerKey(w, d, c)
	selC, _ := b.prep(`SELECT c_balance, c_ytd_payment, c_payment_cnt FROM customer WHERE c_key = ?`)
	rows, err = selC.Query(ck)
	if err != nil || rows.Len() != 1 {
		return fmt.Errorf("customer: %w", err)
	}
	updC, _ := b.prep(`UPDATE customer SET c_balance = ?, c_ytd_payment = ?, c_payment_cnt = ? WHERE c_key = ?`)
	if _, err := updC.Exec(rows.Data[0][0].Real()-amount,
		rows.Data[0][1].Real()+amount, rows.Data[0][2].Int()+1, ck); err != nil {
		return err
	}
	insH, _ := b.prep(`INSERT INTO history (h_c_key, h_d_key, h_amount, h_data) VALUES (?, ?, ?, ?)`)
	if _, err := insH.Exec(ck, dk, amount, pad(24)); err != nil {
		return err
	}
	if err := b.db.Commit(); err != nil {
		return err
	}
	ok = true
	return nil
}

// orderStatus reads a customer and the lines of their most recent
// order — the selection-only workload.
func (b *Bench) orderStatus() error {
	w, d, dk := b.randWD()
	c := b.rng.Intn(b.scale.CustomersPerDistrict) + 1
	selC, _ := b.prep(`SELECT c_balance, c_last FROM customer WHERE c_key = ?`)
	if _, err := selC.Query(customerKey(w, d, c)); err != nil {
		return err
	}
	// Most recent order of the district's customer: scan the order-key
	// range backwards via MAX.
	lo, hi := orderKey(w, d, 0), orderKey(w, d, b.nextOID[dk])
	selO, _ := b.prep(`SELECT MAX(o_key) FROM orders WHERE o_key BETWEEN ? AND ? AND o_c_id = ?`)
	rows, err := selO.Query(lo, hi, c)
	if err != nil {
		return err
	}
	if rows.Len() == 0 || rows.Data[0][0].IsNull() {
		return nil // customer has no orders yet
	}
	okey := rows.Data[0][0].Int()
	selOL, _ := b.prep(`SELECT ol_i_id, ol_quantity, ol_amount FROM order_line WHERE ol_key BETWEEN ? AND ?`)
	if _, err := selOL.Query(okey*100, okey*100+99); err != nil {
		return err
	}
	return nil
}

// delivery delivers the oldest undelivered order in each district of a
// warehouse: deletes its new_order row, stamps the carrier, sums the
// lines and credits the customer.
func (b *Bench) delivery() error {
	w := b.rng.Intn(b.scale.Warehouses) + 1
	carrier := b.rng.Intn(10) + 1
	if err := b.db.Begin(); err != nil {
		return err
	}
	ok := false
	defer func() {
		if !ok {
			_ = b.db.Rollback()
		}
	}()
	selNO, _ := b.prep(`SELECT MIN(no_key) FROM new_order WHERE no_key BETWEEN ? AND ?`)
	delNO, _ := b.prep(`DELETE FROM new_order WHERE no_key = ?`)
	selO, _ := b.prep(`SELECT o_c_id FROM orders WHERE o_key = ?`)
	updO, _ := b.prep(`UPDATE orders SET o_carrier_id = ? WHERE o_key = ?`)
	sumOL, _ := b.prep(`SELECT SUM(ol_amount) FROM order_line WHERE ol_key BETWEEN ? AND ?`)
	selC, _ := b.prep(`SELECT c_balance, c_delivery_cnt FROM customer WHERE c_key = ?`)
	updC, _ := b.prep(`UPDATE customer SET c_balance = ?, c_delivery_cnt = ? WHERE c_key = ?`)
	for d := 1; d <= b.scale.DistrictsPerWH; d++ {
		dk := districtKey(w, d)
		lo, hi := orderKey(w, d, 0), orderKey(w, d, b.nextOID[dk])
		rows, err := selNO.Query(lo, hi)
		if err != nil {
			return err
		}
		if rows.Len() == 0 || rows.Data[0][0].IsNull() {
			continue // no undelivered orders in this district
		}
		okey := rows.Data[0][0].Int()
		if _, err := delNO.Exec(okey); err != nil {
			return err
		}
		rows, err = selO.Query(okey)
		if err != nil || rows.Len() != 1 {
			return fmt.Errorf("order %d: %w", okey, err)
		}
		cid := int(rows.Data[0][0].Int())
		if _, err := updO.Exec(carrier, okey); err != nil {
			return err
		}
		rows, err = sumOL.Query(okey*100, okey*100+99)
		if err != nil {
			return err
		}
		total := rows.Data[0][0].Real()
		ck := customerKey(w, d, cid)
		rows, err = selC.Query(ck)
		if err != nil || rows.Len() != 1 {
			return fmt.Errorf("customer %d: %w", ck, err)
		}
		if _, err := updC.Exec(rows.Data[0][0].Real()+total,
			rows.Data[0][1].Int()+1, ck); err != nil {
			return err
		}
	}
	if err := b.db.Commit(); err != nil {
		return err
	}
	ok = true
	return nil
}

// stockLevel counts recently sold items below a stock threshold: the
// join-heavy read-only transaction (order_line x stock).
func (b *Bench) stockLevel() error {
	w, d, dk := b.randWD()
	threshold := b.rng.Intn(11) + 10
	next := b.nextOID[dk]
	loOID := next - 20
	if loOID < 1 {
		loOID = 1
	}
	lo := orderLineKey(orderKey(w, d, loOID), 0)
	hi := orderLineKey(orderKey(w, d, next), 0)
	// Join order lines of the last 20 orders with their stock rows: the
	// stock key is computed from the line's item id, which the planner
	// turns into a rowid lookup per outer row (nested-loop join).
	sel, _ := b.prep(`SELECT COUNT(DISTINCT ol.ol_i_id)
		FROM order_line ol JOIN stock s ON s.s_key = ol.ol_i_id + ?
		WHERE ol.ol_key BETWEEN ? AND ? AND s.s_quantity < ?`)
	_, err := sel.Query(int64(w)*1000000, lo, hi, threshold)
	return err
}
