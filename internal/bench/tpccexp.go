package bench

import (
	"fmt"
	"time"

	"repro/internal/workload/tpcc"
)

// hostCPU is the modeled host-side compute time per transaction type.
// The simulator's clock only advances with device work, which is
// (correctly) near zero for fully cached read-only mixes — but the
// paper's Table 4 rates for those mixes are CPU-bound on the host
// (2.8 GHz i7). The read-only constants are calibrated directly from
// the paper: selection-only 281,856 tpm -> ~213 us per OrderStatus;
// join-only 35,662 tpm -> ~1.68 ms per StockLevel. The write-type
// constants are rough estimates and negligible next to their I/O.
var hostCPU = map[tpcc.TxType]time.Duration{
	tpcc.NewOrder:    500 * time.Microsecond,
	tpcc.Payment:     200 * time.Microsecond,
	tpcc.OrderStatus: 213 * time.Microsecond,
	tpcc.Delivery:    800 * time.Microsecond,
	tpcc.StockLevel:  1680 * time.Microsecond,
}

// TpmC is one (mix, mode) TPC-C measurement.
type TpmC struct {
	Mix     string
	Mode    Mode
	Txns    int64
	Elapsed time.Duration
	// Rate is transactions per simulated minute, the paper's tpmC
	// reporting unit for Table 4 (total mix transactions, since three
	// of the four mixes contain no New-Order transactions at all).
	Rate float64
}

// Table4 regenerates Table 4: the four mixes of Table 3 measured in
// tpmC for WAL and X-FTL (RBJ added as a bonus column).
type Table4 struct {
	Scale   tpcc.Scale
	Results map[string]map[Mode]TpmC
}

// RunTable4 loads one TPC-C database per mode and measures every mix.
func RunTable4(opts Options) (*Table4, error) {
	scale := tpcc.DefaultScale()
	perMix := map[string]int{
		tpcc.WriteIntensive.Name: 300,
		tpcc.ReadIntensive.Name:  600,
		tpcc.SelectionOnly.Name:  2000,
		tpcc.JoinOnly.Name:       800,
	}
	if opts.Quick {
		scale = tpcc.Scale{Warehouses: 2, Items: 300, StockPerWarehouse: 300,
			DistrictsPerWH: 4, CustomersPerDistrict: 30, OrdersPerDistrict: 30}
		for k := range perMix {
			perMix[k] = 40
		}
	}
	t4 := &Table4{Scale: scale, Results: make(map[string]map[Mode]TpmC)}
	for _, mix := range tpcc.Mixes() {
		t4.Results[mix.Name] = make(map[Mode]TpmC)
	}
	for _, mode := range AllModes() {
		opts.progress("table4: loading TPC-C for %s", mode)
		st, err := newStack(mode, opts, 0)
		if err != nil {
			return nil, err
		}
		db, err := st.OpenDB("tpcc.db")
		if err != nil {
			return nil, err
		}
		b := tpcc.New(db, scale, opts.seedOr(2013))
		if err := b.Load(); err != nil {
			_ = db.Close()
			return nil, fmt.Errorf("table4 load %s: %w", mode, err)
		}
		for _, mix := range tpcc.Mixes() {
			opts.progress("table4: %s on %s", mix.Name, mode)
			n := perMix[mix.Name]
			start := st.Clock.Now()
			res, err := b.Run(mix, n)
			if err != nil {
				_ = db.Close()
				return nil, fmt.Errorf("table4 %s/%s: %w", mix.Name, mode, err)
			}
			elapsed := st.Clock.Now() - start
			for tt, cpu := range hostCPU {
				elapsed += time.Duration(res.PerType[tt]) * cpu
			}
			rate := 0.0
			if elapsed > 0 {
				rate = float64(res.Completed) / elapsed.Minutes()
			}
			t4.Results[mix.Name][mode] = TpmC{
				Mix: mix.Name, Mode: mode, Txns: res.Completed,
				Elapsed: elapsed, Rate: rate,
			}
		}
		_ = db.Close()
	}
	return t4, nil
}

// Table3 renders the mix definitions exactly as the paper's Table 3.
func Table3() *Table {
	t := &Table{
		Title:  "Table 3: TPC-C workload mixes (percent)",
		Header: []string{"Workload", "Delivery", "OrderStatus", "Payment", "StockLevel", "NewOrder"},
	}
	for _, mix := range tpcc.Mixes() {
		t.AddRow(mix.Name,
			fmt.Sprintf("%d%%", mix.Percent[tpcc.Delivery]),
			fmt.Sprintf("%d%%", mix.Percent[tpcc.OrderStatus]),
			fmt.Sprintf("%d%%", mix.Percent[tpcc.Payment]),
			fmt.Sprintf("%d%%", mix.Percent[tpcc.StockLevel]),
			fmt.Sprintf("%d%%", mix.Percent[tpcc.NewOrder]))
	}
	return t
}

// Table renders Table 4.
func (t4 *Table4) Table() *Table {
	t := &Table{
		Title:  "Table 4: TPC-C throughput (transactions per simulated minute)",
		Header: []string{"Workload", "RBJ", "WAL", "X-FTL", "X-FTL/WAL"},
	}
	for _, mix := range tpcc.Mixes() {
		r := t4.Results[mix.Name]
		ratio := "-"
		if r[WAL].Rate > 0 {
			ratio = fmt.Sprintf("%.2fx", r[XFTL].Rate/r[WAL].Rate)
		}
		t.AddRow(mix.Name,
			fmt.Sprintf("%.0f", r[RBJ].Rate),
			fmt.Sprintf("%.0f", r[WAL].Rate),
			fmt.Sprintf("%.0f", r[XFTL].Rate),
			ratio)
	}
	t.Notes = paperNoteLines(t.Title)
	return t
}
