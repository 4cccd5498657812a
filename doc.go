// Package xftl is the public facade of this X-FTL reproduction
// (Kang et al., "X-FTL: Transactional FTL for SQLite Databases",
// SIGMOD 2013).
//
// The package assembles the full simulated system — NAND flash chips, a
// page-mapping FTL, the X-FTL transactional layer, a SATA-like device
// interface, an ext4-like journaling file system, and a SQLite-like
// embedded SQL engine — into one Stack per paper configuration:
//
//	st, _ := xftl.NewStackDevice(xftl.OpenSSD(), xftl.ModeXFTL, xftl.DeviceOptions{}, xftl.StackOptions{})
//	db, _ := st.OpenDB("app.db")
//	db.Exec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
//	db.Exec(`INSERT INTO kv VALUES (?, ?)`, 1, "hello")
//
// Elapsed time is simulated: it advances only with device work, so runs
// are deterministic and measurements reflect the I/O cost structure the
// paper analyses. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the reproduced tables and figures.
package xftl
