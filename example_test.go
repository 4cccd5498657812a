package xftl_test

import (
	"fmt"
	"log"

	"repro"
)

// Example builds the X-FTL stack, commits a transfer between two
// accounts, and cuts the power in the middle of a second transfer. The
// device's X-L2P table rolls the cut transaction back; there is no
// rollback journal or WAL anywhere in the stack. Time is virtual, so
// the output is the same on every run.
func Example() {
	st, err := xftl.NewStackDevice(xftl.OpenSSD(), xftl.ModeXFTL, xftl.DeviceOptions{}, xftl.StackOptions{})
	check(err)
	db, err := st.OpenDB("app.db")
	check(err)
	check(db.ExecScript(`CREATE TABLE accounts (id INTEGER PRIMARY KEY, owner TEXT, balance REAL);
		INSERT INTO accounts VALUES (1, 'alice', 100.0), (2, 'bob', 50.0)`))

	// One commit(t) makes both pages of the transfer durable.
	check(db.ExecScript(`BEGIN;
		UPDATE accounts SET balance = balance - 30 WHERE id = 1;
		UPDATE accounts SET balance = balance + 30 WHERE id = 2;
		COMMIT`))
	fmt.Printf("committed transfer (simulated I/O so far: %v)\n", st.Elapsed())
	printAccounts(db)

	check(db.ExecScript(`BEGIN;
		UPDATE accounts SET balance = 0 WHERE id = 1;
		UPDATE accounts SET balance = 0 WHERE id = 2`))
	st.PowerCut()
	check(st.Remount())
	db, err = st.OpenDB("app.db")
	check(err)
	fmt.Println("after a power cut mid-transaction:")
	printAccounts(db)
	// Output:
	// committed transfer (simulated I/O so far: 34.46ms)
	//   alice: 70.00
	//   bob: 80.00
	// after a power cut mid-transaction:
	//   alice: 70.00
	//   bob: 80.00
}

// ExampleCommitAtomic commits one transaction across two database files
// on the same X-FTL stack, the paper's multi-file transaction: one
// commit(t) covers both, where rollback-mode SQLite needs a master
// journal. A pair cut by a power failure before its commit comes back as
// neither.
func ExampleCommitAtomic() {
	st, err := xftl.NewStackDevice(xftl.OpenSSD(), xftl.ModeXFTL, xftl.DeviceOptions{}, xftl.StackOptions{})
	check(err)
	open := func() (checking, savings *xftl.DB) {
		checking, err = st.OpenDB("checking.db")
		check(err)
		savings, err = st.OpenDB("savings.db")
		check(err)
		return checking, savings
	}
	balances := func(checking, savings *xftl.DB) string {
		var b [2]float64
		for i, db := range []*xftl.DB{checking, savings} {
			row, _, err := db.QueryRow(`SELECT balance FROM account`)
			check(err)
			b[i] = row[0].Real()
		}
		return fmt.Sprintf("checking %.2f, savings %.2f", b[0], b[1])
	}
	checking, savings := open()
	check(checking.ExecScript(`CREATE TABLE account (balance REAL); INSERT INTO account VALUES (100.0)`))
	check(savings.ExecScript(`CREATE TABLE account (balance REAL); INSERT INTO account VALUES (0.0)`))

	// Move 40 from checking to savings: two files, one commit.
	move := func() {
		check(checking.ExecScript(`BEGIN; UPDATE account SET balance = balance - 40`))
		check(savings.ExecScript(`BEGIN; UPDATE account SET balance = balance + 40`))
	}
	move()
	check(xftl.CommitAtomic(checking, savings))
	fmt.Println("committed:", balances(checking, savings))

	// The same move again, cut before its commit.
	move()
	st.PowerCut()
	check(st.Remount())
	checking, savings = open()
	fmt.Println("after a power cut:", balances(checking, savings))
	// Output:
	// committed: checking 60.00, savings 40.00
	// after a power cut: checking 60.00, savings 40.00
}

// printAccounts prints every account's owner and balance.
func printAccounts(db *xftl.DB) {
	rows, err := db.Query(`SELECT owner, balance FROM accounts ORDER BY id`)
	check(err)
	for _, r := range rows.Data {
		fmt.Printf("  %s: %.2f\n", r[0].Text(), r[1].Real())
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
