// Command sqlsh is an interactive SQL shell over the simulated stack:
// it opens a database in one of the paper's three modes and executes
// statements from stdin, reporting simulated I/O time per statement.
//
// Usage:
//
//	sqlsh [-mode rbj|wal|xftl] [-db name]
//
// TestScriptedSession holds a scripted session's transcript.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
)

func main() {
	modeFlag := flag.String("mode", "xftl", "journal mode: rbj, wal or xftl")
	dbName := flag.String("db", "shell.db", "database file name")
	flag.Parse()

	var mode xftl.Mode
	switch strings.ToLower(*modeFlag) {
	case "rbj", "rollback":
		mode = xftl.ModeRollback
	case "wal":
		mode = xftl.ModeWAL
	case "xftl", "x-ftl", "off":
		mode = xftl.ModeXFTL
	default:
		fmt.Fprintf(os.Stderr, "sqlsh: unknown mode %q\n", *modeFlag)
		os.Exit(2)
	}
	if err := run(os.Stdin, os.Stdout, mode, *dbName); err != nil {
		fmt.Fprintf(os.Stderr, "sqlsh: %v\n", err)
		os.Exit(1)
	}
}

// run opens the database name on a new stack in mode and executes the
// statements read from in, writing prompts, results and each
// statement's simulated I/O time to out.
func run(in io.Reader, out io.Writer, mode xftl.Mode, name string) error {
	st, err := xftl.NewStackDevice(xftl.OpenSSD(), mode, xftl.DeviceOptions{}, xftl.StackOptions{})
	if err != nil {
		return err
	}
	db, err := st.OpenDB(name)
	if err != nil {
		return err
	}
	defer db.Close()
	fmt.Fprintf(out, "sqlsh: %s on %s (%s mode); end statements with ';', Ctrl-D to exit\n",
		name, st.Device.Profile().Name, mode)

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Fprint(out, "sql> ")
	for sc.Scan() {
		line := sc.Text()
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			fmt.Fprint(out, "...> ")
			continue
		}
		stmt := strings.TrimSpace(buf.String())
		buf.Reset()
		if stmt != ";" && stmt != "" {
			runStatement(out, st, db, stmt)
		}
		fmt.Fprint(out, "sql> ")
	}
	return sc.Err()
}

func runStatement(out io.Writer, st *xftl.Stack, db *xftl.DB, stmt string) {
	start := st.Clock.Now()
	upper := strings.ToUpper(strings.TrimSpace(stmt))
	if strings.HasPrefix(upper, "SELECT") {
		rows, err := db.Query(stmt)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return
		}
		printRows(out, rows)
		fmt.Fprintf(out, "(%d row(s), %v simulated I/O)\n", rows.Len(), st.Clock.Now()-start)
		return
	}
	n, err := db.Exec(stmt)
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(out, "ok (%d row(s) affected, %v simulated I/O)\n", n, st.Clock.Now()-start)
}

func printRows(out io.Writer, rows *xftl.Rows) {
	widths := make([]int, len(rows.Columns))
	for i, c := range rows.Columns {
		widths[i] = len(c)
	}
	strs := make([][]string, len(rows.Data))
	for r, row := range rows.Data {
		strs[r] = make([]string, len(row))
		for i, v := range row {
			s := v.String()
			if len(s) > 40 {
				s = s[:37] + "..."
			}
			strs[r][i] = s
			if i < len(widths) && len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	for i, c := range rows.Columns {
		if i > 0 {
			fmt.Fprint(out, "  ")
		}
		fmt.Fprintf(out, "%-*s", widths[i], c)
	}
	fmt.Fprintln(out)
	for _, row := range strs {
		for i, s := range row {
			if i > 0 {
				fmt.Fprint(out, "  ")
			}
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(out, "%-*s", w, s)
		}
		fmt.Fprintln(out)
	}
}
