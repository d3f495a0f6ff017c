package experiments

import (
	"errors"
	"strings"
)

// errsJoin collapses a per-index error vector into one joined error.
func errsJoin(errs []error) error {
	var nonNil []error
	for _, e := range errs {
		if e != nil {
			nonNil = append(nonNil, e)
		}
	}
	return errors.Join(nonNil...)
}

// shortReason compresses a cell error into a label that fits a table
// cell: the runner's "cell <id>:" prefix is stripped, only the first line
// survives, and the rest is capped.
func shortReason(err error) string {
	if err == nil {
		return ""
	}
	msg := err.Error()
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	msg = strings.TrimPrefix(msg, "runner: ")
	if strings.HasPrefix(msg, "cell ") {
		if i := strings.Index(msg, ": "); i >= 0 {
			msg = msg[i+2:]
		}
	}
	const maxLen = 60
	if len(msg) > maxLen {
		msg = msg[:maxLen-1] + "…"
	}
	return msg
}

// failCell renders a failure reason as a figure cell.
func failCell(reason string) string { return "FAILED(" + reason + ")" }

// rowFailures tracks per-(row, column) failure reasons for a tabular
// figure; "" means the cell succeeded. The zero value is ready to use via
// the set method.
type rowFailures map[string][]string

// set records a failure for (row, col) in a table with ncols columns.
func (f *rowFailures) set(row string, ncols, col int, err error) {
	if err == nil {
		return
	}
	if *f == nil {
		*f = rowFailures{}
	}
	cells := (*f)[row]
	if cells == nil {
		cells = make([]string, ncols)
		(*f)[row] = cells
	}
	cells[col] = shortReason(err)
}

// get returns the failure reason for (row, col), or "".
func (f rowFailures) get(row string, col int) string {
	cells := f[row]
	if cells == nil || col >= len(cells) {
		return ""
	}
	return cells[col]
}
