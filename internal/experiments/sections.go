package experiments

import (
	"fmt"
	"io"
)

// Section is one -fig selection of ccrpaper: a figure, table or group of
// ablations, printed as text tables.
type Section struct {
	Name  string
	Print func(*Suite, io.Writer) error
}

// Sections lists ccrpaper's -fig selections in print order; -fig all
// prints every one, in this order, on one suite.
var Sections = []Section{
	{"4", printed(Figure4)},
	{"8a", titled(Figure8a, "Figure 8(a): speedup vs computation instances")},
	{"8b", titled(Figure8b, "Figure 8(b): speedup vs computation entries")},
	{"9", printed(Figure9)},
	{"10", printed(Figure10)},
	{"11", printed(Figure11)},
	{"scalars", printed(Scalars)},
	{"compare", printed(Comparison)},
	{"ablations", printAll(
		printed(AblationAssoc), printed(AblationNoMem), printed(AblationSpeculation),
		printed(AblationFuncLevel), printed(AblationOutOfOrder),
		func(s *Suite, w io.Writer) error {
			h, err := AblationHeuristics(s)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(w, RenderHeuristics(h))
			return err
		})},
	{"decant", printed(Decant)},
}

// printed prints the result of a driver whose result renders itself.
func printed[R interface{ Render() string }](run func(*Suite) (R, error)) func(*Suite, io.Writer) error {
	return func(s *Suite, w io.Writer) error {
		r, err := run(s)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, r.Render())
		return err
	}
}

// titled prints a Figure 8 sweep under title.
func titled(run func(*Suite) (*Fig8Result, error), title string) func(*Suite, io.Writer) error {
	return func(s *Suite, w io.Writer) error {
		r, err := run(s)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, r.Render(title))
		return err
	}
}

// printAll prints each part in turn, stopping at the first error.
func printAll(parts ...func(*Suite, io.Writer) error) func(*Suite, io.Writer) error {
	return func(s *Suite, w io.Writer) error {
		for _, p := range parts {
			if err := p(s, w); err != nil {
				return err
			}
		}
		return nil
	}
}
