package milp

import (
	"fmt"
	"io"
	"math"

	"insitu/internal/lp"
)

// WriteLP serializes the problem in CPLEX LP file format, the lingua franca
// of MILP solvers. A model exported this way can be fed to CPLEX, Gurobi,
// SCIP, or glpsol to cross-check this package's solutions — the moral
// equivalent of the paper's GAMS model file. The classes the problem declares
// (lp.Problem.Classes) follow as an SOS section of one S1 set per class row,
// listing the row's columns: an outside solver reads them as a restatement of
// the rows, and ReadLP reads them back as the declaration. The grammar is
// the one ReadLP documents. A p that lp.Problem.Validate refuses is an error.
func WriteLP(w io.Writer, p *Problem) error {
	if len(p.Integer) != p.LP.NumVars() {
		return fmt.Errorf("milp: integrality vector has %d entries for %d variables", len(p.Integer), p.LP.NumVars())
	}
	if err := p.LP.Validate(); err != nil {
		return fmt.Errorf("milp: %w", err)
	}
	var err error
	printf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	name := func(j int) string {
		if j < len(p.LP.Names) && p.LP.Names[j] != "" {
			return sanitize(p.LP.Names[j])
		}
		return fmt.Sprintf("x%d", j)
	}

	// An expression with no nonzero term is written as the one term
	// "+ 0 x0": LP readers want a term. A model without columns has no x0 to
	// name, and there it is written with no term at all.
	zero := ""
	if p.LP.NumVars() > 0 {
		zero = " + 0 " + name(0)
	}
	printf("\\ exported by insitu/internal/milp\nMaximize\n obj:")
	writeLinear(printf, nil, p.LP.Objective, name, zero)
	printf("\nSubject To\n")
	for r, c := range p.LP.Constraints {
		label := c.Name
		if label == "" {
			label = fmt.Sprintf("c%d", r)
		}
		printf(" %s:", sanitize(label))
		writeLinear(printf, c.Idx, c.Coef, name, zero)
		op := "<="
		switch c.Sense {
		case lp.GE:
			op = ">="
		case lp.EQ:
			op = "="
		}
		printf(" %s %g\n", op, c.RHS)
	}

	printf("Bounds\n")
	for j := 0; j < p.LP.NumVars(); j++ {
		lo, up := p.LP.Lower[j], p.LP.Upper[j]
		if math.IsInf(up, 1) {
			printf(" %s >= %g\n", name(j), lo)
		} else {
			printf(" %g <= %s <= %g\n", lo, name(j), up)
		}
	}

	header := "Generals\n"
	for j, isInt := range p.Integer {
		if isInt {
			printf("%s %s\n", header, name(j))
			header = ""
		}
	}
	header = "SOS\n"
	for r, c := range p.LP.Constraints[:p.LP.Classes] {
		printf("%s s%d: S1::", header, r)
		header = ""
		for k, j := range c.Idx { // every coefficient is 1, so written
			printf(" %s:%d", name(j), k+1)
		}
		printf("\n")
	}
	printf("End\n")
	return err
}

// writeLinear emits "+ c x" terms for the nonzero coefficients: coef[k] on
// variable idx[k], or on variable k when idx is nil (the dense objective). An
// expression with none is written as zero.
func writeLinear(printf func(string, ...any), idx []int, coef []float64, name func(int) string, zero string) {
	wrote := false
	for j, c := range coef {
		if c == 0 {
			continue
		}
		if idx != nil {
			j = idx[j]
		}
		sign := "+"
		if c < 0 {
			sign = "-"
			c = -c
		}
		printf(" %s %g %s", sign, c, name(j))
		wrote = true
	}
	if !wrote {
		printf("%s", zero)
	}
}

// sanitize maps arbitrary variable names onto the LP-format charset.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '.', c == '(', c == ')':
			out = append(out, c)
		case c == '[':
			out = append(out, '(')
		case c == ']':
			out = append(out, ')')
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "_"
	}
	// LP format forbids a leading digit or period.
	if out[0] >= '0' && out[0] <= '9' || out[0] == '.' {
		out = append([]byte{'v'}, out...)
	}
	return string(out)
}
