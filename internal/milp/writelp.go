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
// equivalent of the paper's GAMS model file.
func WriteLP(w io.Writer, p *Problem) error {
	if len(p.Integer) != p.LP.NumVars() {
		return fmt.Errorf("milp: integrality vector has %d entries for %d variables", len(p.Integer), p.LP.NumVars())
	}
	name := func(j int) string {
		if j < len(p.LP.Names) && p.LP.Names[j] != "" {
			return sanitize(p.LP.Names[j])
		}
		return fmt.Sprintf("x%d", j)
	}

	if _, err := fmt.Fprintf(w, "\\ exported by insitu/internal/milp\nMaximize\n obj:"); err != nil {
		return err
	}
	if err := writeLinear(w, nil, p.LP.Objective, name); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\nSubject To\n"); err != nil {
		return err
	}
	for r, c := range p.LP.Constraints {
		label := c.Name
		if label == "" {
			label = fmt.Sprintf("c%d", r)
		}
		if _, err := fmt.Fprintf(w, " %s:", sanitize(label)); err != nil {
			return err
		}
		if err := writeLinear(w, c.Idx, c.Coef, name); err != nil {
			return err
		}
		op := "<="
		switch c.Sense {
		case lp.GE:
			op = ">="
		case lp.EQ:
			op = "="
		}
		if _, err := fmt.Fprintf(w, " %s %g\n", op, c.RHS); err != nil {
			return err
		}
	}

	if _, err := fmt.Fprintf(w, "Bounds\n"); err != nil {
		return err
	}
	for j := 0; j < p.LP.NumVars(); j++ {
		lo, up := p.LP.Lower[j], p.LP.Upper[j]
		switch {
		case math.IsInf(up, 1):
			if _, err := fmt.Fprintf(w, " %s >= %g\n", name(j), lo); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, " %g <= %s <= %g\n", lo, name(j), up); err != nil {
				return err
			}
		}
	}

	wroteHeader := false
	for j, isInt := range p.Integer {
		if !isInt {
			continue
		}
		if !wroteHeader {
			if _, err := fmt.Fprintf(w, "Generals\n"); err != nil {
				return err
			}
			wroteHeader = true
		}
		if _, err := fmt.Fprintf(w, " %s\n", name(j)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "End\n")
	return err
}

// writeLinear emits "+ c x" terms for the nonzero coefficients: coef[k] on
// variable idx[k], or on variable k when idx is nil (the dense objective).
func writeLinear(w io.Writer, idx []int, coef []float64, name func(int) string) error {
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
		if _, err := fmt.Fprintf(w, " %s %g %s", sign, c, name(j)); err != nil {
			return err
		}
		wrote = true
	}
	if !wrote {
		if _, err := fmt.Fprintf(w, " 0 %s", name(0)); err != nil {
			return err
		}
	}
	return nil
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
